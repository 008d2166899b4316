package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Shared SparkSession bootstrap for spark-submit entrypoints. The jobs run
  * only the RDD batch runner, which needs no SQL or shuffle settings.
  */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
}

/** Reproduces paper Table XI (efficacy of FilterThenVerifyApprox varying
  * branch cut h). `spark-submit --class repro.jobs.Table11Job ...`
  */
object Table11Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table11")
    try {
      println("=== Table XI: Efficacy of FilterThenVerifyApprox, varying h (d=4) ===")
      Experiments.table11(spark).foreach(r => println(r.render))
    } finally spark.stop()
  }
}

/** Reproduces paper Table XII (efficacy of FilterThenVerifyApproxSW varying
  * window size W and branch cut h).
  */
object Table12Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table12")
    try {
      println("=== Table XII: Efficacy of FilterThenVerifyApproxSW, varying W and h (d=4) ===")
      Experiments.table12(spark).foreach(r => println(r.render))
    } finally spark.stop()
  }
}

/** Execution-time / work-done comparison backing Figures 6-13: Baseline vs
  * FilterThenVerifyExact vs FilterThenVerifyApprox, append-only and over a
  * sliding window.
  */
object TimingJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("timing")
    try {
      println("=== Work done & time: append-only (Figs. 6-9 shape) ===")
      Experiments.timing(spark).foreach(r => println(r.render))
      println("=== Work done & time: sliding window W=3200 (Figs. 10-13 shape) ===")
      Experiments.timing(spark, window = Some(3200)).foreach(r => println(r.render))
    } finally spark.stop()
  }
}

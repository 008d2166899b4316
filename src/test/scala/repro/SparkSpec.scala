package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.{BeforeAndAfterAll, Reporter}
import org.scalatest.events.{Event, RunAborted, RunCompleted, RunStopped}
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so the SQL frontier runs through
  * the shuffle path.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  @volatile private var started = false

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    started = true
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }

  /** Stops the shared session, if a suite started it. */
  def stop(): Unit = if (started) shared.stop()
}

/** Stops the shared session once, when the test run ends (build.sbt passes
  * it to ScalaTest with `-C`). Left to Spark's JVM shutdown hook, the
  * session's streaming state-store maintenance can still run while the RPC
  * environment shuts down, and logs stack traces for stores whose temporary
  * checkpoints are already deleted.
  */
class StopSparkAtRunEnd extends Reporter {
  def apply(event: Event): Unit = event match {
    case _: RunCompleted | _: RunAborted | _: RunStopped => SparkSpec.stop()
    case _                                               =>
  }
}

package repro.perfbench

import java.io.File

/** Benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`.
  * Prints notes, then as its last line one JSON object with the
  * end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
  * A traced run also writes its spans to `<out>/trace-<workload>-<seed>.jsonl`.
  */
object Main {
  private def usage(msg: String): Nothing = {
    Console.err.println(s"$msg\nusage: --workload <${Spec.names.mkString("|")}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    if (args.length % 2 != 0) usage("arguments come in pairs")
    val opts = args.grouped(2).map(a => a(0) -> a(1)).toMap
    def get(k: String) = opts.getOrElse(k, usage(s"missing $k"))
    val spec = Spec.bench(get("--workload")).getOrElse(usage(s"unknown workload ${get("--workload")}"))
    val seed = get("--seed").toLongOption.getOrElse(usage("--seed takes an integer"))
    val seconds = get("--seconds").toIntOption.filter(_ > 0).getOrElse(usage("--seconds takes a positive integer"))
    val trace = get("--trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace takes 0 or 1, not $t")
    }
    if (trace && spec.spark && StreamBench.objectsFor(seconds) > spec.n)
      usage(s"a traced ${spec.name} run streams ${StreamBench.Rate} objects/s from one stream of ${spec.n}: " +
        s"--seconds takes at most ${spec.n / StreamBench.Rate - StreamBench.WarmupSeconds}")
    val out = new File(opts.getOrElse("--out", ".")).getAbsoluteFile
    out.mkdirs()
    val result = LocalBench.run(spec, seed, seconds, trace, out)
    result.notes.foreach(println)
    if (trace) {
      val path = new File(out, s"trace-${spec.name}-$seed.jsonl").getPath
      result.tracer.write(path, limit = 20000)
      println(s"spans written to $path")
    }
    println(result.json(trace))
    System.out.flush()
    sys.exit(0)
  }
}

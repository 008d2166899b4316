package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import repro.core.{Clustering, Cluster}

import scala.jdk.CollectionConverters._

final case class Metric(name: String, value: Double, unit: String)

/** What one run prints: the correctness tally, the metrics of the
  * requested kind, and human-readable notes printed before the JSON line.
  */
final case class Result(attempted: Long, failed: Long, correct: Boolean,
                        endToEnd: Seq[Metric], perLayer: Seq[Metric], notes: Seq[String],
                        tracer: Tracer) {
  def json(trace: Boolean): String = {
    def num(x: Double): String =
      if (x.isNaN || x.isInfinite) "null" else java.math.BigDecimal.valueOf(x).toPlainString
    val ms = (if (trace) perLayer else endToEnd).map(m =>
      s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def sorted(parts: Seq[Array[Long]]): Array[Long] = {
    val a = Array.concat(parts: _*)
    java.util.Arrays.sort(a)
    a
  }

  /** Nearest-rank percentile of sorted samples. */
  def percentile(sorted: Array[Long], q: Double): Double =
    sorted(math.min(sorted.length - 1, math.max(0, math.ceil(q * sorted.length).toInt - 1))).toDouble

  /** Sample count, p50, p99 and the highest percentile with at least ten
    * samples beyond it.
    */
  def latencyLine(what: String, sorted: Array[Long], scale: Double = 1e3, unit: String = "us"): String = {
    val top = 1.0 - 10.0 / sorted.length
    f"$what: samples=${sorted.length} p50=${percentile(sorted, 0.5) / scale}%.1f$unit " +
      f"p99=${percentile(sorted, 0.99) / scale}%.1f$unit p${top * 100}%.3f=${percentile(sorted, top) / scale}%.1f$unit"
  }
}

object Jvm {
  final case class Snapshot(gcMs: Long, gcCount: Long, allocBytes: Long)

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** GC totals and bytes allocated by all live threads. */
  def snapshot(): Snapshot = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val ids = threads.getAllThreadIds
    Snapshot(gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum,
      threads.getThreadAllocatedBytes(ids).filter(_ > 0).sum)
  }

  /** GC time, GC count and allocation per replay between two snapshots. */
  def metrics(a: Snapshot, b: Snapshot, replays: Int): Seq[Metric] = Seq(
    Metric("jvm.gc_ms", (b.gcMs - a.gcMs).toDouble / replays, "ms"),
    Metric("jvm.gc_count", (b.gcCount - a.gcCount).toDouble / replays, "count"),
    Metric("jvm.alloc_mb", (b.allocBytes - a.allocBytes) / 1048576.0 / replays, "MB"))

  /** Heap in use after a full GC. Eden is left out: the full GC empties it,
    * and the allocation buffer a thread takes right after counts in full.
    */
  def liveHeapBytes(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && !p.getName.contains("Eden"))
      .map(_.getUsage.getUsed).sum
  }
}

/** Per-layer metrics shared by the local and the streaming workloads. */
object Layers {
  def setup(times: Seq[SetupTimes], clusters: Seq[Cluster]): Seq[Metric] = Seq(
    Metric("clustering.dendrogram_s", Stats.median(times.map(_.dendrogram / 1e9)), "s"),
    Metric("clustering.cut_s", Stats.median(times.map(_.cut / 1e9)), "s"),
    Metric("clustering.k", clusters.size.toDouble, "count"),
    Metric("clustering.max_cluster", clusters.map(_.members.size).maxOption.getOrElse(0).toDouble, "count"),
    Metric("prefs.filter_rels_s", Stats.median(times.map(_.filterRels / 1e9)), "s"),
    Metric("prefs.filter_tuples", clusters.map(_.filterRels.map(_.size).sum).sum.toDouble, "count"),
    Metric("prefs.common_tuples",
      clusters.map(c => Clustering.commonRels(c.members).map(_.size).sum).sum.toDouble, "count"),
    Metric("engine.init_s", Stats.median(times.map(_.init / 1e9)), "s"))

  /** Engine metrics over one replay of each of the run's streams;
    * `filterComparisons` of them were made by the filter frontiers `P_U`,
    * `tracedComparisons` are the comparisons made inside the timed calls.
    */
  def engine(comparisons: Long, filterComparisons: Long, st: EngineStats, tracedComparisons: Long): Seq[Metric] = Seq(
    Metric("engine.comparisons", comparisons.toDouble, "count"),
    Metric("engine.filter_share", if (comparisons == 0) 0.0 else filterComparisons.toDouble / comparisons, "ratio"),
    Metric("engine.expiry_comparisons", st.expiryComparisons.toDouble, "count"),
    Metric("engine.arrival_busy_s", st.arrivalBusyNs / 1e9, "s"),
    Metric("engine.expiry_busy_s", st.expiryBusyNs / 1e9, "s"),
    Metric("engine.expiry_share_p99", if (st.tailNs == 0) 0.0 else st.tailExpiryNs.toDouble / st.tailNs, "ratio"),
    Metric("engine.ns_per_comparison",
      if (tracedComparisons == 0) 0.0 else (st.arrivalBusyNs + st.expiryBusyNs).toDouble / tracedComparisons, "ns"),
    Metric("engine.filter_pass_rate", if (st.pairs == 0) 0.0 else st.passedPairs.toDouble / st.pairs, "ratio"),
    Metric("engine.pu_max", st.puMax.toDouble, "count"),
    Metric("engine.pc_max", st.pcMax.toDouble, "count"),
    Metric("engine.pb_max", st.pbMax.toDouble, "count"),
    Metric("engine.promotions", st.promotions.toDouble, "count"))

  /** Span names of each layer; the rest is the benchmark's own code. */
  private val layerOf: Map[String, String] = Map(
    "clustering.dendrogram" -> "clustering", "clustering.cut" -> "clustering",
    "prefs.filter_rels" -> "prefs",
    "engine.init" -> "engine", "engine.expiry" -> "engine", "engine.arrival" -> "engine",
    "spark.session" -> "spark", "spark.query_start" -> "spark", "spark.batch" -> "spark",
    "spark.replay" -> "spark",
    "check.reference" -> "check", "replay.warmup" -> "check", "replay.untraced" -> "untraced")

  /** Self time of each layer over the whole traced run; they sum to
    * `trace.run_s`. `check` is the reference answers and the warm-up,
    * `untraced` the replays that run without spans (to measure overhead),
    * `harness` the benchmark's own code between the calls.
    */
  def selfTimes(tr: Tracer): Seq[Metric] = {
    val self = tr.selfNanos.groupMapReduce { case (k, _) => layerOf.getOrElse(k, "harness") }(_._2)(_ + _)
    Seq("clustering", "prefs", "engine", "spark", "check", "untraced", "harness").map(l =>
      Metric(s"trace.self_${l}_s", self.getOrElse(l, 0L) / 1e9, "s")) :+
      Metric("trace.run_s", tr.totalNanos("run") / 1e9, "s")
  }
}

package repro.perfbench

import java.io.File
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.locks.LockSupport

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.core._
import repro.spark.Dissemination
import repro.spark.Dissemination.{EmitRow, ObjEvent}

import scala.jdk.CollectionConverters._

/** The Spark layer: a workload's clusters run through
  * `Dissemination.streamingEmissions` in local-mode Spark, in the traced run
  * of `publication-window`. Its figures are per-layer metrics only: its
  * event latency moved by 30-70% between runs of the same seed, per JVM,
  * which no end-to-end bound of at most 25% can hold.
  *
  * A single generator thread adds one event at a time to a `MemoryStream`
  * at a fixed offered rate, open loop: it never waits on the query. The
  * first [[WarmupSeconds]] fill the window of [[Window]] objects and are not
  * measured. Each later event, which also expires one, is timed from its
  * due time to the end of the micro-batch whose `MemoryStream` offsets
  * cover it.
  */
object StreamBench {

  /** Offered load in events per second. On the seed code a micro-batch
    * costs about 250 ms plus 6 ms per event, so 30 events/s keeps batches
    * near 300 ms; at 50/s slower stretches of the machine grew a backlog.
    */
  val Rate = 30
  /** Open-loop seconds before measuring starts. Micro-batches keep getting
    * faster for about 30 batches after the query starts (JIT).
    */
  val WarmupSeconds = 10
  /** Window size: the warm-up fills it, so every measured event expires one. */
  val Window: Int = Rate * WarmupSeconds

  /** Objects sent in a run measuring `seconds`. */
  def objectsFor(seconds: Int): Int = Rate * (WarmupSeconds + seconds)

  /** What the sink saw: emitted (object, user) pairs and when each
    * micro-batch finished.
    */
  private final class Sink {
    val pairs = new ConcurrentLinkedQueue[java.lang.Long]()
    val batchEnd = new java.util.concurrent.ConcurrentHashMap[java.lang.Long, java.lang.Long]()
    val fn: (Dataset[EmitRow], Long) => Unit = { (ds, id) =>
      ds.collect().foreach(r => pairs.add(Engine.pack(r.ts, r.userId)))
      batchEnd.put(id, System.nanoTime())
    }
  }

  private def event(o: Obj) = ObjEvent(o.ts, o.attrs.toSeq)

  /** Stream `objs` through `clusters` for [[WarmupSeconds]] + `seconds`;
    * returns the tally against the local FTV-SW run on the same events, the
    * Spark metrics, and notes.
    */
  def run(clusters: Seq[Cluster], objs: IndexedSeq[Obj], seconds: Int, tr: Tracer,
          out: File): (Reference.Score, Seq[Metric], Seq[String]) = {
    val m = objectsFor(seconds)
    require(objs.size >= m, s"need $m objects, have ${objs.size}")
    val sent = objs.take(m)
    val slots = math.max(1, math.min(2, Runtime.getRuntime.availableProcessors))
    val sink = new Sink

    val t0s = System.nanoTime()
    val spark = tr.span(tr.id("spark.session")) {
      SparkSession.builder.master(s"local[$slots]").appName("perfbench")
        .config("spark.ui.enabled", "false")
        // One state partition per cluster key at most: each partition loads
        // and commits its state store on every micro-batch, keys or not.
        .config("spark.sql.shuffle.partitions", math.min(slots, clusters.size).toString)
        .config("spark.local.dir", new File(out, "spark-local").getPath)
        .config("spark.sql.warehouse.dir", new File(out, "spark-warehouse").getPath)
        .config("spark.sql.streaming.numRecentProgressUpdates", "100000")
        .getOrCreate()
    }
    val sessionNs = System.nanoTime() - t0s
    try {
      spark.sparkContext.setLogLevel("WARN")
      val t0q = System.nanoTime()
      val (source, query) = tr.span(tr.id("spark.query_start")) {
        import spark.implicits._
        implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
        val source = MemoryStream[ObjEvent]
        val query = Dissemination.streamingEmissions(spark, source.toDS(), clusters, Some(Window))
          .writeStream
          .option("checkpointLocation", new File(out, s"checkpoint-${ProcessHandle.current.pid}").getPath)
          .foreachBatch(sink.fn)
          .start()
        query.processAllAvailable()
        (source, query)
      }
      val queryNs = System.nanoTime() - t0q

      val sReplay = tr.open(tr.id("spark.replay"))
      val offsets = new Array[Long](m)
      val due = new Array[Long](m)
      var lateMax = 0L
      val t0 = System.nanoTime() + 1000000L
      val gen = new Thread(() => {
        var i = 0
        while (i < m) {
          val d = t0 + i * (1000000000L / Rate)
          var now = System.nanoTime()
          while (now < d) { LockSupport.parkNanos(d - now); now = System.nanoTime() }
          lateMax = math.max(lateMax, now - d)
          offsets(i) = source.addData(Seq(event(sent(i)))).json.toLong
          due(i) = d
          i += 1
        }
      }, "perfbench-generator")
      gen.start()
      gen.join()
      query.processAllAvailable()
      tr.close(sReplay)
      val progress = query.recentProgress.filter(_.numInputRows > 0).sortBy(_.batchId)
      query.stop()

      // Decision time of each event: the end of the first batch whose end
      // offset covers it.
      val batchEndOffset = progress.map(_.sources.head.endOffset.toLong)
      val batchEndNs = progress.map(p => Option(sink.batchEnd.get(p.batchId)).map(_.longValue).getOrElse(-1L))
      val decidedNs = offsets.map { o =>
        val b = batchEndOffset.indexWhere(_ >= o)
        if (b < 0) -1L else batchEndNs(b)
      }
      val measureFrom = t0 + WarmupSeconds * 1000000000L
      val measured = (0 until m).filter(i => due(i) >= measureFrom)
      val lat = measured.map(i => if (decidedNs(i) < 0) Long.MaxValue else decidedNs(i) - due(i)).toArray
      java.util.Arrays.sort(lat)
      val span = (measured.map(decidedNs).max - due(measured.head)) / 1e9

      // Check against the local FTV-SW run on the same clusters and events.
      val local = tr.span(tr.id("check.reference"))(FilterThenVerifySW.run(clusters, sent, Window))
      val expected = Reference.byArrival(local.emissions, sent)
      val decided = decidedNs.map(ns => if (ns >= 0) Set.empty[Int] else null)
      sink.pairs.asScala.foreach { p =>
        val idx = (Engine.unpackTs(p) - sent.head.ts).toInt
        if (decided(idx) != null) decided(idx) = decided(idx) + Engine.unpackUser(p)
      }
      val score = Reference.score(decided, Reference.Answers(expected, expected))

      // Micro-batch spans from query progress, on the System.nanoTime clock.
      val skew = System.currentTimeMillis() * 1000000L - System.nanoTime()
      progress.foreach { p =>
        val s = java.time.Instant.parse(p.timestamp).toEpochMilli * 1000000L - skew
        tr.add(tr.id("spark.batch"), sReplay, s, s + p.durationMs.get("triggerExecution").longValue * 1000000L)
      }

      val mb = progress.filter(_.sources.head.endOffset.toLong >= offsets(measured.head))
      def dur(k: String) = mb.map(p => Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)).toSeq
      val last = progress.last.stateOperators.headOption
      val metrics = Seq(
        Metric("spark.session_s", sessionNs / 1e9, "s"),
        Metric("spark.query_start_s", queryNs / 1e9, "s"),
        Metric("spark.batches", mb.length.toDouble, "count"),
        Metric("spark.batch_ms_p50", Stats.median(dur("triggerExecution")), "ms"),
        Metric("spark.add_batch_ms_p50", Stats.median(dur("addBatch")), "ms"),
        Metric("spark.rows_per_batch", Stats.median(mb.map(_.numInputRows.toDouble).toSeq), "count"),
        Metric("spark.state_rows", last.map(_.numRowsTotal.toDouble).getOrElse(0.0), "count"),
        Metric("spark.state_bytes", last.map(_.memoryUsedBytes.toDouble).getOrElse(0.0), "bytes"),
        Metric("spark.event_p50_ms", Stats.percentile(lat, 0.50) / 1e6, "ms"),
        Metric("spark.event_p99_ms", Stats.percentile(lat, 0.99) / 1e6, "ms"),
        Metric("spark.throughput_obj_s", measured.size / span, "1/s"),
        Metric("gen.late_ms_max", lateMax / 1e6, "ms"))
      val notes = Seq(
        f"spark stream: window=$Window rate=$Rate/s events=$m batches=${progress.length} " +
          f"comparisons=${local.comparisons} wrong=${score.wrong}",
        Stats.latencyLine("spark event latency", lat, 1e6, "ms"),
        f"generator ran at most ${lateMax / 1e6}%.3f ms late")
      (score, metrics, notes)
    } finally spark.stop()
  }

  /** The Spark metrics of workloads whose traced run does not stream. */
  val none: Seq[Metric] = Seq(
    Metric("spark.session_s", 0, "s"), Metric("spark.query_start_s", 0, "s"),
    Metric("spark.batches", 0, "count"), Metric("spark.batch_ms_p50", 0, "ms"),
    Metric("spark.add_batch_ms_p50", 0, "ms"), Metric("spark.rows_per_batch", 0, "count"),
    Metric("spark.state_rows", 0, "count"), Metric("spark.state_bytes", 0, "bytes"),
    Metric("spark.event_p50_ms", 0, "ms"), Metric("spark.event_p99_ms", 0, "ms"),
    Metric("spark.throughput_obj_s", 0, "1/s"), Metric("gen.late_ms_max", 0, "ms"))
}

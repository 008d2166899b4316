package repro.perfbench

import repro.core._

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.control.NonFatal

/** Engine counters of one traced replay. */
final class EngineStats {
  var expiryComparisons, arrivalBusyNs, expiryBusyNs = 0L
  var pairs, passedPairs, promotions = 0L
  /** Latency and `onExpiry` time of the arrivals at or above the replay's p99. */
  var tailNs, tailExpiryNs = 0L
  var puMax, pcMax, pbMax = 0

  /** Add `o`'s counts and take the larger gauges. */
  def +=(o: EngineStats): EngineStats = {
    expiryComparisons += o.expiryComparisons; arrivalBusyNs += o.arrivalBusyNs; expiryBusyNs += o.expiryBusyNs
    pairs += o.pairs; passedPairs += o.passedPairs; promotions += o.promotions
    tailNs += o.tailNs; tailExpiryNs += o.tailExpiryNs
    puMax = math.max(puMax, o.puMax); pcMax = math.max(pcMax, o.pcMax); pbMax = math.max(pbMax, o.pbMax)
    this
  }
}

/** One replay of one stream through a fresh engine state. `decided(i)` is
  * `C_o` of arrival `i` with its late promotions, `null` if the arrival
  * threw.
  */
final class Pass(val stream: Int, val traced: Boolean, val wallNs: Long, var latencyNs: Array[Long],
                 var decided: Array[Set[Int]], val comparisons: Long, val stats: EngineStats,
                 var engine: Engine)

/** The workloads: closed loop in one thread, each arrival's `C_o` decided
  * before the next arrives.
  */
object LocalBench {

  /** Set-ups per run; `setup_s` is their median. Set-ups cheaper than
    * this budget repeat until it is spent, so a set-up of microseconds
    * (Baseline) reports a steady median too.
    */
  val SetupRepeats = 3
  val SetupBudgetNs = 500000000L

  def replay(spec: Spec, users: Seq[UserPrefs], clusters: Seq[Cluster], objs: IndexedSeq[Obj],
             stream: Int, tr: Tracer): Pass = {
    val engine = Engine(spec, users, clusters, new OpCounter)
    val n = objs.length
    val parts = engine.parts
    val w = spec.window.getOrElse(Int.MaxValue)
    val latency = new Array[Long](n)
    val decided = new Array[Set[Int]](n)
    val late = new LongBuf
    val stats = new EngineStats
    val expiryNs = if (tr != null) new Array[Long](n) else null
    val (sArrival, sExpiry, sOnArrival) =
      if (tr != null) (tr.id("arrival"), tr.id("engine.expiry"), tr.id("engine.arrival")) else (0, 0, 0)
    var firstError: Throwable = null
    val t0 = System.nanoTime()
    var i = 0
    while (i < n) {
      val o = objs(i)
      val a0 = System.nanoTime()
      try {
        var targets = Set.empty[Int]
        if (tr == null) {
          if (i >= w) { val out = objs(i - w).ts; var p = 0; while (p < parts) { engine.expire(p, out, late); p += 1 } }
          var p = 0
          while (p < parts) { targets = targets ++ engine.arrive(p, o); p += 1 }
        } else {
          val sa = tr.open(sArrival)
          if (i >= w) {
            val out = objs(i - w).ts
            val lateBefore = late.size
            var p = 0
            while (p < parts) {
              val s = tr.open(sExpiry)
              val c0 = engine.counter.comparisons
              val e0 = System.nanoTime()
              engine.expire(p, out, late)
              expiryNs(i) += System.nanoTime() - e0
              stats.expiryComparisons += engine.counter.comparisons - c0
              tr.close(s)
              p += 1
            }
            stats.expiryBusyNs += expiryNs(i)
            stats.promotions += late.size - lateBefore
          }
          var p = 0
          while (p < parts) {
            val s = tr.open(sOnArrival)
            val e0 = System.nanoTime()
            targets = targets ++ engine.arrive(p, o)
            stats.arrivalBusyNs += System.nanoTime() - e0
            tr.close(s)
            if (engine.passed(p, o.ts)) stats.passedPairs += 1
            p += 1
          }
          stats.pairs += parts
          stats.puMax = math.max(stats.puMax, engine.pu)
          stats.pcMax = math.max(stats.pcMax, engine.pc)
          stats.pbMax = math.max(stats.pbMax, engine.pb)
          tr.close(sa)
        }
        decided(i) = targets
      } catch {
        case NonFatal(e) => if (firstError == null) firstError = e
      }
      latency(i) = System.nanoTime() - a0
      i += 1
    }
    val wall = System.nanoTime() - t0
    if (firstError != null) Console.err.println(s"arrival failed: $firstError")
    if (tr != null) {
      val sorted = latency.clone(); java.util.Arrays.sort(sorted)
      val p99 = Stats.percentile(sorted, 0.99)
      var j = 0
      while (j < n) {
        if (latency(j) >= p99) { stats.tailNs += latency(j); stats.tailExpiryNs += expiryNs(j) }
        j += 1
      }
    }
    val first = objs.head.ts
    var k = 0
    while (k < late.size) {
      val idx = (Engine.unpackTs(late(k)) - first).toInt
      if (decided(idx) != null) decided(idx) = decided(idx) + Engine.unpackUser(late(k))
      k += 1
    }
    new Pass(stream, tr != null, wall, latency, decided, engine.counter.comparisons, stats, engine)
  }

  /** Run `jobs` on at most `nproc` threads and wait for all of them. */
  def parallel[A](jobs: Seq[() => A]): Seq[A] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(
      math.max(1, math.min(jobs.size, Runtime.getRuntime.availableProcessors)))
    try {
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
      Await.result(Future.sequence(jobs.map(j => Future(j()))), Duration.Inf)
    } finally pool.shutdown()
  }

  def run(spec: Spec, seed: Long, seconds: Int, trace: Boolean, out: java.io.File): Result = {
    val inputs = Inputs(spec, Some(seed))
    val users = inputs.users
    val streams = inputs.streams
    val tr = if (trace) new Tracer else null
    val sRun = if (tr != null) tr.open(tr.id("run")) else -1

    val setups = scala.collection.mutable.ArrayBuffer.empty[(Seq[Cluster], SetupTimes)]
    val setupStart = System.nanoTime()
    while (setups.size < SetupRepeats || System.nanoTime() - setupStart < SetupBudgetNs)
      setups += Setup.run(spec, users, tr)
    val clusters = setups.last._1

    // Every replay is compared with the first replay of its stream, and
    // those with the reference answers after measuring: computing the
    // references first would run other code through the JIT ahead of the
    // measured replays.
    val first = new Array[Pass](streams.size)
    val sameAsFirst = new Array[Long](streams.size)
    val diverged = scala.collection.mutable.ArrayBuffer.empty[Pass]
    var repeatable = true
    def check(p: Pass): Unit =
      if (first(p.stream) == null) first(p.stream) = p
      else {
        if (p.comparisons != first(p.stream).comparisons) repeatable = false
        if (java.util.Arrays.equals(p.decided.asInstanceOf[Array[AnyRef]],
              first(p.stream).decided.asInstanceOf[Array[AnyRef]])) sameAsFirst(p.stream) += 1
        else { diverged += p; repeatable = false }
      }

    // Warm-up: one replay of every stream (traced too in a traced run),
    // checked, not timed. The first replay in a JVM is the slowest.
    val sWarm = if (tr != null) tr.open(tr.id("replay.warmup")) else -1
    streams.indices.foreach { s =>
      check(replay(spec, users, clusters, streams(s), s, null))
      first(s).engine = null
      if (tr != null) check(replay(spec, users, clusters, streams(s), s, tr))
    }
    if (tr != null) tr.close(sWarm)

    // Whole cycles over the streams until `seconds` have passed, so every
    // stream weighs the same. A traced run replays each stream untraced and
    // then traced, to measure the tracing overhead pass by pass.
    val perStream = if (trace) 2 else 1
    val cycle = streams.size * perStream
    val jvm0 = Jvm.snapshot()
    val sReplay = if (tr != null) tr.open(tr.id("replay")) else -1
    val passes = scala.collection.mutable.ArrayBuffer.empty[Pass]
    val deadline = System.nanoTime() + seconds * 1000000000L
    var k = 0
    while (System.nanoTime() < deadline || k % cycle != 0) {
      val s = (k / perStream) % streams.size
      val traced = trace && k % 2 == 1
      val sPass = if (tr != null) tr.open(tr.id(if (traced) "replay.traced" else "replay.untraced")) else -1
      val p = replay(spec, users, clusters, streams(s), s, if (traced) tr else null)
      if (tr != null) tr.close(sPass)
      check(p)
      // Keep the timings; only the last cycle keeps its states, for live_heap_mb.
      if ((first(s) ne p) && !diverged.contains(p)) p.decided = null
      if (passes.size >= cycle) passes(passes.size - cycle).engine = null
      passes += p
      k += 1
    }
    if (tr != null) tr.close(sReplay)
    val jvm1 = Jvm.snapshot()
    val measured = passes.filter(!_.traced).toSeq
    // Medians over replays, so that a slow stretch of a few replays moves
    // them less: throughput from each stream's median replay time, latency
    // percentiles as the median of each replay's own.
    val throughput = streams.map(_.size.toDouble).sum /
      streams.indices.map(s => Stats.median(measured.filter(_.stream == s).map(_.wallNs / 1e9))).sum
    def perPass(q: Double) = Stats.median(measured.map { p =>
      val a = p.latencyNs.clone(); java.util.Arrays.sort(a); Stats.percentile(a, q)
    })
    val (p50, p99) = (perPass(0.50), perPass(0.99))
    val latencyLine = Stats.latencyLine("arrival latency (all replays pooled)", Stats.sorted(measured.map(_.latencyNs)))
    // The heap retained by one engine state: the heap in use after a full
    // GC with the last cycle's states live, less the same once they are
    // dropped, per state. Read before the reference answers exist.
    val kept = passes.takeRight(cycle)
    val heapWith = Jvm.liveHeapBytes()
    kept.foreach(_.engine = null)
    val heapMb = (heapWith - Jvm.liveHeapBytes()) / 1048576.0 / cycle

    val sRef = if (tr != null) tr.open(tr.id("check.reference")) else -1
    val answers = parallel(streams.map(objs => () => Reference.answers(spec, users, clusters, objs))).toIndexedSeq
    // The filter's share of the comparisons: `P_U` evolves on its own, so a
    // bare frontier on each cluster's filter relations makes the same
    // comparisons as the filter inside `FilterThenVerify`. Append-only
    // FTV only: in FTV-SW the filter's work is interleaved with the buffer's.
    val filterComparisons =
      if (!trace || !spec.filter || spec.window.nonEmpty) 0L
      else parallel(streams.map(objs => () => {
        val c = new OpCounter
        clusters.foreach { cl => val f = new Frontier(cl.filterRels, c); objs.foreach(f.update) }
        c.comparisons
      })).sum
    if (tr != null) tr.close(sRef)
    val firstScores = first.map(p => Reference.score(p.decided, answers(p.stream)))
    val quality = firstScores.reduce(_ + _)
    val wrong = streams.indices.map(s => firstScores(s).wrong * (1 + sameAsFirst(s))).sum +
      diverged.map(p => Reference.score(p.decided, answers(p.stream)).wrong).sum
    val attempted = streams.indices.map(s => firstScores(s).attempted * (1 + sameAsFirst(s))).sum +
      diverged.map(_.decided.length.toLong).sum
    val firstComparisons = first.map(_.comparisons)

    // The Spark layer, after everything above is measured.
    val (sparkScore, sparkMetrics, sparkNotes) =
      if (trace && spec.spark) StreamBench.run(clusters, streams(0), seconds, tr, out)
      else (Reference.NoScore, StreamBench.none, Nil)
    if (tr != null) tr.close(sRun)

    val setupS = Stats.median(setups.map(_._2.total / 1e9).toSeq)

    val endToEnd = Seq(
      Metric("throughput_obj_s", throughput, "1/s"),
      Metric("arrival_p50_us", p50 / 1e3, "us"),
      Metric("arrival_p99_us", p99 / 1e3, "us"),
      Metric("setup_s", setupS, "s"),
      Metric("live_heap_mb", heapMb, "MB"),
      Metric("precision", quality.precision, "ratio"),
      Metric("recall", quality.recall, "ratio"))

    val notes = Seq(
      f"workload=${spec.name} seed=$seed users=${users.size} clusters=${clusters.size} streams=${streams.size} " +
        f"n=${spec.n} passes=${measured.size} comparisons=${firstComparisons.sum}",
      latencyLine,
      "replay seconds by stream: " + streams.indices.map(s =>
        measured.filter(_.stream == s).map(p => f"${p.wallNs / 1e9}%.3f").mkString(" ")).mkString(" | "))

    val perLayer =
      if (!trace) Nil
      else {
        val tracedPasses = passes.filter(_.traced).toSeq
        val oneEach = streams.indices.map(s => tracedPasses.find(_.stream == s).get)
        val st = oneEach.map(_.stats)
        val cmp = oneEach.map(_.comparisons).sum
        val overhead = Stats.median(streams.indices.map { s =>
          val t = tracedPasses.filter(_.stream == s).map(_.wallNs.toDouble)
          val u = measured.filter(_.stream == s).map(_.wallNs.toDouble)
          (t.sum / t.size) / (u.sum / u.size) - 1
        })
        Layers.setup(setups.map(_._2).toSeq, clusters) ++
          Layers.engine(firstComparisons.sum, filterComparisons, st.foldLeft(new EngineStats)(_ += _), cmp) ++
          Jvm.metrics(jvm0, jvm1, passes.size) ++
          sparkMetrics ++
          Seq(Metric("trace.overhead_pct", overhead * 100, "%")) ++
          Layers.selfTimes(tr)
      }
    Result(attempted + sparkScore.attempted, wrong + sparkScore.wrong,
      wrong + sparkScore.wrong == 0 && repeatable, endToEnd, perLayer, notes ++ sparkNotes, tr)
  }
}

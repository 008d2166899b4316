package repro.perfbench

import repro.core._
import repro.data.PrefSim
import repro.exp.Experiments

/** One benchmark workload: which dataset and algorithm, and at what scale.
  *
  * @param groups   latent taste groups of the EXPERIMENTS.md population whose
  *                 users take part (`None`: all 200 users)
  * @param n        objects per stream
  * @param window   sliding-window size `W`, or append-only
  * @param filter   cluster the users and filter against `P_aU` (FTV-Approx);
  *                 otherwise Baseline's independent per-user frontiers
  * @param streams  distinct object streams replayed in one run
  * @param spark    the traced run also streams the clusters through Spark
  */
final case class Spec(name: String, dataset: String, groups: Option[Set[Int]], n: Int,
                      window: Option[Int], filter: Boolean, streams: Int, spark: Boolean = false)

object Spec {
  /** Branch cut of every clustered workload. */
  val H = 0.55

  /** Latent groups kept: two groups of different supergroups. */
  val Groups: Option[Set[Int]] = Some(Set(0, 2))

  /** Benchmark scale. The dendrogram costs about 60 s at 200 users and
    * grows with the square of the population, so the benchmark keeps two of
    * the EXPERIMENTS.md population's latent groups: the same users with the
    * same relations, 34 (movie) or 40 (publication) of them. The groups
    * belong to different supergroups, as most pairs of groups of the full
    * population do, and the cut gives one cluster per group of 17 or 20
    * members, the EXPERIMENTS.md size. Below about 11 members the
    * `Threshold2 = 0.9` filter admits only unanimous tuples and FTV-Approx
    * turns into FTV-Exact. `n` is the EXPERIMENTS.md length. The work of one object
    * stream differs from another's by up to a fifth, so each run replays
    * several.
    */
  def bench(name: String): Option[Spec] = name match {
    case "movie-append"       => Some(Spec(name, "movie", Groups, 20000, None, filter = true, streams = 4))
    case "publication-window" => Some(Spec(name, "publication", Groups, 8000, Some(3200), filter = true, streams = 4, spark = true))
    case "movie-baseline"     => Some(Spec(name, "movie", Groups, 20000, None, filter = false, streams = 4))
    case _                    => None
  }

  val names: Seq[String] = Seq("movie-append", "publication-window", "movie-baseline")

  /** EXPERIMENTS.md scale: all 200 users and one stream. */
  def experiments(name: String): Spec = bench(name).get.copy(groups = None, streams = 1)
}

/** Generated inputs: the user population and the object streams. */
final case class Inputs(users: Seq[UserPrefs], streams: IndexedSeq[IndexedSeq[Obj]])

object Inputs {
  /** The population is the generator's default one (200 users, default
    * seed), restricted to `spec.groups`. A per-seed population moved the work
    * per arrival by up to a third between seeds (publication), which no run
    * length averages out. The benchmark seed picks the object streams;
    * `None` gives the generator's default stream.
    */
  def apply(spec: Spec, seed: Option[Long]): Inputs = {
    val cfg = if (spec.dataset == "movie") PrefSim.movieConfig() else PrefSim.publicationConfig()
    val streams = seed match {
      case None    => IndexedSeq(PrefSim.objects(cfg, spec.n).toIndexedSeq)
      case Some(s) => (0 until spec.streams).map(i =>
        PrefSim.objects(cfg, spec.n, seedOffset = 1000L * s + i + 1).toIndexedSeq)
    }
    // `PrefSim.users` puts user `u` in latent group `u % nGroups`.
    val users = PrefSim.users(cfg)
    Inputs(spec.groups.fold(users)(g => users.filter(u => g(u.userId % cfg.nGroups))), streams)
  }
}

/** Timings of one set-up, in nanoseconds. */
final case class SetupTimes(dendrogram: Long, cut: Long, filterRels: Long, init: Long, total: Long)

object Setup {
  private def timed[A](tr: Tracer, span: String)(body: => A): (A, Long) = {
    val s = if (tr != null) tr.open(tr.id(span)) else -1
    val t0 = System.nanoTime()
    val a = try body finally if (tr != null) tr.close(s)
    (a, System.nanoTime() - t0)
  }

  /** Clusters from public core calls: `Clustering.dendrogram`, then
    * `Dendrogram.cut`, then Alg. 3 per cluster with `threshold1For` and
    * `Threshold2` (the composition `Experiments.approxClustersAt` uses).
    * Then one engine state is built from them. Baseline has no clusters.
    */
  def run(spec: Spec, users: Seq[UserPrefs], tr: Tracer): (Seq[Cluster], SetupTimes) = {
    val t0 = System.nanoTime()
    val top = if (tr != null) tr.open(tr.id("setup")) else -1
    var dendroNs, cutNs, relsNs = 0L
    val clusters =
      if (!spec.filter) Nil
      else {
        val (dendro, d) = timed(tr, "clustering.dendrogram")(Clustering.dendrogram(users, Clustering.SimVecWJ))
        val (cut, c) = timed(tr, "clustering.cut")(dendro.cut(Spec.H))
        dendroNs = d; cutNs = c
        val byId = users.map(u => u.userId -> u).toMap
        cut.zipWithIndex.map { case (ids, cid) =>
          val members = ids.toSeq.sorted.map(byId)
          val (rels, r) = timed(tr, "prefs.filter_rels") {
            Array.tabulate(members.head.rels.length) { d =>
              ApproxPrefs.getApproxPreferenceTuples(members.map(_.rels(d)),
                Experiments.threshold1For(members.head.rels(d).domainSize), Experiments.Threshold2)
            }
          }
          relsNs += r
          Cluster(cid, rels, members)
        }
      }
    val (_, initNs) = timed(tr, "engine.init")(Engine(spec, users, clusters, new OpCounter))
    if (tr != null) tr.close(top)
    (clusters, SetupTimes(dendroNs, cutNs, relsNs, initNs, System.nanoTime() - t0))
  }
}

/** The per-arrival state of one algorithm, driven from the benchmark so
  * that each cluster's calls can be timed on their own. `part` indexes the
  * clusters (Baseline has one part holding every user).
  */
sealed abstract class Engine(val counter: OpCounter) {
  def parts: Int
  /** `onExpiry` of `part`; late promotions are appended to `late` packed by [[Engine.pack]]. */
  def expire(part: Int, outTs: Long, late: LongBuf): Unit
  /** `onArrival` of `part`: its members in `C_o`. */
  def arrive(part: Int, o: Obj): Set[Int]
  /** Did the last arrival reach member verification in `part`? */
  def passed(part: Int, ts: Long): Boolean
  /** Σ|P_U|, Σ|P_c| and Σ|PB_U| now. */
  def pu: Int
  def pc: Int
  def pb: Int
}

object Engine {
  def pack(ts: Long, uid: Int): Long = (ts << 20) | uid
  def unpackTs(p: Long): Long = p >>> 20
  def unpackUser(p: Long): Int = (p & 0xFFFFF).toInt

  def apply(spec: Spec, users: Seq[UserPrefs], clusters: Seq[Cluster], counter: OpCounter): Engine =
    if (!spec.filter) new BaselineEngine(users, counter)
    else if (spec.window.isEmpty) new FtvEngine(clusters, counter)
    else new FtvSwEngine(clusters, counter)

  final class BaselineEngine(users: Seq[UserPrefs], counter: OpCounter) extends Engine(counter) {
    private val st = new Baseline.State(users, counter)
    def parts = 1
    def expire(part: Int, outTs: Long, late: LongBuf): Unit =
      throw new UnsupportedOperationException("Baseline here is append-only")
    def arrive(part: Int, o: Obj): Set[Int] = st.onArrival(o)
    def passed(part: Int, ts: Long) = true
    def pu = 0
    def pc: Int = st.frontiers.valuesIterator.map(_.sizeNow).sum
    def pb = 0
  }

  final class FtvEngine(clusters: Seq[Cluster], counter: OpCounter) extends Engine(counter) {
    private val st = clusters.map(new FilterThenVerify.ClusterState(_, counter)).toArray
    def parts: Int = st.length
    def expire(part: Int, outTs: Long, late: LongBuf): Unit =
      throw new UnsupportedOperationException("FilterThenVerify is append-only")
    def arrive(part: Int, o: Obj): Set[Int] = st(part).onArrival(o)
    def passed(part: Int, ts: Long): Boolean = st(part).filterFrontier.contains(ts)
    def pu: Int = st.iterator.map(_.filterFrontier.sizeNow).sum
    def pc: Int = st.iterator.map(_.userFrontiers.valuesIterator.map(_.sizeNow).sum).sum
    def pb = 0
  }

  final class FtvSwEngine(clusters: Seq[Cluster], counter: OpCounter) extends Engine(counter) {
    private val st = clusters.map(new FilterThenVerifySW.ClusterState(_, counter)).toArray
    def parts: Int = st.length
    def expire(part: Int, outTs: Long, late: LongBuf): Unit =
      st(part).onExpiry(outTs).foreach { case (uid, objs) => objs.foreach(o => late += pack(o.ts, uid)) }
    def arrive(part: Int, o: Obj): Set[Int] = st(part).onArrival(o)
    def passed(part: Int, ts: Long): Boolean = st(part).filterFrontier.contains(ts)
    def pu: Int = st.iterator.map(_.filterFrontier.sizeNow).sum
    def pc: Int = st.iterator.map(_.userFrontiers.valuesIterator.map(_.sizeNow).sum).sum
    def pb: Int = st.iterator.map(_.buffer.size).sum
  }
}

/** Growable array of longs. */
final class LongBuf {
  private var a = new Array[Long](64)
  var size = 0
  def +=(x: Long): Unit = {
    if (size == a.length) a = java.util.Arrays.copyOf(a, size * 2)
    a(size) = x; size += 1
  }
  def apply(i: Int): Long = a(i)
  def toArray: Array[Long] = java.util.Arrays.copyOf(a, size)
}

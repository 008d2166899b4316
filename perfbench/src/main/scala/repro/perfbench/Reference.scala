package repro.perfbench

import repro.core._

import scala.collection.mutable

/** Reference answers, computed outside every timed region.
  *
  * Append-only answers come from plain list frontiers written here from
  * the definitions, with their own dominance test, so they share no code
  * with `core.Frontier` or `core.Dominance`. Sliding-window answers come
  * from the repository's batch replay `FilterThenVerifySW.run`: on the same
  * clusters for the expected answer, and with each cluster's exact common
  * relation as the filter for the exact one (FTV-Exact equals Baseline,
  * Thm. 2; the repository's tests check both against the windowed brute
  * force of Defs. 9-10). BaselineSW itself would cost more than a run.
  */
object Reference {

  /** `a ≻ b` (Def. 2): `a` is at least as good on every attribute and
    * strictly better on one; an incomparable value rules dominance out.
    */
  def dominates(rels: Array[PrefRelation], a: Array[Int], b: Array[Int]): Boolean = {
    var strict = false
    var d = 0
    while (d < rels.length) {
      if (a(d) != b(d)) {
        if (rels(d).prefers(a(d), b(d))) strict = true else return false
      }
      d += 1
    }
    strict
  }

  /** The Pareto frontier of everything offered so far. Evicting what a
    * newcomer dominates loses no answer: by transitivity an earlier
    * dominator implies one still on the frontier.
    */
  private final class Skyline(rels: Array[PrefRelation]) {
    val items = mutable.ArrayBuffer.empty[Obj]

    /** Is `o` undominated? If so it joins and evicts what it dominates,
      * whose timestamps are added to `evicted`.
      */
    def offer(o: Obj, evicted: mutable.Set[Long]): Boolean =
      if (items.exists(m => dominates(rels, m.attrs, o.attrs))) false
      else {
        items.filterInPlace { m =>
          val gone = dominates(rels, o.attrs, m.attrs)
          if (gone) evicted += m.ts
          !gone
        }
        items += o
        true
      }
  }

  /** Def. 3: user `c` is in `C_o` iff no earlier object `≻_c`-dominates `o`. */
  def exact(users: Seq[UserPrefs], objs: IndexedSeq[Obj]): Array[Set[Int]] = {
    val sky = users.map(u => (u.userId, new Skyline(u.rels))).toArray
    val sink = mutable.Set.empty[Long]
    objs.map { o =>
      sink.clear()
      sky.iterator.collect { case (uid, s) if s.offer(o, sink) => uid }.toSet
    }.toArray
  }

  /** Alg. 2 over the given filter relations: `o` reaches member `c` iff it
    * enters the cluster's filter frontier and `c`'s own frontier; objects
    * the filter frontier evicts leave every member frontier too.
    */
  def filterThenVerify(clusters: Seq[Cluster], objs: IndexedSeq[Obj]): Array[Set[Int]] = {
    val st = clusters.map(c => (new Skyline(c.filterRels),
      c.members.map(u => (u.userId, new Skyline(u.rels))).toArray)).toArray
    val evicted = mutable.Set.empty[Long]
    val sink = mutable.Set.empty[Long]
    objs.map { o =>
      val out = Set.newBuilder[Int]
      st.foreach { case (filter, members) =>
        evicted.clear()
        if (filter.offer(o, evicted)) {
          if (evicted.nonEmpty) members.foreach(_._2.items.filterInPlace(m => !evicted(m.ts)))
          members.foreach { case (uid, s) => if (s.offer(o, sink)) out += uid }
        }
      }
      out.result()
    }.toArray
  }

  def byArrival(emissions: Seq[Emission], objs: IndexedSeq[Obj]): Array[Set[Int]] = {
    val m = emissions.iterator.map(e => e.ts -> e.users).toMap
    objs.map(o => m.getOrElse(o.ts, Set.empty[Int])).toArray
  }

  /** The answer the workload's algorithm must give (`expected`) and the
    * exact answer precision and recall are taken against, per arrival,
    * late promotions included.
    */
  final case class Answers(expected: Array[Set[Int]], exact: Array[Set[Int]])

  def answers(spec: Spec, users: Seq[UserPrefs], clusters: Seq[Cluster],
              objs: IndexedSeq[Obj]): Answers = spec.window match {
    case Some(w) =>
      val exactClusters = clusters.map(c => c.copy(filterRels = Clustering.commonRels(c.members)))
      Answers(byArrival(FilterThenVerifySW.run(clusters, objs, w).emissions, objs),
              byArrival(FilterThenVerifySW.run(exactClusters, objs, w).emissions, objs))
    case None if spec.filter => Answers(filterThenVerify(clusters, objs), exact(users, objs))
    case None => val e = exact(users, objs); Answers(e, e)
  }

  /** Tally of one checked replay: arrivals, wrong or undecided arrivals,
    * and the (object, user) pair counts behind Eqs. 7-8.
    */
  final case class Score(attempted: Long, wrong: Long, truePairs: Long, emittedPairs: Long, exactPairs: Long) {
    def +(o: Score): Score = Score(attempted + o.attempted, wrong + o.wrong,
      truePairs + o.truePairs, emittedPairs + o.emittedPairs, exactPairs + o.exactPairs)
    def precision: Double = if (emittedPairs == 0) 1.0 else truePairs.toDouble / emittedPairs
    def recall: Double = if (exactPairs == 0) 1.0 else truePairs.toDouble / exactPairs
  }
  val NoScore: Score = Score(0, 0, 0, 0, 0)

  /** Score decided answers (`null` = undecided) against `ans`. */
  def score(decided: Array[Set[Int]], ans: Answers): Score = {
    var wrong, tp, em, ex = 0L
    var i = 0
    while (i < decided.length) {
      val d = decided(i)
      if (d == null || d != ans.expected(i)) wrong += 1
      if (d != null) { tp += d.count(ans.exact(i)); em += d.size }
      ex += ans.exact(i).size
      i += 1
    }
    Score(decided.length, wrong, tp, em, ex)
  }
}

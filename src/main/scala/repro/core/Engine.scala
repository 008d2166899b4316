package repro.core

import scala.collection.mutable

/** A user with integer id and one preference relation per attribute. */
final case class UserPrefs(userId: Int, rels: Array[PrefRelation]) extends Serializable

object UserPrefs {
  /** Rejects a user whose attribute count or domain sizes differ from
    * `rels` (`of` names their owner), naming the user and the attribute.
    */
  def requireDomains(users: Seq[UserPrefs], rels: Array[PrefRelation], of: => String): Unit = {
    def sizes(r: Array[PrefRelation]) = r.map(_.domainSize).mkString("(", ", ", ")")
    users.foreach { u =>
      var d = 0
      while (d < (u.rels.length max rels.length)) {
        if (d >= u.rels.length || d >= rels.length || u.rels(d).domainSize != rels(d).domainSize)
          throw new IllegalArgumentException(
            s"requirement failed: user ${u.userId}, attribute $d: domain sizes ${sizes(u.rels)}, $of has ${sizes(rels)}")
        d += 1
      }
    }
  }
}

/** Dissemination decision for object `ts`: its target users `C_o`. Under a
  * sliding window, users the object is promoted for later (mend on expiry)
  * join `C_o` too, mirroring `C_o ← C_o ∪ {c}` in Procedure
  * mendParetoFrontierSW.
  */
final case class Emission(ts: Long, users: Set[Int]) extends Serializable

/** A cluster of users sharing computation (Sec. IV / VI): `filterRels` is
  * the virtual user's relation vector — the exact common preference
  * relation `≻_U` (Def. 5) for FilterThenVerifyExact, or the approximate
  * common relation `≻_aU` (Def. 8) for FilterThenVerifyApprox.
  */
final case class Cluster(clusterId: Int,
                         filterRels: Array[PrefRelation],
                         members: Seq[UserPrefs]) extends Serializable

/** Outcome of replaying a whole object stream: one emission per object in
  * arrival order, the final per-user Pareto frontiers (object ids), the
  * periodic per-user frontier snapshots asked for (used for sliding-window
  * efficacy, Table XII), and the work done.
  */
final case class RunResult(emissions: Seq[Emission],
                           frontiers: Map[Int, Set[Long]],
                           snapshots: Seq[Map[Int, Set[Long]]],
                           comparisons: Long,
                           wallNanos: Long) extends Serializable

/** One maintained frontier `P` and, when windowed, its Pareto frontier
  * buffer `PB` (Def. 10): the alive objects not dominated by any following
  * alive object. Every arrival enters the buffer (it has no followers yet);
  * buffer members dominated by a later arrival are discarded for good
  * (Thm. 5), and the frontier is always the set of `PB` members no other
  * alive object dominates. A level is all of a Baseline user's state
  * (`P_c`, `PB_c`; Algs. 1/4) and a cluster's filter level (`P_U`, `PB_U`;
  * Algs. 2/5). The state that builds a level chooses the store of `P`;
  * `PB` is a down-set store ([[Frontier.newBuffer]]).
  */
final class Level(val frontier: Frontier, windowed: Boolean) extends Serializable {

  /** `PB` in arrival order; never built when append-only. */
  lazy val buffer: Frontier = frontier.newBuffer

  /** `P`'s size, under the name the `perfbench/` harness reads. */
  def sizeNow: Int = frontier.size
  def contains(ts: Long): Boolean = frontier.contains(ts)
  def ids: Set[Long] = frontier.ids

  /** Admit `o` into `P`; when windowed, `refreshParetoBufferSW` as well:
    * `o` joins `PB` and evicts the buffer members it dominates.
    */
  def arrive(o: Obj): UpdateResult = {
    val res = frontier.admit(o, windowed)
    if (windowed) {
      buffer.evictDominatedBy(o)
      buffer.insert(o)
    }
    res
  }

  /** Count-based expiry of `outTs` (Sec. VII): it leaves `PB` and, if it
    * was in `P`, `mendParetoFrontierSW` promotes the buffer members it
    * dominated that the rest of `P` does not. Candidates go one at a time
    * in arrival order, each checked against a frontier that already holds
    * the earlier promotions. Returns the promoted objects, or `None` if
    * `outTs` was not in `P`.
    */
  def expire(outTs: Long): Option[Seq[Obj]] = {
    buffer.remove(outTs)
    frontier.take(outTs).map(frontier.mendFromBuffer(_, buffer))
  }
}

/** The per-arrival state the replay loop drives: Baseline's users, or one
  * FilterThenVerify cluster. `onArrival` returns the users for whom the
  * object is Pareto-optimal now; `onExpiry` the objects promoted per user.
  */
sealed abstract class EngineState extends Serializable {
  /** Whether the state runs the windowed algorithms (Algs. 4/5), with
    * Pareto buffers and a mend on expiry; [[Replay]] drives it only with a
    * window.
    */
  def windowed: Boolean
  def userFrontiers: Map[Int, Frontier]
  def onArrival(o: Obj): Set[Int]
  def onExpiry(outTs: Long): Map[Int, Seq[Obj]]
  def frontierIds: Map[Int, Set[Long]] = userFrontiers.map { case (u, f) => u -> f.ids }

  /** Rejects an arrival without one value per attribute of `rels`, each
    * inside that attribute's domain: a store would read a value outside it
    * from another attribute's slot.
    */
  protected final def requireFits(o: Obj, rels: Array[PrefRelation]): Unit = {
    // Thrown, not `require`d: a by-name message would allocate a closure per arrival.
    if (o.attrs.length != rels.length)
      throw new IllegalArgumentException(
        s"requirement failed: object ${o.ts} has ${o.attrs.length} attributes, the preferences ${rels.length}")
    var d = 0
    while (d < rels.length) {
      val v = o.attrs(d)
      if (v < 0 || v >= rels(d).domainSize)
        throw new IllegalArgumentException(
          s"requirement failed: object ${o.ts}: value $v of attribute $d is outside its domain 0 until ${rels(d).domainSize}")
      d += 1
    }
  }

  /** Rejects, at construction, two users with one id (`ids` are the users'
    * ids in input order), and a user whose attribute count or domain sizes
    * differ from `rels`, the relations [[requireFits]] checks arrivals
    * against (`of` names their owner). The first would share the other's
    * frontier; for the second, an arrival that fits `rels` could read
    * another attribute's slot.
    */
  protected final def requireUsers(users: Seq[UserPrefs], ids: Array[Int], rels: Array[PrefRelation], of: => String): Unit = {
    val sorted = ids.clone()
    java.util.Arrays.sort(sorted)
    var i = 1
    while (i < sorted.length && sorted(i) != sorted(i - 1)) i += 1
    if (i < sorted.length)
      throw new IllegalArgumentException(s"requirement failed: user ${sorted(i)}: two users have this id")
    UserPrefs.requireDomains(users, rels, of)
  }

  /** The id-keyed view of a per-user array: `xs(i)` is user `ids(i)`'s. */
  protected final def byId[A](ids: Array[Int], xs: Array[A]): Map[Int, A] = ids.iterator.zip(xs.iterator).toMap
}

/** Algorithms 1 and 4 (Baseline, BaselineSW): every user keeps their own
  * level; there is no filter.
  */
object Baseline {

  final class State(users: Seq[UserPrefs], val counter: OpCounter = new OpCounter, val windowed: Boolean = false)
      extends EngineState {
    // User `ids(i)` keeps `levels(i)`, in input order.
    private val ids = users.iterator.map(_.userId).toArray
    // Arrivals are checked against the first user's domains, which every
    // user must share.
    private val rels = users.headOption.map(_.rels)
    rels.foreach(requireUsers(users, ids, _, s"user ${users.head.userId}"))
    private val levels = users.iterator.map(u => new Level(new Frontier(u.rels, counter), windowed)).toArray

    // Id-keyed views of the arrays, built on first use; they do not travel.
    @transient lazy val frontiers: Map[Int, Level] = byId(ids, levels)
    @transient lazy val userFrontiers: Map[Int, Frontier] = byId(ids, levels.map(_.frontier))

    def onArrival(o: Obj): Set[Int] = {
      rels.foreach(requireFits(o, _))
      var to = Set.empty[Int]
      var i = 0
      while (i < levels.length) {
        if (levels(i).arrive(o).isPareto) to += ids(i)
        i += 1
      }
      to
    }

    def onExpiry(outTs: Long): Map[Int, Seq[Obj]] = {
      var promoted = Map.empty[Int, Seq[Obj]]
      var i = 0
      while (i < levels.length) {
        levels(i).expire(outTs) match {
          case Some(ps) if ps.nonEmpty => promoted += ids(i) -> ps
          case _                       =>
        }
        i += 1
      }
      promoted
    }
  }

  /** Replay `objects` for all `users`; `window = Some(w)` is BaselineSW. */
  def run(users: Seq[UserPrefs], objects: Seq[Obj], window: Option[Int] = None,
          snapshotEvery: Int = Int.MaxValue): RunResult =
    Replay.run(objects, window, snapshotEvery)(c => Seq(new State(users, c, window.isDefined)))
}

/** Algorithms 2 and 5 (FilterThenVerify, FilterThenVerifySW): one filter
  * level `P_U` per cluster; only objects surviving it are verified against
  * each member's own frontier `P_c`. Evictions from `P_U` cascade to the
  * member frontiers (an object dominated w.r.t. `≻_U` is dominated for every
  * member, Thm. 2). Windowed, the cluster keeps ONE buffer `PB_U` instead of
  * one per member (Thm. 6 makes it sufficient).
  *
  * Mend-on-expiry correction (see DESIGN.md): the paper's pseudocode only
  * re-checks member frontiers for objects newly promoted into `P_U`, which
  * misses objects already in `P_U` that `o_out`'s expiry frees at the user
  * level. We mend member frontiers from the candidate set
  * `{o ∈ P_U : o_out ≻_c o}` — provably the complete candidate set, since
  * any object entering `P_c` must be in `P_U` (Lemma 1 over the window)
  * and must have had `o_out` among its dominators.
  */
object FilterThenVerify {

  class ClusterState(val cluster: Cluster, val counter: OpCounter = new OpCounter,
                     val windowed: Boolean = false) extends EngineState {
    // Windowed, the member mend reads `P_U` under each member's relations,
    // which only the equality store answers; append-only, `P_U` is asked
    // for dominators, which the up-set store answers in `d` loads per word.
    private val mendSource = Option.when(windowed)(new EqFrontier(cluster.filterRels, counter))
    val filterFrontier = new Level(mendSource.getOrElse(new Frontier(cluster.filterRels, counter)), windowed)
    // Member `ids(i)` keeps `members(i)`, their `P_c`, in input order.
    private val ids = cluster.members.iterator.map(_.userId).toArray
    requireUsers(cluster.members, ids, cluster.filterRels, s"cluster ${cluster.clusterId}'s filter")
    private val members: Array[Frontier] = cluster.members.iterator.map(u => new Frontier(u.rels, counter)).toArray

    // The id-keyed view of the array, built on first use; it does not travel.
    @transient lazy val userFrontiers: Map[Int, Frontier] = byId(ids, members)
    def buffer: Frontier = filterFrontier.buffer

    def onArrival(o: Obj): Set[Int] = {
      requireFits(o, cluster.filterRels)
      val res = filterFrontier.arrive(o) // updateParetoFrontierU(SW)
      res.removed.foreach { gone =>
        var i = 0
        while (i < members.length) { members(i).remove(gone.ts); i += 1 }
      }
      var to = Set.empty[Int]
      if (res.isPareto) {
        var i = 0
        while (i < members.length) {
          if (members(i).admit(o, windowed).isPareto) to += ids(i)
          i += 1
        }
      }
      to
    }

    def onExpiry(outTs: Long): Map[Int, Seq[Obj]] = {
      var promoted = Map.empty[Int, Seq[Obj]]
      for (filter <- mendSource if filterFrontier.expire(outTs).nonEmpty) { // mendParetoFrontierUSW
        // Per-member mend: only members that held o_out can gain objects.
        var i = 0
        while (i < members.length) {
          val pc = members(i)
          pc.take(outTs) match {
            case Some(out) =>
              val ps = pc.mendFromFilter(out, filter)
              if (ps.nonEmpty) promoted += ids(i) -> ps
            case None =>
          }
          i += 1
        }
      }
      promoted
    }
  }

  /** Replay `objects` over all clusters; `window = Some(w)` is FilterThenVerifySW. */
  def run(clusters: Seq[Cluster], objects: Seq[Obj], window: Option[Int] = None,
          snapshotEvery: Int = Int.MaxValue): RunResult =
    Replay.run(objects, window, snapshotEvery)(c => clusters.map(new ClusterState(_, c, window.isDefined)))
}

/** The windowed FilterThenVerify under its own name. */
object FilterThenVerifySW {
  final class ClusterState(cluster: Cluster, counter: OpCounter)
      extends FilterThenVerify.ClusterState(cluster, counter, windowed = true)

  def run(clusters: Seq[Cluster], objects: Seq[Obj], window: Int,
          snapshotEvery: Int = Int.MaxValue): RunResult =
    FilterThenVerify.run(clusters, objects, Some(window), snapshotEvery)
}

/** The one replay loop: `states` see arrivals in strictly increasing
  * timestamp order. With a count-based window of `W` (Sec. VII), the
  * arrival of `o_in` first expires the object `W` arrivals older, so the
  * window holds timestamps `(in − W, in]`. `W` must be positive: a smaller
  * one would expire each arrival before it is admitted. Every state must be
  * built for the replay's mode: an append-only state keeps no buffer to mend
  * from, and a windowed one expects expiries.
  */
final class Replay(states: Seq[EngineState], window: Option[Int]) extends Serializable {
  window.foreach(w => require(w > 0, s"window $w: a count-based window must hold at least one object"))
  private def mode(windowed: Boolean) = if (windowed) "windowed" else "append-only"
  require(states.forall(_.windowed == window.isDefined),
    s"window $window: the replay is ${mode(window.isDefined)}, a state is ${mode(!window.isDefined)}")
  // A user id names one frontier in `frontiers`.
  require(states.map(_.userFrontiers.size).sum == frontiers.size,
    s"user ${states.flatMap(_.userFrontiers.keys).groupBy(identity).maxBy(_._2.size)._1}: in two states of one replay")
  private val alive = mutable.Queue.empty[Long]
  private var lastTs = Long.MinValue

  /** One arrival: the late promotions its expiry causes, then `C_o`. */
  def step(o: Obj): Seq[Emission] = {
    // Frontiers and buffers are keyed by timestamp: a repeated one would
    // overwrite an alive object.
    require(o.ts > lastTs, s"out-of-order arrival ${o.ts} after $lastTs")
    lastTs = o.ts
    val late = window match {
      case Some(w) =>
        alive += o.ts
        if (alive.size <= w) Nil
        else {
          val outTs = alive.dequeue()
          for (st <- states; (uid, ps) <- st.onExpiry(outTs); p <- ps) yield Emission(p.ts, Set(uid))
        }
      case None => Nil
    }
    late :+ Emission(o.ts, states.foldLeft(Set.empty[Int])(_ ++ _.onArrival(o)))
  }

  def frontiers: Map[Int, Set[Long]] = states.flatMap(_.frontierIds).toMap
}

object Replay {

  /** Replay `objects` in timestamp order through the states `init` builds
    * on one counter, with a frontier snapshot every `snapshotEvery` arrivals.
    */
  def run(objects: Seq[Obj], window: Option[Int], snapshotEvery: Int)
         (init: OpCounter => Seq[EngineState]): RunResult = {
    val t0 = System.nanoTime()
    val counter = new OpCounter
    val replay = new Replay(init(counter), window)
    val emissions = mutable.LinkedHashMap.empty[Long, Set[Int]]
    val snapshots = mutable.ArrayBuffer.empty[Map[Int, Set[Long]]]
    objects.sortBy(_.ts).iterator.zipWithIndex.foreach { case (o, i) =>
      replay.step(o).foreach(e => emissions(e.ts) = emissions.getOrElse(e.ts, Set.empty[Int]) ++ e.users)
      if ((i + 1) % snapshotEvery == 0) snapshots += replay.frontiers
    }
    RunResult(emissions.map { case (ts, us) => Emission(ts, us) }.toSeq, replay.frontiers,
      snapshots.toSeq, counter.comparisons, System.nanoTime() - t0)
  }
}

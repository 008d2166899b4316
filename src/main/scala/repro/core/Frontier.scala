package repro.core

import scala.collection.mutable

/** Result of pushing a new object through a frontier (Alg. 1 procedure
  * `updateParetoFrontier`): whether the object is Pareto-optimal, and which
  * previous frontier members it evicted.
  */
final case class UpdateResult(isPareto: Boolean, removed: Seq[Obj])

object UpdateResult {
  /** The result for an object some member dominates. */
  val Dominated: UpdateResult = UpdateResult(isPareto = false, Nil)
}

/** Incremental Pareto frontier under a fixed preference-relation vector
  * (one strict partial order per attribute). This is the paper's Alg. 1
  * inner procedure; it backs member frontiers `P_c` and, as a [[Level]],
  * Baseline users and cluster filters `P_U`.
  *
  * Insertion order is preserved (LinkedHashMap keyed by timestamp) so
  * sequential comparison order matches the paper's description.
  */
class Frontier(val prefs: Array[PrefRelation], val counter: OpCounter)
    extends Serializable {

  private val members = mutable.LinkedHashMap.empty[Long, Obj]

  def contains(ts: Long): Boolean = members.contains(ts)
  def objects: Seq[Obj] = members.values.toSeq
  def ids: Set[Long] = members.keySet.toSet
  def sizeNow: Int = members.size

  /** Alg. 1 `updateParetoFrontier`: compare `o` sequentially with current
    * members. Dominated or identical stops the scan (identical is still
    * Pareto, Def. 2/3); members dominated by `o` are evicted; if `o`
    * survives it joins the frontier.
    */
  def update(o: Obj): UpdateResult = {
    val removed = mutable.ArrayBuffer.empty[Obj]
    var isPareto = true
    var identical = false
    val it = members.values.iterator
    while (it.hasNext && isPareto && !identical) {
      val m = it.next()
      Dominance.compare(prefs, o.attrs, m.attrs, counter) match {
        case Dominance.DominatedBy => isPareto = false
        case Dominance.Identical   => identical = true
        case Dominance.Dominates   => removed += m
        case _                     => ()
      }
    }
    if (isPareto) {
      removed.foreach(m => members.remove(m.ts))
      members.put(o.ts, o)
    }
    UpdateResult(isPareto, removed.toSeq)
  }

  /** How an arrival enters the frontier. Append-only, it is the one-pass
    * [[update]]. Windowed (Algs. 4/5 `updateParetoFrontierSW`), it is a test
    * for a dominator, then the eviction of the members `o` dominates. The
    * two keep each algorithm's own comparison count.
    */
  def admit(o: Obj, windowed: Boolean): UpdateResult =
    if (!windowed) update(o)
    else if (dominatesNew(o)) UpdateResult.Dominated
    else {
      val gone = evictDominatedBy(o)
      insert(o)
      UpdateResult(isPareto = true, gone)
    }

  /** `a ≻ b` under this frontier's prefs (one counted comparison). */
  def dominates(a: Obj, b: Obj): Boolean =
    Dominance.compare(prefs, a.attrs, b.attrs, counter) == Dominance.Dominates

  /** Is `o` dominated by any current member? (No mutation.) */
  def dominatesNew(o: Obj): Boolean = members.values.exists(dominates(_, o))

  /** Insert without checks (caller already established Pareto-optimality). */
  def insert(o: Obj): Unit = members.put(o.ts, o)

  /** Remove by timestamp; true if it was a member. */
  def remove(ts: Long): Boolean = members.remove(ts).isDefined

  /** Evict all members dominated by `o` (w.r.t. this frontier's prefs). */
  def evictDominatedBy(o: Obj): Seq[Obj] = {
    val gone = members.values.filter(dominates(o, _)).toSeq
    gone.foreach(m => members.remove(m.ts))
    gone
  }
}

/** From-scratch golden model used by tests: the Pareto frontier of a plain
  * object collection (Def. 3), or of the alive window (Def. 9), and the
  * Pareto frontier buffer (Def. 10).
  */
object BruteForce {

  /** `P = {o : ¬∃ o' ≻ o}` over the given objects. */
  def frontier(prefs: Array[PrefRelation], objects: Seq[Obj]): Set[Long] = {
    val counter = new OpCounter
    objects.iterator.filter { o =>
      !objects.exists(p => p.ts != o.ts &&
        Dominance.compare(prefs, p.attrs, o.attrs, counter) == Dominance.Dominates)
    }.map(_.ts).toSet
  }

  /** Def. 10: alive objects not dominated by any *following* alive object. */
  def buffer(prefs: Array[PrefRelation], objects: Seq[Obj]): Set[Long] = {
    val counter = new OpCounter
    objects.iterator.filter { o =>
      !objects.exists(p => p.ts > o.ts &&
        Dominance.compare(prefs, p.attrs, o.attrs, counter) == Dominance.Dominates)
    }.map(_.ts).toSet
  }
}

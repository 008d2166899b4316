package repro.core

import scala.collection.immutable.ArraySeq

/** Result of pushing a new object through a frontier (Alg. 1 procedure
  * `updateParetoFrontier`): whether the object is Pareto-optimal, and which
  * previous frontier members it evicted.
  */
final case class UpdateResult(isPareto: Boolean, removed: Seq[Obj])

object UpdateResult {
  /** The result for an object some member dominates. */
  val Dominated: UpdateResult = UpdateResult(isPareto = false, Nil)
  /** The result for an object that joins and evicts no member. */
  val Joined: UpdateResult = UpdateResult(isPareto = true, Nil)
}

/** Incremental Pareto frontier under a fixed preference-relation vector
  * (one strict partial order per attribute). This is the paper's Alg. 1
  * inner procedure.
  *
  * This class is the scan store, the reference for every comparison count.
  * Members are stored in insertion order in three columns: their attribute
  * values, `d = prefs.length` per member in one flat array, their
  * timestamps, and the objects themselves. Every scan walks the columns in
  * that order, so sequential comparison order matches the paper's
  * description and fixes the comparison counts; removal compacts the
  * columns and keeps the order. A timestamp identifies its member: each is
  * inserted at most once. The bit-sliced stores ([[SlicedFrontier]]), which
  * the engine runs, answer the same operations with the same results and
  * counts from bitmaps over the positions.
  */
class Frontier(val prefs: Array[PrefRelation], val counter: OpCounter)
    extends Serializable {

  protected val d: Int = prefs.length
  protected var n = 0
  // Empty frontiers share the empty columns; the first insert allocates.
  private var attrs: Array[Int] = Frontier.NoInts
  protected var tss: Array[Long] = Frontier.NoLongs
  protected var objs: Array[Obj] = Frontier.NoObjs
  // Whether the timestamps ascend in insertion order. Arrivals come in
  // timestamp order, so only a window mend's promotion of an older object
  // clears it; an empty store ascends again.
  private var ascending = true

  /** Number of members. */
  def size: Int = n
  /** [[size]], the name the `perfbench/` harness reads. */
  def sizeNow: Int = n
  def contains(ts: Long): Boolean = indexOf(ts) >= 0
  def objects: Seq[Obj] = ArraySeq.unsafeWrapArray(java.util.Arrays.copyOf(objs, n))
  def ids: Set[Long] = tss.iterator.take(n).toSet

  /** An empty Pareto buffer `PB` for a level whose `P` is this store, over
    * the same relations and counter. The scan store keeps a scan buffer, so
    * the count reference is a scan store throughout; the bit-sliced stores
    * keep theirs in the down-set encoding.
    */
  def newBuffer: Frontier = new Frontier(prefs, counter)

  /** Position of member `ts` in insertion order, or -1: a binary search
    * while the timestamps ascend, a scan otherwise.
    */
  private def indexOf(ts: Long): Int =
    if (ascending) math.max(java.util.Arrays.binarySearch(tss, 0, n, ts), -1)
    else {
      var i = 0
      while (i < n && tss(i) != ts) i += 1
      if (i < n) i else -1
    }

  /** Alg. 1 `updateParetoFrontier`: compare `o` sequentially with current
    * members. Dominated or identical stops the scan (identical is still
    * Pareto, Def. 2/3); members dominated by `o` are evicted; if `o`
    * survives it joins the frontier.
    */
  def update(o: Obj): UpdateResult = {
    var gone = List.empty[Obj]
    var i = 0
    while (i < n) {
      Dominance.compare(prefs, o.attrs, 0, attrs, i * d, counter) match {
        case Dominance.DominatedBy => return UpdateResult.Dominated
        case Dominance.Identical   => i = n // still Pareto; the scan stops
        case Dominance.Dominates   => gone ::= objs(i); i += 1
        case _                     => i += 1
      }
    }
    if (gone.isEmpty) { insert(o); UpdateResult.Joined }
    else {
      val removed = gone.reverse
      drop(removed)
      insert(o)
      UpdateResult(isPareto = true, removed)
    }
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
  private def dominates(a: Obj, b: Obj): Boolean =
    Dominance.compare(prefs, a.attrs, b.attrs, counter) == Dominance.Dominates

  /** Is `o` dominated by any current member? (No mutation.) */
  def dominatesNew(o: Obj): Boolean = {
    var i = 0
    while (i < n) {
      if (Dominance.compare(prefs, attrs, i * d, o.attrs, 0, counter) == Dominance.Dominates) return true
      i += 1
    }
    false
  }

  /** Insert without checks (caller already established Pareto-optimality). */
  def insert(o: Obj): Unit = {
    if (n == tss.length) {
      val cap = math.max(8, 2 * n)
      tss = java.util.Arrays.copyOf(tss, cap)
      objs = java.util.Arrays.copyOf(objs, cap)
    }
    ascending = n == 0 || (ascending && o.ts > tss(n - 1))
    place(o)
    tss(n) = o.ts
    objs(n) = o
    n += 1
  }

  /** Store the attribute values of `o` at position `n`; the attribute
    * column grows with the others.
    */
  protected def place(o: Obj): Unit = {
    if (attrs.length < tss.length * d) attrs = java.util.Arrays.copyOf(attrs, tss.length * d)
    System.arraycopy(o.attrs, 0, attrs, n * d, d)
  }

  /** Remove by timestamp; true if it was a member. */
  def remove(ts: Long): Boolean = {
    val i = indexOf(ts)
    if (i >= 0) removeAt(i)
    i >= 0
  }

  /** Remove member `ts` and return it, if it was one. */
  def take(ts: Long): Option[Obj] = {
    val i = indexOf(ts)
    if (i < 0) None else { val o = objs(i); removeAt(i); Some(o) }
  }

  /** Remove the member at position `i`; later members move down by one. */
  protected def removeAt(i: Int): Unit = {
    val tail = n - i - 1
    cut(i)
    System.arraycopy(tss, i + 1, tss, i, tail)
    System.arraycopy(objs, i + 1, objs, i, tail)
    n -= 1
    objs(n) = null
  }

  /** Remove position `i`'s attribute values, `n` members stored. */
  protected def cut(i: Int): Unit =
    System.arraycopy(attrs, (i + 1) * d, attrs, i * d, (n - i - 1) * d)

  /** Evict all members dominated by `o` (w.r.t. this frontier's prefs). */
  def evictDominatedBy(o: Obj): Seq[Obj] = {
    val gone = dominatedBy(o)
    if (gone.nonEmpty) drop(gone)
    gone
  }

  /** The members `o` dominates, in insertion order: one comparison per
    * member. (No mutation.)
    */
  protected def dominatedBy(o: Obj): List[Obj] = {
    var gone = List.empty[Obj]
    var i = 0
    while (i < n) {
      if (Dominance.compare(prefs, o.attrs, 0, attrs, i * d, counter) == Dominance.Dominates) gone ::= objs(i)
      i += 1
    }
    gone.reverse
  }

  /** `mendParetoFrontierSW` (Algs. 4/5), after `out` has left this
    * frontier `P`: promote, in `buffer` order, each `PB` member that `out`
    * dominates and no member of `P` dominates. Each test sees the
    * promotions made before it. Returns the promoted objects.
    */
  def mendFromBuffer(out: Obj, buffer: Frontier): Seq[Obj] = {
    var promoted = List.empty[Obj]
    buffer.dominatedBy(out).foreach { o =>
      if (!dominatesNew(o)) { insert(o); promoted ::= o }
    }
    promoted.reverse
  }

  /** The member mend (a correction of Alg. 5, see DESIGN.md), after `out`
    * has left this member frontier `P_c`: the candidates are the members
    * of `filter` (`P_U`) that are not in `P_c` and that `out` dominates
    * under `P_c`'s prefs. Candidates can dominate each other (they are only
    * mutually non-dominated under the filter's prefs), so each joins only
    * if neither a member nor another candidate dominates it. Returns the
    * promoted objects.
    */
  def mendFromFilter(out: Obj, filter: Frontier): Seq[Obj] = {
    val cand = filter.freedBy(out, this)
    val promoted = cand.filter(o => !dominatesNew(o) && !cand.exists(p => p.ts != o.ts && dominates(p, o)))
    promoted.foreach(insert)
    promoted
  }

  /** The member mend's candidates: the members of this frontier that `pc`
    * does not hold and that `out` dominates under `pc`'s prefs, in
    * insertion order, with one comparison on `pc`'s counter per member
    * `pc` does not hold. It reads the objects, not the attribute column,
    * so a store without one has it too.
    */
  protected def freedBy(out: Obj, pc: Frontier): List[Obj] = {
    var cand = List.empty[Obj]
    var i = 0
    while (i < n) {
      if (!pc.contains(tss(i)) &&
          Dominance.compare(pc.prefs, out.attrs, objs(i).attrs, pc.counter) == Dominance.Dominates)
        cand ::= objs(i)
      i += 1
    }
    cand.reverse
  }

  /** Remove `gone`, members listed in insertion order, in one compacting
    * pass that moves each run of kept members with one copy per column.
    */
  protected def drop(gone: List[Obj]): Unit = {
    var rest = gone
    var kept = 0
    var i = 0
    while (i < n) {
      var j = i // the kept run is `i until j`; `j` is the next evicted member
      while (j < n && (rest.isEmpty || (objs(j) ne rest.head))) j += 1
      if (kept < i) {
        System.arraycopy(attrs, i * d, attrs, kept * d, (j - i) * d)
        System.arraycopy(tss, i, tss, kept, j - i)
        System.arraycopy(objs, i, objs, kept, j - i)
      }
      kept += j - i
      if (j < n) rest = rest.tail
      i = j + 1
    }
    java.util.Arrays.fill(objs.asInstanceOf[Array[AnyRef]], kept, n, null)
    n = kept
  }
}

object Frontier {
  private val NoInts = new Array[Int](0)
  private val NoLongs = new Array[Long](0)
  private val NoObjs = new Array[Obj](0)
}

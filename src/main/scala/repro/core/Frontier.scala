package repro.core

import java.lang.Long.{bitCount, numberOfLeadingZeros, numberOfTrailingZeros}
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
  * (one strict partial order per attribute): the paper's Alg. 1 inner
  * procedure, and the window mends of Algs. 4/5.
  *
  * The store is bit-sliced, the Bitmap skyline (Tan, Eng & Ooi, VLDB 2001)
  * with one bit per frontier position and a partial order per attribute.
  * Members keep insertion order in two columns, the objects and their
  * timestamps; a timestamp identifies its member, as each is inserted at
  * most once. Each 64-position word holds one bitmap, a slot, per attribute
  * `a` and value `v`. What slot `(a, v)` holds is the encoding's: this
  * class's is the up-set encoding, and [[EqFrontier]] and [[DownFrontier]]
  * override [[mark]] and [[query]]. Removal shifts every later position
  * down by one, in the columns and in the bitmaps; bits at positions
  * `≥ size` are zero. For an object `o`, each encoding forms word by word
  *  - `D`, the members at least as good as `o`, and
  *  - `E`, the members `o` is at least as good as;
  * their intersection `I` holds the members identical to `o`.
  *
  * Comparison counts are those of the paper's sequential scan in insertion
  * order, derived instead of counted call by call. A scan stops at its
  * first dominator, so its count is the position of the first such member
  * plus one, or the size when there is none; a scan that tests every member
  * counts the size. The test code's scan store `ScanFrontier` compares
  * member by member and is the reference for these counts.
  *
  * Up-set encoding (range encoding, Chan & Ioannidis, SIGMOD 1998, over a
  * partial order): slot `(a, v)` holds the positions whose value on `a` is
  * at least as good as `v`, `U_a(v)`. For an object `o`,
  * `D = ⋀_a U_a(o_a)`, one load per attribute, and
  * `E = ⋀_a ¬⋁_{w ∈ minOut(o_a)} U_a(w)`. The bitmaps hold this store's own
  * relations, so it backs the frontiers that are only read under them and
  * asked most for a dominator: Baseline users, cluster members' `P_c`, and
  * an append-only cluster's filter level `P_U`.
  */
sealed class Frontier(val prefs: Array[PrefRelation], val counter: OpCounter)
    extends Serializable {

  protected val d: Int = prefs.length
  protected var n = 0
  // Empty frontiers share the empty columns; the first insert allocates.
  protected var tss: Array[Long] = Frontier.NoLongs
  protected var objs: Array[Obj] = Frontier.NoObjs
  // Whether the timestamps ascend in insertion order. Arrivals come in
  // timestamp order, so only a window mend's promotion of an older object
  // clears it; an empty store ascends again.
  private var ascending = true
  /** Bitmaps per word: attribute `a`'s value `v` is slot `Σ_{b<a} |dom_b| + v`. */
  private val slots = {
    var s = 0
    var a = 0
    while (a < d) { s += prefs(a).domainSize; a += 1 }
    s
  }
  // Word `w` of slot `s`'s bitmap is `bits(w * slots + s)`, so the slots of
  // one word lie together. The bitmaps grow one word at a time.
  protected var bits: Array[Long] = Frontier.NoBits

  /** Number of members. */
  def size: Int = n
  /** [[size]], the name the `perfbench/` harness reads. */
  def sizeNow: Int = n
  def contains(ts: Long): Boolean = indexOf(ts) >= 0
  def objects: Seq[Obj] = ArraySeq.unsafeWrapArray(java.util.Arrays.copyOf(objs, n))
  def ids: Set[Long] = tss.iterator.take(n).toSet

  /** An empty Pareto buffer `PB` for a level whose `P` is this store, over
    * the same relations and counter. A buffer is only asked which members
    * an object dominates, `E ∖ I`, which the down-set encoding forms with
    * `d` loads per word.
    */
  final def newBuffer: Frontier = new DownFrontier(prefs, counter)

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
    * survives it joins the frontier. The scan stops at the first member of
    * `D`. If that member is identical to `o`, `o` joins and evicts the
    * members before it that it dominates; otherwise `o` is dominated. With
    * no such member, `o` joins and evicts every member it dominates.
    */
  def update(o: Obj): UpdateResult = {
    val q = query(o)
    val p = first(q, strict = false)
    counter.comparisons += (if (p < 0) n else p + 1)
    if (p >= 0 && !java.util.Arrays.equals(objs(p).attrs, o.attrs)) UpdateResult.Dominated
    else {
      val removed = evict(below(q, if (p < 0) n else p))
      insert(o)
      if (removed.isEmpty) UpdateResult.Joined else UpdateResult(isPareto = true, removed)
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

  /** Is `o` dominated by any current member? The scan stops at the first
    * member of `D ∖ I`. (No mutation.)
    */
  def dominatesNew(o: Obj): Boolean = {
    val p = first(query(o), strict = true)
    counter.comparisons += (if (p < 0) n else p + 1)
    p >= 0
  }

  /** Insert without checks (caller already established Pareto-optimality). */
  def insert(o: Obj): Unit = {
    if (n == tss.length) {
      val cap = math.max(8, 2 * n)
      tss = java.util.Arrays.copyOf(tss, cap)
      objs = java.util.Arrays.copyOf(objs, cap)
    }
    ascending = n == 0 || (ascending && o.ts > tss(n - 1))
    var base = (n >>> 6) * slots
    if (base == bits.length) bits = java.util.Arrays.copyOf(bits, base + slots)
    var a = 0
    while (a < d) {
      mark(base, prefs(a), o.attrs(a), 1L << n)
      base += prefs(a).domainSize
      a += 1
    }
    tss(n) = o.ts
    objs(n) = o
    n += 1
  }

  /** Set `bit` in the slots for value `v` of the attribute under `rel`,
    * whose slots in this word start at `bits(base)`.
    */
  protected def mark(base: Int, rel: PrefRelation, v: Int, bit: Long): Unit =
    markEach(base, rel.atMost(v), bit)

  /** Set `bit` in the slots of every value in `vs`. */
  protected final def markEach(base: Int, vs: Array[Int], bit: Long): Unit = {
    var k = 0
    while (k < vs.length) { bits(base + vs(k)) |= bit; k += 1 }
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

  /** Remove the member at position `i`; later members move down by one, in
    * the columns and in every bitmap.
    */
  private def removeAt(i: Int): Unit = {
    val last = (n - 1) >>> 6
    val keep = (1L << i) - 1 // the bits below `i` in its word; 0 when `i % 64 == 0`
    var w = i >>> 6
    while (w <= last) {
      val base = w * slots
      val low = if (w == i >>> 6) keep else 0L
      var s = 0
      while (s < slots) {
        val x = bits(base + s)
        val carry = if (w < last) bits(base + slots + s) << 63 else 0L
        bits(base + s) = (x & low) | ((x >>> 1) & ~low) | carry
        s += 1
      }
      w += 1
    }
    val tail = n - i - 1
    System.arraycopy(tss, i + 1, tss, i, tail)
    System.arraycopy(objs, i + 1, objs, i, tail)
    n -= 1
    objs(n) = null
  }

  /** Remove the members at positions `at`, ascending, and return them in
    * that order. The last goes first, so the others keep their positions.
    */
  private def evict(at: List[Int]): List[Obj] =
    if (at.isEmpty) Nil
    else {
      val gone = at.map(objs(_))
      at.reverseIterator.foreach(removeAt)
      gone
    }

  /** Evict all members dominated by `o` (w.r.t. this frontier's prefs). */
  def evictDominatedBy(o: Obj): Seq[Obj] = evict(dominatedBy(o))

  /** The positions of the members `o` dominates, ascending. The scan tests
    * every member. (No mutation.)
    */
  private def dominatedBy(o: Obj): List[Int] = {
    counter.comparisons += n
    below(query(o), n)
  }

  /** `mendParetoFrontierSW` (Algs. 4/5), after `out` has left this
    * frontier `P`: promote, in `buffer` order, each `PB` member that `out`
    * dominates and no member of `P` dominates. Each test sees the
    * promotions made before it. Returns the promoted objects.
    */
  def mendFromBuffer(out: Obj, buffer: Frontier): Seq[Obj] = {
    var promoted = List.empty[Obj]
    buffer.dominatedBy(out).foreach { i =>
      val o = buffer.objs(i)
      if (!dominatesNew(o)) { insert(o); promoted ::= o }
    }
    promoted.reverse
  }

  /** The member mend (a correction of Alg. 5, see DESIGN.md), after `out`
    * has left this member frontier `P_c`: the candidates are the members
    * of `filter` (`P_U`) that are not in `P_c` and that `out` dominates
    * under `P_c`'s prefs. Candidates can dominate each other (they are only
    * mutually non-dominated under the filter's prefs), so each joins only
    * if neither a member nor another candidate dominates it. The filter is
    * read under `P_c`'s prefs, which only the equality store answers.
    * Returns the promoted objects.
    */
  def mendFromFilter(out: Obj, filter: EqFrontier): Seq[Obj] = {
    val promoted = filter.freedBy(out, this)
    promoted.foreach(insert)
    promoted
  }

  /** Per attribute, the value list `pick` gives for `o`'s value under `rels`. */
  protected final def cone(o: Obj, rels: Array[PrefRelation])(pick: (PrefRelation, Int) => Array[Int]): Array[Array[Int]] = {
    val sel = new Array[Array[Int]](d)
    var a = 0
    while (a < d) { sel(a) = pick(rels(a), o.attrs(a)); a += 1 }
    sel
  }

  /** Word `w` of `⋀_a slot(a, o_a)`. */
  protected final def all(w: Int, o: Obj): Long = {
    var acc = -1L
    var base = w * slots
    var a = 0
    while (a < d) {
      acc &= bits(base + o.attrs(a))
      base += prefs(a).domainSize
      a += 1
    }
    acc
  }

  /** Word `w` of `from ∧ ⋀_a (⋁_{v ∈ sel(a)} slot(a, v)) ^ flip`: with
    * `flip = -1` each attribute's union is complemented, and positions
    * `≥ size` are set. It stops at the first attribute that leaves no bit.
    */
  protected final def any(w: Int, sel: Array[Array[Int]], flip: Long, from: Long = -1L): Long = {
    var acc = from
    var base = w * slots
    var a = 0
    while (a < d && acc != 0L) {
      val vs = sel(a)
      var x = 0L
      var k = 0
      while (k < vs.length) { x |= bits(base + vs(k)); k += 1 }
      acc &= x ^ flip
      base += prefs(a).domainSize
      a += 1
    }
    acc
  }

  /** The words of `D` and `E` for one object. */
  protected abstract class Query {
    def atLeast(w: Int): Long
    def atMost(w: Int): Long
    /** `x ∖ I` for `x` inside word `w` of `D` (`inD`) or of `E`. */
    def butSame(w: Int, x: Long, inD: Boolean): Long = x & ~(if (inD) atMost(w) else atLeast(w))
  }

  /** `o`'s query under this store's relations. */
  protected def query(o: Obj): Query = new Query {
    private var out: Array[Array[Int]] = null // built on the first word of `E`
    def atLeast(w: Int): Long = all(w, o)
    def atMost(w: Int): Long = {
      if (out == null) out = cone(o, prefs)(_.minOut(_))
      any(w, out, -1L)
    }
  }

  /** The first position in `D` (`D ∖ I` if `strict`), or -1. */
  private def first(q: Query, strict: Boolean): Int = {
    val words = (n + 63) >>> 6
    var w = 0
    while (w < words) {
      var x = q.atLeast(w)
      if (strict && x != 0L) x = q.butSame(w, x, inD = true)
      if (x != 0L) return (w << 6) + numberOfTrailingZeros(x)
      w += 1
    }
    -1
  }

  /** The positions below `limit` in `E ∖ I`, ascending: the members the
    * query's object dominates.
    */
  protected final def below(q: Query, limit: Int): List[Int] = {
    var at = List.empty[Int]
    var w = ((limit + 63) >>> 6) - 1
    if (w >= 0) {
      val top = if ((limit & 63) == 0) -1L else (1L << limit) - 1
      var mask = top
      while (w >= 0) {
        var x = q.atMost(w) & mask
        if (x != 0L) x = q.butSame(w, x, inD = false)
        while (x != 0L) {
          val b = 63 - numberOfLeadingZeros(x)
          at ::= (w << 6) + b
          x &= ~(1L << b)
        }
        mask = -1L
        w -= 1
      }
    }
    at
  }
}

object Frontier {
  private val NoLongs = new Array[Long](0)
  private val NoObjs = new Array[Obj](0)
  private val NoBits = new Array[Long](0)
}

/** Equality encoding: slot `(a, v)` holds the positions whose value on `a`
  * is `v`. For an object `o`, `D = ⋀_a ⋁_{u ⪰ o_a} eq_a(u)`,
  * `E = ⋀_a ⋁_{u ⪯ o_a} eq_a(u)` and `I = ⋀_a eq_a(o_a)`. The bitmaps do not
  * depend on the relations, so the store answers `D` and `E` under any
  * others: it backs a windowed cluster's filter level `P_U`, where the
  * member mend reads its candidates under each member's relations.
  */
final class EqFrontier(prefs: Array[PrefRelation], counter: OpCounter)
    extends Frontier(prefs, counter) {

  override protected def mark(base: Int, rel: PrefRelation, v: Int, bit: Long): Unit =
    bits(base + v) |= bit

  override protected def query(o: Obj): Query = query(o, prefs)

  private def query(o: Obj, rels: Array[PrefRelation]): Query = new Query {
    // Each built on the first word that reads it.
    private var up, down: Array[Array[Int]] = null
    def atLeast(w: Int): Long = {
      if (up == null) up = cone(o, rels)(_.atLeast(_))
      any(w, up, 0L)
    }
    def atMost(w: Int): Long = {
      if (down == null) down = cone(o, rels)(_.atMost(_))
      any(w, down, 0L)
    }
    override def butSame(w: Int, x: Long, inD: Boolean): Long = x & ~all(w, o)
  }

  /** The member mend's promotions for `pc` ([[Frontier.mendFromFilter]]),
    * in insertion order. The candidates are `E ∖ I` of `out` under `pc`'s
    * prefs, less the members `pc` holds. The scan tests every member `pc`
    * does not hold; `pc` holds only members of this filter level (Lemma 1),
    * so that is `size - pc.size` tests, on `pc`'s counter like the others.
    * A candidate joins if no member of `pc` dominates it
    * ([[Frontier.dominatesNew]]) and no other candidate does.
    */
  private[core] def freedBy(out: Obj, pc: Frontier): List[Obj] = {
    pc.counter.comparisons += n - pc.size
    val cand = below(query(out, pc.prefs), n).filterNot(i => pc.contains(tss(i)))
    val mask = new Array[Long]((n + 63) >>> 6)
    cand.foreach(i => mask(i >>> 6) |= 1L << i)
    val k = cand.size
    cand.filter(i => !pc.dominatesNew(objs(i)) && !dominatedAmong(i, mask, k, pc)).map(objs(_))
  }

  /** Does a candidate in `mask` (`k` of them, position `i` among them)
    * dominate member `i` under `pc`'s prefs? That is the candidates in
    * `D ∖ I` of member `i` under `pc`'s prefs, read on the words that hold
    * candidates. The scan tests the candidates in order, skips member `i`,
    * and stops at the first dominator: its count, on `pc`'s counter, is the
    * number of other candidates before that one, plus one, or `k - 1` when
    * there is none.
    */
  private def dominatedAmong(i: Int, mask: Array[Long], k: Int, pc: Frontier): Boolean = {
    val o = objs(i)
    val up = cone(o, pc.prefs)(_.atLeast(_))
    var before = 0 // candidates in the words before `w`
    var w = 0
    while (w < mask.length) {
      if (mask(w) != 0L) {
        var x = any(w, up, 0L, mask(w))
        if (x != 0L) x &= ~all(w, o)
        if (x != 0L) {
          val h = (w << 6) + numberOfTrailingZeros(x)
          val ahead = before + bitCount(mask(w) & ((1L << h) - 1))
          pc.counter.comparisons += ahead - (if (i < h) 1 else 0) + 1
          return true
        }
        before += bitCount(mask(w))
      }
      w += 1
    }
    pc.counter.comparisons += k - 1
    false
  }
}

/** Down-set encoding, the mirror of the up-set one: slot `(a, v)` holds the
  * positions whose value on `a` is at most as good as `v`, `L_a(v)`. For an
  * object `o`, `E = ⋀_a L_a(o_a)`, one load per attribute, and
  * `D = ⋀_a ¬⋁_{w ∈ maxOut(o_a)} L_a(w)`. It backs every Pareto buffer
  * ([[Frontier.newBuffer]]).
  */
final class DownFrontier(prefs: Array[PrefRelation], counter: OpCounter)
    extends Frontier(prefs, counter) {

  override protected def mark(base: Int, rel: PrefRelation, v: Int, bit: Long): Unit =
    markEach(base, rel.atLeast(v), bit)

  override protected def query(o: Obj): Query = new Query {
    private var out: Array[Array[Int]] = null // built on the first word of `D`
    // The complement sets the positions at and above the size; `first`
    // reads `D` unmasked, so they are cleared here.
    def atLeast(w: Int): Long = {
      if (out == null) out = cone(o, prefs)(_.maxOut(_))
      val x = any(w, out, -1L)
      if (w == n >>> 6) x & ((1L << n) - 1) else x
    }
    def atMost(w: Int): Long = all(w, o)
  }
}

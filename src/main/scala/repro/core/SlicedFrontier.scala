package repro.core

import java.lang.Long.{numberOfLeadingZeros, numberOfTrailingZeros}

/** The bit-sliced stores of a frontier: the Bitmap skyline (Tan, Eng & Ooi,
  * VLDB 2001) with one bit per frontier position and a partial order per
  * attribute. They give every operation the result and the comparison count
  * of the scan store ([[Frontier]]), derived instead of counted call by call.
  *
  * Members keep insertion order in two columns, the objects and their
  * timestamps. There is no attribute column: each 64-position word holds one
  * bitmap, a slot, per attribute `a` and value `v`. What slot `(a, v)` holds
  * is the encoding's ([[EqFrontier]], [[UpFrontier]], [[DownFrontier]]);
  * this class keeps the layout, the removal and the counts. Removal shifts
  * every later position down by one, in the columns and in the bitmaps;
  * bits at positions `≥ size` are zero. For an object `o`, each encoding forms word by word
  *  - `D`, the members at least as good as `o`, and
  *  - `E`, the members `o` is at least as good as;
  * their intersection `I` holds the members identical to `o`.
  *
  * A sequential scan stops at its first dominator, so its count is the
  * position of the first such member plus one, or the size when there is
  * none; a scan that tests every member counts the size.
  */
sealed abstract class SlicedFrontier(prefs: Array[PrefRelation], counter: OpCounter)
    extends Frontier(prefs, counter) {

  /** Bitmaps per word: attribute `a`'s value `v` is slot `Σ_{b<a} |dom_b| + v`. */
  private val slots = {
    var s = 0
    var a = 0
    while (a < d) { s += prefs(a).domainSize; a += 1 }
    s
  }
  // Word `w` of slot `s`'s bitmap is `bits(w * slots + s)`, so the slots of
  // one word lie together. Empty stores share the empty array.
  protected var bits: Array[Long] = SlicedFrontier.NoBits

  /** A buffer is only asked which members an object dominates, `E ∖ I`,
    * which the down-set encoding forms with `d` loads per word.
    */
  override final def newBuffer: Frontier = new DownFrontier(prefs, counter)

  /** The bitmaps grow one word at a time, not with the columns. */
  override protected final def place(o: Obj): Unit = {
    var base = (n >>> 6) * slots
    if (base == bits.length) bits = java.util.Arrays.copyOf(bits, base + slots)
    var a = 0
    while (a < d) {
      mark(base, prefs(a), o.attrs(a), 1L << n)
      base += prefs(a).domainSize
      a += 1
    }
  }

  /** Set `bit` in the slots for value `v` of the attribute under `rel`,
    * whose slots in this word start at `bits(base)`.
    */
  protected def mark(base: Int, rel: PrefRelation, v: Int, bit: Long): Unit

  /** Set `bit` in the slots of every value in `vs`. */
  protected final def markEach(base: Int, vs: Array[Int], bit: Long): Unit = {
    var k = 0
    while (k < vs.length) { bits(base + vs(k)) |= bit; k += 1 }
  }

  /** Shift the positions after `i` down by one in every bitmap. */
  override protected final def cut(i: Int): Unit = {
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
  }

  override protected final def drop(gone: List[Obj]): Unit = {
    var at = List.empty[Int] // positions, last first
    var rest = gone
    var i = 0
    while (rest.nonEmpty) {
      if (objs(i) eq rest.head) { at ::= i; rest = rest.tail }
      i += 1
    }
    at.foreach(removeAt)
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

  /** Word `w` of `⋀_a (⋁_{v ∈ sel(a)} slot(a, v)) ^ flip`: with `flip = -1`
    * each attribute's union is complemented, and positions `≥ size` are set.
    */
  protected final def any(w: Int, sel: Array[Array[Int]], flip: Long): Long = {
    var acc = -1L
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
  protected def query(o: Obj): Query

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

  /** Alg. 1's scan stops at the first member of `D`. If that member is
    * identical to `o`, `o` joins and evicts the members before it that it
    * dominates; otherwise `o` is dominated. With no such member, `o` joins
    * and evicts every member it dominates.
    */
  override def update(o: Obj): UpdateResult = {
    val q = query(o)
    val p = first(q, strict = false)
    counter.comparisons += (if (p < 0) n else p + 1)
    if (p >= 0 && !java.util.Arrays.equals(objs(p).attrs, o.attrs)) UpdateResult.Dominated
    else {
      val at = below(q, if (p < 0) n else p)
      if (at.isEmpty) { insert(o); UpdateResult.Joined }
      else {
        val removed = at.map(objs(_))
        at.reverseIterator.foreach(removeAt)
        insert(o)
        UpdateResult(isPareto = true, removed)
      }
    }
  }

  /** The scan stops at the first member of `D ∖ I`. */
  override def dominatesNew(o: Obj): Boolean = {
    val p = first(query(o), strict = true)
    counter.comparisons += (if (p < 0) n else p + 1)
    p >= 0
  }

  /** The scan tests every member. */
  override protected def dominatedBy(o: Obj): List[Obj] = {
    counter.comparisons += n
    below(query(o), n).map(objs(_))
  }
}

object SlicedFrontier {
  private val NoBits = new Array[Long](0)
}

/** Equality encoding: slot `(a, v)` holds the positions whose value on `a`
  * is `v`. For an object `o`, `D = ⋀_a ⋁_{u ⪰ o_a} eq_a(u)`,
  * `E = ⋀_a ⋁_{u ⪯ o_a} eq_a(u)` and `I = ⋀_a eq_a(o_a)`. The bitmaps do not
  * depend on the relations, so the store answers `E ∖ I` under any others:
  * it backs a windowed cluster's filter level `P_U`, where the member mend
  * reads its candidates under each member's relations.
  */
final class EqFrontier(prefs: Array[PrefRelation], counter: OpCounter)
    extends SlicedFrontier(prefs, counter) {

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

  /** The scan tests every member `pc` does not hold. `pc`, a member
    * frontier, holds only members of this filter level (Lemma 1), so that
    * is `size - pc.size` tests; `E ∖ I` under `pc`'s prefs gives the members
    * `out` dominates there.
    */
  override protected def freedBy(out: Obj, pc: Frontier): List[Obj] = {
    pc.counter.comparisons += n - pc.size
    below(query(out, pc.prefs), n).map(objs(_)).filterNot(o => pc.contains(o.ts))
  }
}

/** Up-set encoding (range encoding, Chan & Ioannidis, SIGMOD 1998, over a
  * partial order): slot `(a, v)` holds the positions whose value on `a` is
  * at least as good as `v`, `U_a(v)`. For an object `o`,
  * `D = ⋀_a U_a(o_a)`, one load per attribute, and
  * `E = ⋀_a ¬⋁_{w ∈ minOut(o_a)} U_a(w)`. The bitmaps hold this store's own
  * relations, so it backs the frontiers that are only read under them and
  * asked most for a dominator: Baseline users, cluster members' `P_c`, and
  * an append-only cluster's filter level `P_U`.
  */
final class UpFrontier(prefs: Array[PrefRelation], counter: OpCounter)
    extends SlicedFrontier(prefs, counter) {

  override protected def mark(base: Int, rel: PrefRelation, v: Int, bit: Long): Unit =
    markEach(base, rel.atMost(v), bit)

  override protected def query(o: Obj): Query = new Query {
    private var out: Array[Array[Int]] = null // built on the first word of `E`
    def atLeast(w: Int): Long = all(w, o)
    def atMost(w: Int): Long = {
      if (out == null) out = cone(o, prefs)(_.minOut(_))
      any(w, out, -1L)
    }
  }
}

/** Down-set encoding, the mirror of [[UpFrontier]]: slot `(a, v)` holds the
  * positions whose value on `a` is at most as good as `v`, `L_a(v)`. For an
  * object `o`, `E = ⋀_a L_a(o_a)`, one load per attribute, and
  * `D = ⋀_a ¬⋁_{w ∈ maxOut(o_a)} L_a(w)`. It backs every Pareto buffer of a
  * bit-sliced level ([[SlicedFrontier.newBuffer]]).
  */
final class DownFrontier(prefs: Array[PrefRelation], counter: OpCounter)
    extends SlicedFrontier(prefs, counter) {

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

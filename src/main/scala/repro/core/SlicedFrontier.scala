package repro.core

import java.lang.Long.{numberOfLeadingZeros, numberOfTrailingZeros}

/** The bit-sliced store of a frontier: the Bitmap skyline (Tan, Eng & Ooi,
  * VLDB 2001) with one bit per frontier position and a partial order per
  * attribute. It backs a cluster's filter level `P_U` and its buffer
  * `PB_U`, and gives every operation the result and the comparison count of
  * the scan store ([[Frontier]]), derived instead of counted call by call.
  *
  * Members keep insertion order in two columns, the objects and their
  * timestamps. There is no attribute column: for each attribute `a` and
  * value `v`, the bitmap `eq_a(v)` holds the positions whose value on `a`
  * is `v`. Removal shifts every later position down by one, in the columns
  * and in the bitmaps; bits at positions `≥ size` are zero. For an object
  * `o`, word by word:
  *  - `D = ⋀_a ⋁_{u ⪰ o_a} eq_a(u)`, the members at least as good as `o`;
  *  - `I = ⋀_a eq_a(o_a)`, the members identical to it;
  *  - `E = ⋀_a ⋁_{u ⪯ o_a} eq_a(u)`, the members `o` is at least as good as.
  *
  * A sequential scan stops at its first dominator, so its count is the
  * position of the first such member plus one, or the size when there is
  * none; a scan that tests every member counts the size.
  */
final class SlicedFrontier(prefs: Array[PrefRelation], counter: OpCounter)
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
  private var bits: Array[Long] = SlicedFrontier.NoBits

  override def newEmpty: Frontier = new SlicedFrontier(prefs, counter)

  override protected def grow(cap: Int): Unit =
    bits = java.util.Arrays.copyOf(bits, ((cap + 63) >>> 6) * slots)

  override protected def place(o: Obj): Unit = {
    var base = (n >>> 6) * slots
    var a = 0
    while (a < d) {
      bits(base + o.attrs(a)) |= 1L << n
      base += prefs(a).domainSize
      a += 1
    }
  }

  /** Shift the positions after `i` down by one in every bitmap. */
  override protected def cut(i: Int): Unit = {
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

  override protected def drop(gone: List[Obj]): Unit = {
    var at = List.empty[Int] // positions, last first
    var rest = gone
    var i = 0
    while (rest.nonEmpty) {
      if (objs(i) eq rest.head) { at ::= i; rest = rest.tail }
      i += 1
    }
    at.foreach(removeAt)
  }

  /** Per attribute, the values at least (`up`) or at most as good as `o`'s under `rels`. */
  private def cone(o: Obj, rels: Array[PrefRelation], up: Boolean): Array[Array[Int]] = {
    val sel = new Array[Array[Int]](d)
    var a = 0
    while (a < d) {
      sel(a) = if (up) rels(a).atLeast(o.attrs(a)) else rels(a).atMost(o.attrs(a))
      a += 1
    }
    sel
  }

  /** Word `w` of `⋀_a ⋁_{u ∈ sel(a)} eq_a(u)`. */
  private def word(w: Int, sel: Array[Array[Int]]): Long = {
    var acc = -1L
    var base = w * slots
    var a = 0
    while (a < d && acc != 0L) {
      val vs = sel(a)
      var x = 0L
      var k = 0
      while (k < vs.length) { x |= bits(base + vs(k)); k += 1 }
      acc &= x
      base += prefs(a).domainSize
      a += 1
    }
    acc
  }

  /** Word `w` of `I`, the members identical to `o`. */
  private def same(w: Int, o: Obj): Long = {
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

  /** The first position in `D` (`D ∖ I` if `strict`), or -1. */
  private def first(o: Obj, strict: Boolean): Int = {
    val sel = cone(o, prefs, up = true)
    val words = (n + 63) >>> 6
    var w = 0
    while (w < words) {
      var x = word(w, sel)
      if (strict && x != 0L) x &= ~same(w, o)
      if (x != 0L) return (w << 6) + numberOfTrailingZeros(x)
      w += 1
    }
    -1
  }

  /** The positions below `limit` in `E ∖ I` under `rels`, ascending: the
    * members `o` dominates under `rels`.
    */
  private def below(o: Obj, rels: Array[PrefRelation], limit: Int): List[Int] = {
    val sel = cone(o, rels, up = false)
    var at = List.empty[Int]
    var w = ((limit + 63) >>> 6) - 1
    if (w >= 0) {
      val top = if ((limit & 63) == 0) -1L else (1L << limit) - 1
      var mask = top
      while (w >= 0) {
        var x = word(w, sel) & mask
        if (x != 0L) x &= ~same(w, o)
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
    val p = first(o, strict = false)
    counter.comparisons += (if (p < 0) n else p + 1)
    if (p >= 0 && !java.util.Arrays.equals(objs(p).attrs, o.attrs)) UpdateResult.Dominated
    else {
      val at = below(o, prefs, if (p < 0) n else p)
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
    val p = first(o, strict = true)
    counter.comparisons += (if (p < 0) n else p + 1)
    p >= 0
  }

  /** The scan tests every member. */
  override protected def dominatedBy(o: Obj): List[Obj] = {
    counter.comparisons += n
    below(o, prefs, n).map(objs(_))
  }

  /** The scan tests every member `pc` does not hold. `pc`, a member
    * frontier, holds only members of this filter level (Lemma 1), so that
    * is `size - pc.size` tests. The bitmaps do not depend on the relations,
    * so `E ∖ I` under `pc`'s prefs gives the members `out` dominates there.
    */
  override protected def freedBy(out: Obj, pc: Frontier): List[Obj] = {
    pc.counter.comparisons += n - pc.size
    below(out, pc.prefs, n).map(objs(_)).filterNot(o => pc.contains(o.ts))
  }
}

object SlicedFrontier {
  private val NoBits = new Array[Long](0)
}

package repro.core

/** Object dominance under a vector of per-attribute preference relations
  * (paper Def. 2), one pair at a time: the kernel of the scan store
  * ([[ScanFrontier]]), the count reference of the bit-sliced stores.
  */
object Dominance {
  /** `a` dominates `b`. */
  val Dominates = 1
  /** `b` dominates `a`. */
  val DominatedBy = -1
  /** Neither dominates (some attribute incomparable or trade-off). */
  val Incomparable = 0
  /** Equal on every attribute (Def. 2 "identical"). */
  val Identical = 2

  /** Four-way comparison of `a` vs `b` under `prefs` (one relation per
    * attribute). Bumps `counter` once per call.
    */
  def compare(prefs: Array[PrefRelation], a: Array[Int], b: Array[Int],
              counter: OpCounter): Int = compare(prefs, a, 0, b, 0, counter)

  /** The same comparison of the attribute slices `a(aOff until aOff + d)`
    * and `b(bOff until bOff + d)`, `d = prefs.length`.
    *
    * Each attribute contributes its [[outcomes]] code: bit 0 for "`a`
    * better", bit 1 for "`b` better", both for incomparable values. The OR
    * of all codes is Def. 2: no bit means identical, one bit means that side
    * dominates, and both bits — an incomparable attribute, or `a` better on
    * one attribute and `b` on another — mean neither does.
    */
  def compare(prefs: Array[PrefRelation], a: Array[Int], aOff: Int, b: Array[Int], bOff: Int,
              counter: OpCounter): Int = {
    counter.comparisons += 1
    var acc = 0
    var d = 0
    while (d < prefs.length) {
      val r = prefs(d)
      acc |= outcomes(r)(a(aOff + d) * r.domainSize + b(bOff + d))
      d += 1
    }
    ByCode(acc)
  }

  /** The four-way answer for each OR of outcome codes. */
  private val ByCode = Array(Identical, Dominates, DominatedBy, Incomparable)

  private val tables = new java.util.IdentityHashMap[PrefRelation, Array[Byte]]

  /** `r`'s outcome table: `domainSize²` bytes, entry `x * domainSize + y` is
    * 0 if `x == y`, 1 if `x ≻ y`, 2 if `y ≻ x` and 3 if the two are
    * incomparable. Built from `prefers` on the first call for `r`, and kept.
    */
  def outcomes(r: PrefRelation): Array[Byte] = tables.synchronized {
    var table = tables.get(r)
    if (table == null) {
      val m = r.domainSize
      table = new Array[Byte](m * m)
      for (x <- 0 until m; y <- 0 until m if x != y)
        table(x * m + y) = (if (r.prefers(x, y)) 1 else if (r.prefers(y, x)) 2 else 3).toByte
      tables.put(r, table)
    }
    table
  }
}

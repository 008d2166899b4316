package repro.core

/** An object in the stream: `ts` is both its identity and its timestamp
  * (the paper uses subscripts as timestamps, Sec. VII); `attrs(d)` is the
  * integer-encoded value of attribute `d`.
  */
final case class Obj(ts: Long, attrs: Array[Int]) extends Serializable {
  override def equals(o: Any): Boolean = o match {
    case x: Obj => x.ts == ts && x.attrs.sameElements(attrs)
    case _      => false
  }
  override def hashCode: Int = ts.hashCode
  override def toString: String = s"Obj($ts, ${attrs.mkString("<", ",", ">")})"
}

/** Mutable counter for the paper's "work done" metric: the number of
  * object-pair dominance comparisons performed.
  */
final class OpCounter extends Serializable {
  var comparisons: Long = 0L
}

/** Object dominance under a vector of per-attribute preference relations
  * (paper Def. 2).
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
    * and `b(bOff until bOff + d)`, `d = prefs.length`, so that a frontier
    * can compare against its flat attribute column in place.
    *
    * Each attribute contributes its [[PrefRelation.outcomes]] code: bit 0
    * for "`a` better", bit 1 for "`b` better", both for incomparable values.
    * The OR of all codes is Def. 2: no bit means identical, one bit means
    * that side dominates, and both bits — an incomparable attribute, or
    * `a` better on one attribute and `b` on another — mean neither does.
    * Every attribute is read, with no branch on the values, so the cost of
    * a test does not depend on how it comes out.
    */
  def compare(prefs: Array[PrefRelation], a: Array[Int], aOff: Int, b: Array[Int], bOff: Int,
              counter: OpCounter): Int = {
    counter.comparisons += 1
    var acc = 0
    var d = 0
    while (d < prefs.length) {
      val r = prefs(d)
      acc |= r.outcomes(a(aOff + d) * r.domainSize + b(bOff + d))
      d += 1
    }
    ByCode(acc)
  }

  /** The four-way answer for each OR of outcome codes. */
  private val ByCode = Array(Identical, Dominates, DominatedBy, Incomparable)
}

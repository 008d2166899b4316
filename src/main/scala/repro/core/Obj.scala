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

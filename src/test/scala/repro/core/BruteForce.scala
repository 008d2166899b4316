package repro.core

/** From-scratch golden model used by tests: the Pareto frontier of a plain
  * object collection (Def. 3), or of the alive window (Def. 9), and the
  * Pareto frontier buffer (Def. 10). Dominance is decided from the
  * relations' `prefers` alone, so the model shares no code with the
  * engine's stores, nor with the scan store's kernel [[Dominance.compare]]
  * and its outcome tables.
  */
object BruteForce {

  /** Def. 2: `a ≻ b` iff `a` equals or is preferred on every attribute and
    * differs on one.
    */
  def dominates(prefs: Array[PrefRelation], a: Obj, b: Obj): Boolean =
    prefs.indices.forall(d => a.attrs(d) == b.attrs(d) || prefs(d).prefers(a.attrs(d), b.attrs(d))) &&
      prefs.indices.exists(d => a.attrs(d) != b.attrs(d))

  /** `P = {o : ¬∃ o' ≻ o}` over the given objects. */
  def frontier(prefs: Array[PrefRelation], objects: Seq[Obj]): Set[Long] =
    objects.iterator.filter(o => !objects.exists(p => p.ts != o.ts && dominates(prefs, p, o)))
      .map(_.ts).toSet

  /** Def. 10: alive objects not dominated by any *following* alive object. */
  def buffer(prefs: Array[PrefRelation], objects: Seq[Obj]): Set[Long] =
    objects.iterator.filter(o => !objects.exists(p => p.ts > o.ts && dominates(prefs, p, o)))
      .map(_.ts).toSet
}

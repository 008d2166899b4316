package repro.core

import scala.collection.mutable

/** The scan store: the paper's Alg. 1 procedure and both window mends over
  * the members in insertion order, one [[Dominance.compare]] per member a
  * scan visits. It is the reference for the answers and the comparison
  * counts of [[Frontier]], which derives its counts from bitmaps instead.
  */
final class ScanFrontier(val prefs: Array[PrefRelation], val counter: OpCounter) {

  private val members = mutable.ArrayBuffer.empty[Obj]

  def size: Int = members.size
  def contains(ts: Long): Boolean = members.exists(_.ts == ts)
  def objects: Seq[Obj] = members.toSeq
  def ids: Set[Long] = members.iterator.map(_.ts).toSet

  /** An empty Pareto buffer over the same relations and counter. */
  def newBuffer: ScanFrontier = new ScanFrontier(prefs, counter)

  private def compare(a: Obj, b: Obj): Int = Dominance.compare(prefs, a.attrs, b.attrs, counter)
  private def dominates(a: Obj, b: Obj): Boolean = compare(a, b) == Dominance.Dominates

  /** Alg. 1 `updateParetoFrontier`: dominated or identical stops the scan
    * (identical is still Pareto, Def. 2/3); members dominated by `o` are
    * evicted; if `o` survives it joins.
    */
  def update(o: Obj): UpdateResult = {
    var gone = List.empty[Obj]
    var i = 0
    while (i < members.size) {
      compare(o, members(i)) match {
        case Dominance.DominatedBy => return UpdateResult.Dominated
        case Dominance.Identical   => i = members.size
        case Dominance.Dominates   => gone ::= members(i); i += 1
        case _                     => i += 1
      }
    }
    members --= gone
    insert(o)
    if (gone.isEmpty) UpdateResult.Joined else UpdateResult(isPareto = true, gone.reverse)
  }

  /** [[update]] append-only; a dominator test, then eviction, windowed. */
  def admit(o: Obj, windowed: Boolean): UpdateResult =
    if (!windowed) update(o)
    else if (dominatesNew(o)) UpdateResult.Dominated
    else {
      val gone = evictDominatedBy(o)
      insert(o)
      UpdateResult(isPareto = true, gone)
    }

  def dominatesNew(o: Obj): Boolean = members.exists(dominates(_, o))
  def insert(o: Obj): Unit = members += o
  def remove(ts: Long): Boolean = take(ts).nonEmpty

  def take(ts: Long): Option[Obj] = {
    val i = members.indexWhere(_.ts == ts)
    if (i < 0) None else Some(members.remove(i))
  }

  def evictDominatedBy(o: Obj): Seq[Obj] = {
    val gone = dominatedBy(o)
    members --= gone
    gone
  }

  /** The members `o` dominates, in order: one comparison per member. */
  private def dominatedBy(o: Obj): List[Obj] = members.filter(dominates(o, _)).toList

  /** `mendParetoFrontierSW`: in `buffer` order, each `PB` member `out`
    * dominates and no member dominates joins, each test seeing the
    * promotions before it.
    */
  def mendFromBuffer(out: Obj, buffer: ScanFrontier): Seq[Obj] = {
    val promoted = mutable.ListBuffer.empty[Obj]
    buffer.dominatedBy(out).foreach(o => if (!dominatesNew(o)) { insert(o); promoted += o })
    promoted.toList
  }

  /** The member mend, after `out` has left this `P_c`: the candidates are
    * the members of `filter` this store does not hold that `out` dominates
    * under its prefs, one comparison each; each joins if neither a member
    * nor another candidate dominates it.
    */
  def mendFromFilter(out: Obj, filter: ScanFrontier): Seq[Obj] = {
    val cand = filter.members.filter(o => !contains(o.ts) && dominates(out, o)).toList
    val promoted = cand.filter(o => !dominatesNew(o) && !cand.exists(p => p.ts != o.ts && dominates(p, o)))
    promoted.foreach(insert)
    promoted
  }
}

/** [[Level]] over scan stores: `P`, and windowed its buffer `PB`. */
final class ScanLevel(val frontier: ScanFrontier, windowed: Boolean) {
  lazy val buffer: ScanFrontier = frontier.newBuffer

  def arrive(o: Obj): UpdateResult = {
    val res = frontier.admit(o, windowed)
    if (windowed) {
      buffer.evictDominatedBy(o)
      buffer.insert(o)
    }
    res
  }

  def expire(outTs: Long): Option[Seq[Obj]] = {
    buffer.remove(outTs)
    frontier.take(outTs).map(frontier.mendFromBuffer(_, buffer))
  }
}

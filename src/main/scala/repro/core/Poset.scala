package repro.core

import scala.collection.immutable.BitSet
import scala.collection.mutable

/** A strict partial order over an integer-encoded attribute domain
  * `{0, ..., domainSize-1}` (paper Def. 1).
  *
  * Stored as its transitive closure in flat rows of `words` 64-bit words per
  * value: bit `y` of row `x` means `x ≻ y`. The closure rows are the
  * definition: [[prefers]] reads them, and intersection of relations (Def. 5
  * common preference relation) is a word-wise AND of them — the
  * intersection of two transitively closed relations is transitively
  * closed. The frontier stores read value lists derived from the rows.
  */
final class PrefRelation private (val domainSize: Int, private val rows: Array[Long])
    extends Serializable {

  /** Words per row. */
  private val words: Int = PrefRelation.wordsFor(domainSize)

  /** `x ≻ y`? Both must lie in the domain: a larger `y` reads another row. */
  def prefers(x: Int, y: Int): Boolean = (rows(x * words + (y >>> 6)) & (1L << y)) != 0

  // The value lists the stores read (`Frontier`), entry `v` for value `v`,
  // built on first use, so relations that are only intermediate steps
  // (Alg. 3's `add` chain) never pay for them, and transient, so Spark's
  // serialised state and broadcasts do not carry them.

  /** The values at least as good as `v`: `v` and every `u ≻ v`, ascending. */
  @transient private[core] lazy val atLeast: Array[Array[Int]] =
    Array.tabulate(domainSize)(v => (0 until domainSize).filter(u => u == v || prefers(u, v)).toArray)

  /** The values at most as good as `v`: `v` and every `u` with `v ≻ u`, ascending. */
  @transient private[core] lazy val atMost: Array[Array[Int]] =
    Array.tabulate(domainSize)(v => (0 until domainSize).filter(u => u == v || prefers(v, u)).toArray)

  /** The minimal values of those `v` is not at least as good as, ascending.
    * That set is an up-set, so `u` lies in it iff `u` is at least as good as
    * one of them.
    */
  @transient private[core] lazy val minOut: Array[Array[Int]] =
    Array.tabulate(domainSize) { v =>
      val out = (0 until domainSize).filterNot(u => u == v || prefers(v, u))
      out.filterNot(u => out.exists(prefers(u, _))).toArray
    }

  /** The maximal values of those not at least as good as `v`, ascending.
    * That set is a down-set, so `u` lies in it iff one of them is at least
    * as good as `u`.
    */
  @transient private[core] lazy val maxOut: Array[Array[Int]] =
    Array.tabulate(domainSize) { v =>
      val out = (0 until domainSize).filterNot(u => u == v || prefers(u, v))
      out.filterNot(u => out.exists(prefers(_, u))).toArray
    }

  /** `worse(x)`: the values `y` with `x ≻ y`, as a set (a copy of the row). */
  def worse(x: Int): BitSet = BitSet.fromBitMaskNoCopy(rows.slice(x * words, (x + 1) * words))

  /** All preference tuples `(better, worse)` in the closure. */
  def tuples: Seq[(Int, Int)] =
    for (x <- 0 until domainSize; y <- worse(x)) yield (x, y)

  /** Number of preference tuples `|≻|`. */
  lazy val size: Int = rows.iterator.map(java.lang.Long.bitCount).sum

  /** Common preference relation with `other` (Def. 5): `≻_this ∩ ≻_other`. */
  def intersect(other: PrefRelation): PrefRelation = {
    require(other.domainSize == domainSize, "domain mismatch")
    new PrefRelation(domainSize, Array.tabulate(rows.length)(i => rows(i) & other.rows(i)))
  }

  /** Maximal values (Def. 6): values no other value is preferred to. */
  lazy val maximalValues: BitSet =
    BitSet.fromSpecific((0 until domainSize).filterNot(v => (0 until domainSize).exists(prefers(_, v))))

  /** Hasse-diagram (transitive reduction) successors: `x → y` iff `x ≻ y`
    * and no `z` with `x ≻ z ≻ y`. Distances in the paper (Eq. 4, Ex. 8)
    * are shortest paths in the Hasse diagram, not the closure. Row `x`
    * minus the rows of the values below `x`.
    */
  lazy val hasseSuccessors: Array[BitSet] =
    Array.tabulate(domainSize) { x =>
      val implied = new Array[Long](words)
      worse(x).foreach(z => for (w <- 0 until words) implied(w) |= rows(z * words + w))
      BitSet.fromBitMaskNoCopy(Array.tabulate(words)(w => rows(x * words + w) & ~implied(w)))
    }

  /** Min shortest Hasse distance from any maximal value to `v`;
    * `Int.MaxValue` if unreachable (then `v` is itself maximal: distance 0).
    */
  lazy val minDistFromMaximal: Array[Int] = {
    val dist = Array.fill(domainSize)(Int.MaxValue)
    val queue = mutable.Queue.empty[Int]
    maximalValues.foreach { s => dist(s) = 0; queue += s }
    while (queue.nonEmpty) {
      val x = queue.dequeue()
      hasseSuccessors(x).foreach { y =>
        if (dist(x) + 1 < dist(y)) { dist(y) = dist(x) + 1; queue += y }
      }
    }
    dist
  }

  /** Weight of value `v` per Eq. 4: `1 / (minDistFromMaximal(v) + 1)`. */
  def weight(v: Int): Double = {
    val d = minDistFromMaximal(v)
    if (d == Int.MaxValue) 0.0 else 1.0 / (d + 1.0)
  }

  /** Would adding tuple `(x, y)` keep this a strict partial order?
    * Violations: a value outside the domain, reflexivity (`x == y`) or a
    * cycle (`y ≻* x` already).
    */
  def canAdd(x: Int, y: Int): Boolean =
    x >= 0 && x < domainSize && y >= 0 && y < domainSize && x != y && !prefers(y, x)

  /** Closure of `this ∪ {(x, y)}`; caller must ensure [[canAdd]]. */
  def add(x: Int, y: Int): PrefRelation = {
    require(canAdd(x, y), s"adding ($x,$y) breaks the strict partial order")
    // New pairs: (a, b) for a ∈ {x} ∪ worse⁻¹(x), b ∈ {y} ∪ worse(y).
    val next = rows.clone()
    for (a <- 0 until domainSize if a == x || prefers(a, x)) {
      for (w <- 0 until words) next(a * words + w) |= rows(y * words + w)
      next(a * words + (y >>> 6)) |= 1L << y
    }
    new PrefRelation(domainSize, next)
  }

  override def equals(o: Any): Boolean = o match {
    case p: PrefRelation => p.domainSize == domainSize && java.util.Arrays.equals(p.rows, rows)
    case _               => false
  }
  override def hashCode: Int = java.util.Arrays.hashCode(rows)
  override def toString: String = s"PrefRelation($domainSize, ${tuples.mkString(", ")})"
}

object PrefRelation {

  private def wordsFor(domainSize: Int): Int = (domainSize + 63) >>> 6

  /** The empty relation (no preferences — everything incomparable). */
  def empty(domainSize: Int): PrefRelation =
    new PrefRelation(domainSize, new Array[Long](domainSize * wordsFor(domainSize)))

  /** Build from arbitrary edges, taking the transitive closure.
    * Throws if the closure is not a strict partial order (a cycle exists).
    */
  def fromEdges(domainSize: Int, edges: Iterable[(Int, Int)]): PrefRelation = {
    val words = wordsFor(domainSize)
    val adj = new Array[Long](domainSize * words)
    def has(x: Int, y: Int) = (adj(x * words + (y >>> 6)) & (1L << y)) != 0
    edges.foreach { case (x, y) =>
      require(x != y, s"reflexive tuple ($x,$y)")
      require(x >= 0 && x < domainSize && y >= 0 && y < domainSize, s"value out of domain: ($x,$y)")
      adj(x * words + (y >>> 6)) |= 1L << y
    }
    // Warshall, one word-wise OR of row k into row x per pair.
    for (k <- 0 until domainSize; x <- 0 until domainSize if has(x, k); w <- 0 until words)
      adj(x * words + w) |= adj(k * words + w)
    for (x <- 0 until domainSize)
      require(!has(x, x), s"cycle through value $x — not a strict partial order")
    new PrefRelation(domainSize, adj)
  }

  /** Intersection of many relations — the common preference relation of a
    * cluster (Def. 5). Defined for a non-empty collection.
    */
  def commonOf(rels: Iterable[PrefRelation]): PrefRelation =
    rels.reduce(_ intersect _)
}

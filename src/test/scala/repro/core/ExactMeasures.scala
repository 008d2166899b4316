package repro.core

import Clustering.{ClusterRep, Measure, SimVecWJ, commonRels, plus, simVecJaccard, tupleVector}

/** The paper's Sec. V exact measures (Eqs. 2–5) and the unweighted vector
  * Jaccard (Sec. VI-C, Ex. 13), which only tests cluster with. Each derives
  * what it reads from a cluster's members: their common relations
  * (`Clustering.commonRels`) or their unweighted tuple vectors ([[freq]]).
  */
object ExactMeasures {

  /** A cluster similarity under the name test messages print. */
  final case class Named(name: String, sim: Measure) extends Measure {
    def apply(a: ClusterRep, b: ClusterRep): Double = sim(a, b)
  }

  /** Eq. 2: intersection size `|≻_U1^d ∩ ≻_U2^d|`. */
  def simIntersectionD(a: PrefRelation, b: PrefRelation): Double =
    a.intersect(b).size.toDouble

  /** Eq. 3: Jaccard similarity of the two common relations. */
  def simJaccardD(a: PrefRelation, b: PrefRelation): Double = {
    val inter = a.intersect(b).size
    val union = a.size + b.size - inter
    if (union == 0) 0.0 else inter.toDouble / union
  }

  /** Eq. 4: weighted intersection size — for each common tuple `(v, v')`,
    * the average of `v`'s weights in the two relations.
    */
  def simWeightedIntersectionD(a: PrefRelation, b: PrefRelation): Double =
    a.intersect(b).tuples.iterator.map { case (v, _) => (a.weight(v) + b.weight(v)) / 2.0 }.sum

  /** Eq. 5: weighted Jaccard — weighted intersection over weighted union
    * (tuples exclusive to one relation contribute that relation's weight
    * of the better value).
    */
  def simWeightedJaccardD(a: PrefRelation, b: PrefRelation): Double = {
    val wi = simWeightedIntersectionD(a, b)
    val onlyA = a.tuples.iterator.filter { case (x, y) => !b.prefers(x, y) }
      .map { case (v, _) => a.weight(v) }.sum
    val onlyB = b.tuples.iterator.filter { case (x, y) => !a.prefers(x, y) }
      .map { case (v, _) => b.weight(v) }.sum
    val denom = onlyA + onlyB + wi
    if (denom == 0) 0.0 else wi / denom
  }

  /** Eq. 1 over the clusters' common relations: the average over
    * attributes of `perAttr`.
    */
  private def overCommon(perAttr: (PrefRelation, PrefRelation) => Double): Measure = { (a, b) =>
    val sims = commonRels(a.members).zip(commonRels(b.members)).map(perAttr.tupled)
    sims.sum / sims.length
  }

  /** An unbounded measure normalized to [0, 1] by the maximum possible
    * relation size `m(m-1)/2` (a full chain's closure).
    */
  private def capped(sim: (PrefRelation, PrefRelation) => Double)(x: PrefRelation, y: PrefRelation): Double = {
    val m = x.domainSize
    sim(x, y) / (m * (m - 1) / 2.0)
  }

  val SimI: Named = Named("intersection", overCommon(capped(simIntersectionD)))
  val SimJ: Named = Named("jaccard", overCommon(simJaccardD))
  val SimWI: Named = Named("weighted-intersection", overCommon(capped(simWeightedIntersectionD)))
  val SimWJ: Named = Named("weighted-jaccard", overCommon(simWeightedJaccardD))

  /** Ex. 13's frequency vector of attribute `i`: the sum over `members` of
    * their unweighted tuple vectors.
    */
  def freq(members: Seq[UserPrefs], i: Int): Array[Double] =
    members.map(u => tupleVector(u.rels(i), _ => 1.0)).reduce(plus)

  /** Eq. 1 of the vector Jaccard on [[freq]]. */
  val SimVecJ: Named = Named("vector-jaccard", { (a, b) =>
    val sims = a.members.head.rels.indices.map(i => simVecJaccard(freq(a.members, i), a.size, freq(b.members, i), b.size))
    sims.sum / sims.size
  })

  /** Every measure; the last is `Clustering.SimVecWJ`, the one `src/main` keeps. */
  val all: Seq[Named] = Seq(SimI, SimJ, SimWI, SimWJ, SimVecJ, Named("weighted-vector-jaccard", SimVecWJ))
}

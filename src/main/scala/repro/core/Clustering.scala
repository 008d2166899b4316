package repro.core

import scala.collection.mutable

/** Cluster similarity for users whose preferences are strict partial
  * orders (paper Sec. VI-C, the weighted vector Jaccard), plus conventional
  * hierarchical agglomerative clustering with a dendrogram branch cut `θ(h)`
  * (Def. 7).
  */
object Clustering {

  /** A cluster during clustering: its members and, per attribute, `wfreq`,
    * the sum over members of their weighted [[tupleVector]]s (indicator ×
    * the member's weight of the better value in its own relation, Ex. 14).
    * Sums (not averages) are kept so merging clusters is additive.
    */
  final case class ClusterRep(members: Vector[UserPrefs], wfreq: Vector[Array[Double]]) {
    def size: Int = members.size
  }

  /** Dense tuple vector of one relation over a domain of size `m`: entry
    * `x * m + y` is `weight(x)` if `x ≻ y`, else 0. Sums of these are the
    * Sec. VI-C vectors and Alg. 3's tuple counts (Table V).
    */
  def tupleVector(rel: PrefRelation, weight: Int => Double): Array[Double] = {
    val m = rel.domainSize
    Array.tabulate(m * m)(i => if (rel.prefers(i / m, i % m)) weight(i / m) else 0.0)
  }

  /** Elementwise sum of two tuple vectors over the same domain. */
  def plus(a: Array[Double], b: Array[Double]): Array[Double] =
    Array.tabulate(a.length)(i => a(i) + b(i))

  def singleton(u: UserPrefs): ClusterRep =
    ClusterRep(Vector(u), u.rels.toVector.map(rel => tupleVector(rel, rel.weight)))

  def merge(a: ClusterRep, b: ClusterRep): ClusterRep =
    ClusterRep(a.members ++ b.members, a.wfreq.zip(b.wfreq).map { case (x, y) => plus(x, y) })

  /** Eq. 6: multiset Jaccard `Σ min / Σ max` over per-member tuple
    * frequency vectors (Sec. VI-C Ex. 13). `fa`/`fb` are sums of
    * [[tupleVector]]s; `na`/`nb` the member counts (vectors are sums / count).
    */
  def simVecJaccard(fa: Array[Double], na: Int, fb: Array[Double], nb: Int): Double = {
    var mins = 0.0; var maxs = 0.0
    for (i <- fa.indices) {
      val x = fa(i) / na
      val y = fb(i) / nb
      mins += math.min(x, y); maxs += math.max(x, y)
    }
    if (maxs == 0) 0.0 else mins / maxs
  }

  /** A cluster similarity in [0, 1], so that the branch cut `h ∈ (0, 1]` of
    * Def. 7 is meaningful.
    */
  type Measure = (ClusterRep, ClusterRep) => Double

  /** Combined cluster similarity (Eq. 1) of the weighted vector Jaccard
    * (Ex. 14): the average over attributes of [[simVecJaccard]] on `wfreq`.
    */
  val SimVecWJ: Measure = { (a, b) =>
    val perAttr = a.wfreq.zip(b.wfreq).map { case (x, y) => simVecJaccard(x, a.size, y, b.size) }
    perAttr.sum / perAttr.size
  }

  // ------------------------------------------------------------ dendrogram

  /** One agglomerative merge: the two clusters (by current index snapshot)
    * merged and the similarity at which they merged.
    */
  final case class Merge(left: Set[Int], right: Set[Int], sim: Double)

  /** Full dendrogram: user ids plus the merge sequence (greedy max-sim,
    * conventional hierarchical agglomerative clustering [10]).
    */
  final case class Dendrogram(users: Seq[UserPrefs], merges: Seq[Merge]) {
    /** Branch cut `θ(h)`: apply merges in order while their similarity is
      * ≥ h; h = 1 yields all singletons (Ex. 10).
      */
    def cut(h: Double): Seq[Set[Int]] = {
      val parent = mutable.Map.from(users.map(u => u.userId -> u.userId))
      def find(x: Int): Int = if (parent(x) == x) x else { val r = find(parent(x)); parent(x) = r; r }
      merges.iterator.takeWhile(_.sim >= h).foreach { m =>
        parent(find(m.left.head)) = find(m.right.head)
      }
      users.groupBy(u => find(u.userId)).values.map(_.map(_.userId).toSet).toSeq
    }
  }

  /** Build the dendrogram by greedy agglomeration under `measure`.
    * Cluster ids are the users' positions, then one new id per merge. Each
    * merge scans the similarities of all active pairs, O(k²), and computes
    * the merged cluster's similarities to the rest, O(k · d · m²) under
    * [[SimVecWJ]]; fine for the ≤ 1,000-user scales of the paper.
    * Rejects an empty population, and users whose number of attributes or
    * attribute domain sizes differ from the first user's.
    */
  def dendrogram(users: Seq[UserPrefs], measure: Measure): Dendrogram = {
    require(users.nonEmpty, "no users")
    UserPrefs.requireDomains(users, users.head.rels, s"user ${users.head.userId}")
    val n = users.size
    // reps(id) is null once the cluster is merged, which releases its vectors.
    val reps = new Array[ClusterRep](2 * n - 1)
    // sims(j)(i), i < j: similarity of clusters i and j.
    val sims = new Array[Array[Double]](2 * n - 1)
    def add(id: Int, rep: ClusterRep): Unit = {
      sims(id) = Array.tabulate(id)(i => if (reps(i) == null) 0.0 else measure(reps(i), rep))
      reps(id) = rep
    }
    for ((u, i) <- users.zipWithIndex) add(i, singleton(u))
    val merges = for (id <- n until 2 * n - 1) yield {
      // Highest similarity; ties go to the first pair in (lower id, higher id) order.
      var bi, bj = -1
      var best = Double.NegativeInfinity
      for (i <- 0 until id if reps(i) != null; j <- i + 1 until id if reps(j) != null)
        if (sims(j)(i) > best) { bi = i; bj = j; best = sims(j)(i) }
      val (a, b) = (reps(bi), reps(bj))
      reps(bi) = null; reps(bj) = null; sims(bi) = null; sims(bj) = null
      add(id, merge(a, b))
      Merge(a.members.map(_.userId).toSet, b.members.map(_.userId).toSet, best)
    }
    Dendrogram(users, merges)
  }

  /** Common preference relation vector of a member set (per attribute). */
  def commonRels(members: Seq[UserPrefs]): Array[PrefRelation] = {
    val d = members.head.rels.length
    Array.tabulate(d)(i => PrefRelation.commonOf(members.map(_.rels(i))))
  }

  /** Materialize the clusters of the cut at `h`, in `dendro.cut`'s order,
    * members sorted by user id, with `rels(members)` as the filter relations.
    */
  def clustersAt(dendro: Dendrogram, h: Double)
                (rels: Seq[UserPrefs] => Array[PrefRelation]): Seq[Cluster] = {
    val byId = dendro.users.map(u => u.userId -> u).toMap
    dendro.cut(h).zipWithIndex.map { case (ids, cid) =>
      val members = ids.toSeq.sorted.map(byId)
      Cluster(cid, rels(members), members)
    }
  }

  /** Clusters of the cut at `h` with the exact common relations as the filter. */
  def exactClusters(dendro: Dendrogram, h: Double): Seq[Cluster] =
    clustersAt(dendro, h)(commonRels)
}

package repro.core

import repro.data.PrefSim
import repro.exp.Experiments
import scala.util.Random

/** Seeded random generators and paper fixtures shared by the test suites. */
object TestGen {

  /** Random strict partial order: random topological order, forward edges
    * with probability `p`, transitive closure.
    */
  def randomRelation(rng: Random, domainSize: Int, p: Double = 0.3): PrefRelation = {
    val perm = rng.shuffle((0 until domainSize).toVector)
    val edges = for {
      i <- 0 until domainSize; j <- i + 1 until domainSize
      if rng.nextDouble() < p
    } yield (perm(i), perm(j))
    PrefRelation.fromEdges(domainSize, edges)
  }

  /** Is the given tuple set (after closure) a strict partial order? */
  def isStrictPartialOrder(domainSize: Int, edges: Iterable[(Int, Int)]): Boolean =
    try { PrefRelation.fromEdges(domainSize, edges); true }
    catch { case _: IllegalArgumentException => false }

  /** A user relation "near" a base relation: drop each base tuple's Hasse
    * edge with probability `drop`, add a few random compatible edges —
    * models users in the same latent preference group.
    */
  def perturbedRelation(rng: Random, base: PrefRelation, drop: Double = 0.2,
                        addTries: Int = 3): PrefRelation = {
    val m = base.domainSize
    val edges = (for {
      x <- 0 until m; y <- base.hasseSuccessors(x)
      if rng.nextDouble() >= drop
    } yield (x, y)).toVector
    var rel = PrefRelation.fromEdges(m, edges)
    (0 until addTries).foreach { _ =>
      val x = rng.nextInt(m); val y = rng.nextInt(m)
      if (rel.canAdd(x, y)) rel = rel.add(x, y)
    }
    rel
  }

  def randomUsers(rng: Random, nUsers: Int, domains: Seq[Int], nGroups: Int = 3): Seq[UserPrefs] = {
    val bases = (0 until nGroups).map(_ => domains.map(m => randomRelation(rng, m)).toArray)
    (0 until nUsers).map { uid =>
      val base = bases(uid % nGroups)
      UserPrefs(uid, base.map(perturbedRelation(rng, _)))
    }
  }

  def randomObjects(rng: Random, n: Int, domains: Seq[Int], startTs: Long = 1): Seq[Obj] =
    (0 until n).map(i => Obj(startTs + i, domains.map(m => rng.nextInt(m)).toArray))

  /** Random clustering of users into contiguous groups (exact common
    * relations as filters) — for equivalence tests that don't care how
    * clusters were formed.
    */
  def randomExactClusters(rng: Random, users: Seq[UserPrefs], nClusters: Int): Seq[Cluster] = {
    val shuffled = rng.shuffle(users.toVector)
    val groups = shuffled.zipWithIndex.groupBy(_._2 % nClusters).toSeq.sortBy(_._1)
    groups.map { case (cid, pairs) =>
      val members = pairs.map(_._1)
      Cluster(cid, Clustering.commonRels(members), members)
    }
  }

  /** PrefSim populations for kernel checks at generator scale: movie,
    * publication, and a movie-like one whose 130- and 70-value domains take
    * several closure words per row. Three users per latent group.
    */
  val prefSimConfigs: Seq[PrefSim.SimConfig] = {
    val movie = PrefSim.movieConfig(nUsers = 36)
    Seq(movie, PrefSim.publicationConfig(nUsers = 30),
      movie.copy(name = "wide", attrs = Vector(PrefSim.AttrConfig("actor", 130),
        PrefSim.AttrConfig("director", 70), PrefSim.AttrConfig("genre", 18))))
  }

  /** Relation vectors of every kind the engine compares under, from one
    * population: two users' own relations, the common relations of latent
    * group 0 (Def. 5, by `intersect`) and that group's Alg. 3 relations,
    * built tuple by tuple with `add`. Threshold2 is 0.5, not the
    * experiments' 0.9, so that Alg. 3 adds tuples beyond the common ones.
    */
  def prefSimRelations(cfg: PrefSim.SimConfig): Seq[(String, Array[PrefRelation])] = {
    val users = PrefSim.users(cfg)
    val group = users.filter(_.userId % cfg.nGroups == 0)
    users.take(2).map(u => s"${cfg.name} user ${u.userId}" -> u.rels) ++ Seq(
      s"${cfg.name} common" -> Clustering.commonRels(group),
      s"${cfg.name} Alg. 3" -> ApproxPrefs.approxRels(group, Experiments.threshold1For, 0.5))
  }

  // ------------------------------------------------------- paper fixtures

  /** Table IV brand domain encoding. */
  val A = 0; val L = 1; val S = 2; val T = 3
  val BrandNames: Map[Int, String] = Map(A -> "Apple", L -> "Lenovo", S -> "Samsung", T -> "Toshiba")

  /** Table IV user preferences on brand (reconstructed — every similarity
    * value of Examples 6-9 and vector of Examples 13-14 is implied).
    */
  val tableIvC1: PrefRelation = PrefRelation.fromEdges(4, Seq((A, L), (L, S), (T, S)))
  val tableIvC2: PrefRelation = PrefRelation.fromEdges(4, Seq((A, L), (L, S), (T, L)))
  val tableIvC3: PrefRelation = PrefRelation.fromEdges(4, Seq((S, L), (L, A), (L, T)))
  val tableIvC4: PrefRelation = PrefRelation.fromEdges(4, Seq((S, L), (L, A), (A, T)))
  val tableIvC5: PrefRelation = PrefRelation.fromEdges(4, Seq((L, A), (L, T), (A, S), (T, S)))
  val tableIvC6: PrefRelation = PrefRelation.fromEdges(4, Seq((L, A), (A, T), (A, S)))

  val tableIvU1: PrefRelation = tableIvC1.intersect(tableIvC2)
  val tableIvU2: PrefRelation = tableIvC3.intersect(tableIvC4)
  val tableIvU3: PrefRelation = tableIvC5.intersect(tableIvC6)

  /** Example 3 CPU domain encoding. */
  val Single = 0; val Dual = 1; val Triple = 2; val Quad = 3

  val cpuC1: PrefRelation =
    PrefRelation.fromEdges(4, Seq((Dual, Triple), (Dual, Quad), (Triple, Single), (Quad, Single)))
  val cpuC2: PrefRelation =
    PrefRelation.fromEdges(4, Seq((Quad, Triple), (Triple, Dual), (Dual, Single)))

  /** Example 11 / Fig. 3a: three users' brand preferences whose tuple
    * frequencies reproduce Table V exactly.
    */
  val fig3aU1: PrefRelation = PrefRelation.fromEdges(4, Seq((A, T), (L, T), (T, S)))
  val fig3aU2: PrefRelation = PrefRelation.fromEdges(4, Seq((A, T), (T, S), (S, L)))
  val fig3aU3: PrefRelation = PrefRelation.fromEdges(4, Seq((S, L), (L, T), (A, T)))
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestGen._
import Clustering._
import ExactMeasures._

class ClusteringSpec extends AnyFunSuite {

  private def rep(rels: PrefRelation*): ClusterRep = {
    val users = rels.zipWithIndex.map { case (r, i) => UserPrefs(i, Array(r)) }
    users.map(singleton).reduce(merge)
  }

  private val repU1 = rep(tableIvC1, tableIvC2)
  private val repU3 = rep(tableIvC5, tableIvC6)

  // ------------------------------------------------ exact measures (Sec. V)

  test("Example 6: sim_i(U1,U2) = 0") {
    assert(simIntersectionD(tableIvU1, tableIvU2) == 0.0)
  }

  test("Example 6: sim_i(U1,U3) = 2 via common tuples (A,S) and (L,S)") {
    assert(simIntersectionD(tableIvU1, tableIvU3) == 2.0)
    assert(tableIvU1.intersect(tableIvU3).tuples.toSet == Set((A, S), (L, S)))
  }

  test("Example 6: sim_i(U2,U3) = 2 via common tuples (L,A) and (L,T)") {
    assert(simIntersectionD(tableIvU2, tableIvU3) == 2.0)
    assert(tableIvU2.intersect(tableIvU3).tuples.toSet == Set((L, A), (L, T)))
  }

  test("Example 7: sim_j(U1,U3) = 2/6 and sim_j(U2,U3) = 2/7") {
    assert(simJaccardD(tableIvU1, tableIvU3) === 2.0 / 6)
    assert(simJaccardD(tableIvU2, tableIvU3) === 2.0 / 7)
    assert(simJaccardD(tableIvU1, tableIvU3) > simJaccardD(tableIvU2, tableIvU3))
  }

  test("Example 8: sim_wi(U1,U3) = sim_wi(U2,U3) = 3/2") {
    assert(simWeightedIntersectionD(tableIvU1, tableIvU3) === 1.5)
    assert(simWeightedIntersectionD(tableIvU2, tableIvU3) === 1.5)
  }

  test("Example 9: sim_wj(U1,U3) = 3/11 and sim_wj(U2,U3) = 3/12") {
    assert(math.abs(simWeightedJaccardD(tableIvU1, tableIvU3) - 3.0 / 11) < 1e-12)
    assert(math.abs(simWeightedJaccardD(tableIvU2, tableIvU3) - 3.0 / 12) < 1e-12)
    assert(simWeightedJaccardD(tableIvU1, tableIvU3) > simWeightedJaccardD(tableIvU2, tableIvU3))
  }

  // ------------------------------------- approximate measures (Sec. VI-C)

  /** Entry `(x, y)` of a tuple vector over the Table IV domain. */
  private def entry(v: Array[Double], x: Int, y: Int): Double = v(x * tableIvU1.domainSize + y)

  test("Example 13: U1 frequency vector entries") {
    val f = entry(freq(repU1.members, 0), _, _)
    assert(f(A, L) == 2.0 && f(A, S) == 2.0 && f(L, S) == 2.0)
    assert(f(T, L) == 1.0 && f(T, S) == 2.0)
    assert(f(L, A) == 0.0 && f(S, A) == 0.0)
  }

  test("Example 13: vector Jaccard sim_j(U1,U3) = 2.5/7 ≈ 0.36") {
    val s = simVecJaccard(freq(repU1.members, 0), 2, freq(repU3.members, 0), 2)
    assert(math.abs(s - 2.5 / 7.0) < 1e-12)
    assert(math.abs(s - 0.36) < 0.01)
  }

  test("Example 14: weighted vector entries — U3 has 1/4 in the (A,T) dimension") {
    val wf = entry(repU3.wfreq.head, _, _)
    assert(wf(A, T) / 2 == 0.25) // only c6 contains (A,T); weight of A in c6 is 1/2
    assert(wf(L, A) / 2 == 1.0)  // both contain it, L maximal in both
  }

  test("Example 14: weighted vector Jaccard sim_wj(U1,U3) = 1.25/6.75 ≈ 0.19") {
    val s = simVecJaccard(repU1.wfreq.head, 2, repU3.wfreq.head, 2)
    assert(math.abs(s - 1.25 / 6.75) < 1e-12)
    assert(math.abs(s - 0.19) < 0.01)
  }

  // --------------------------------------------------- dendrogram (Def. 7)

  test("Example 10: branch cut at h=1 yields all singletons") {
    val users = Seq(tableIvC1, tableIvC2, tableIvC3, tableIvC4, tableIvC5, tableIvC6)
      .zipWithIndex.map { case (r, i) => UserPrefs(i, Array(r)) }
    val d = dendrogram(users, SimWJ)
    assert(d.cut(1.0 + 1e-9).map(_.size).sorted == Seq(1, 1, 1, 1, 1, 1))
  }

  test("Example 10: branch cut 3/11 ≥ t > 0 yields {{c1,c2,c5,c6},{c3,c4}}") {
    val users = Seq(tableIvC1, tableIvC2, tableIvC3, tableIvC4, tableIvC5, tableIvC6)
      .zipWithIndex.map { case (r, i) => UserPrefs(i, Array(r)) }
    val d = dendrogram(users, SimWJ)
    val clusters = d.cut(0.2).map(_.toSeq.sorted).sortBy(_.head)
    assert(clusters == Seq(Seq(0, 1, 4, 5), Seq(2, 3)))
  }

  test("merges are recorded with their similarity; first merge is the closest pair") {
    val users = Seq(tableIvC1, tableIvC2, tableIvC3, tableIvC4, tableIvC5, tableIvC6)
      .zipWithIndex.map { case (r, i) => UserPrefs(i, Array(r)) }
    val d = dendrogram(users, SimWJ)
    assert(d.merges.size == users.size - 1)
    // (c3,c4) is the closest pair under sim_wj (common relation of 5 tuples).
    assert(d.merges.head.left ++ d.merges.head.right == Set(2, 3))
  }

  test("similarity is symmetric for all measures") {
    all.foreach { m =>
      assert(m(repU1, repU3) === m(repU3, repU1), m.name)
    }
  }

  test("self-similarity is maximal for Jaccard measures") {
    all.filter(_.name.endsWith("jaccard")).foreach { m =>
      assert(math.abs(m(repU1, repU1) - 1.0) < 1e-12, m.name)
    }
  }

  for (seed <- 0 until 6)
    test(s"all measures lie in [0,1] after normalization (seed=$seed)") {
      val rng = new Random(seed)
      val a = rep(randomRelation(rng, 6), randomRelation(rng, 6))
      val b = rep(randomRelation(rng, 6), randomRelation(rng, 6))
      all.foreach { m =>
        val s = m(a, b)
        assert(s >= 0.0 && s <= 1.0, s"${m.name} gave $s")
      }
    }

  test("merge accumulates members and intersects common relations") {
    val m = merge(repU1, repU3)
    assert(m.size == 4)
    assert(m.members == repU1.members ++ repU3.members)
    assert(m.wfreq.head.toSeq == repU1.wfreq.head.zip(repU3.wfreq.head).map { case (x, y) => x + y }.toSeq)
    assert(commonRels(m.members).head == tableIvU1.intersect(tableIvU3))
  }

  for (seed <- 0 until 4)
    test(s"clustering recovers latent user groups with high purity (seed=$seed)") {
      val rng = new Random(50 + seed)
      val users = randomUsers(rng, 12, Seq(8, 8), nGroups = 3)
      val d = dendrogram(users, SimVecWJ)
      // Cut to roughly 3 clusters; perturbation noise means recovery is
      // statistical, so require ≥ 75% purity (majority-group fraction).
      val sims = d.merges.map(_.sim)
      val h = sims(users.size - 1 - 3) // similarity of the last allowed merge
      val clusters = d.cut(h).map(_.toSeq.sorted)
      val purity = clusters.map(c => c.groupBy(_ % 3).values.map(_.size).max).sum.toDouble / users.size
      assert(purity >= 0.75, s"purity $purity for clusters $clusters")
    }

  test("exactClusters materializes the common relation per cluster") {
    val users = Seq(tableIvC1, tableIvC2).zipWithIndex.map { case (r, i) => UserPrefs(i, Array(r)) }
    val d = dendrogram(users, SimWJ)
    val cs = exactClusters(d, h = 0.5)
    assert(cs.size == 1)
    assert(cs.head.filterRels.head == tableIvU1)
  }

  test("dendrogram rejects a user with fewer attributes, naming the user") {
    val users = Seq(UserPrefs(0, Array(tableIvC1, tableIvC2)), UserPrefs(7, Array(tableIvC3)))
    val e = intercept[IllegalArgumentException](dendrogram(users, SimVecWJ))
    assert(e.getMessage.contains("user 7, attribute 1: domain sizes (4)"))
  }

  test("dendrogram rejects mismatched domain sizes, naming the user and attribute") {
    val users = Seq(UserPrefs(0, Array(tableIvC1, tableIvC2)),
      UserPrefs(5, Array(tableIvC1, PrefRelation.fromEdges(6, Seq((4, 5))))))
    val e = intercept[IllegalArgumentException](dendrogram(users, SimVecWJ))
    assert(e.getMessage.contains("user 5, attribute 1: domain sizes (4, 6)"))
  }

  test("dendrogram rejects an empty population") {
    intercept[IllegalArgumentException](dendrogram(Nil, SimVecWJ))
  }
}

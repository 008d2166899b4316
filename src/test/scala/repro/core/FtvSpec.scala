package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestGen._

/** FilterThenVerify correctness: exact-cluster runs must reproduce
  * Baseline's target users and frontiers exactly (Thm. 2 / Lemma 1 say the
  * filter only discards true negatives), with fewer comparisons.
  */
class FtvSpec extends AnyFunSuite {

  private def randomScenario(seed: Int, nUsers: Int = 12, nObjs: Int = 80) = {
    val rng = new Random(seed)
    val domains = Seq(5, 6, 4)
    val users = randomUsers(rng, nUsers, domains)
    val objects = randomObjects(rng, nObjs, domains)
    val clusters = randomExactClusters(rng, users, 1 + rng.nextInt(4))
    (users, objects, clusters)
  }

  for (seed <- 0 until 12)
    test(s"FilterThenVerifyExact emits the same target users as Baseline (seed=$seed)") {
      val (users, objects, clusters) = randomScenario(seed)
      val base = Baseline.run(users, objects)
      val ftv = FilterThenVerify.run(clusters, objects)
      assert(ftv.emissions == base.emissions)
    }

  for (seed <- 0 until 12)
    test(s"FilterThenVerifyExact final frontiers equal Baseline's (seed=$seed)") {
      val (users, objects, clusters) = randomScenario(seed)
      val base = Baseline.run(users, objects)
      val ftv = FilterThenVerify.run(clusters, objects)
      assert(ftv.frontiers == base.frontiers)
    }

  for (seed <- 0 until 6)
    test(s"per-user frontiers equal the brute-force Pareto frontier (seed=$seed)") {
      val (users, objects, clusters) = randomScenario(seed, nUsers = 8, nObjs = 60)
      val ftv = FilterThenVerify.run(clusters, objects)
      users.foreach { u =>
        assert(ftv.frontiers(u.userId) == BruteForce.frontier(u.rels, objects))
      }
    }

  for (seed <- 0 until 6)
    test(s"Theorem 2: P_U ⊇ P_c for every cluster member (seed=$seed)") {
      val (users, objects, clusters) = randomScenario(seed)
      clusters.foreach { cl =>
        val pU = BruteForce.frontier(cl.filterRels, objects)
        cl.members.foreach { u =>
          val pC = BruteForce.frontier(u.rels, objects)
          assert(pC.subsetOf(pU), s"cluster ${cl.clusterId} user ${u.userId}")
        }
      }
    }

  for (seed <- 0 until 4)
    test(s"Lemma 1: every member's P_c stays within its cluster's P_aU at every step (seed=$seed)") {
      // Approximate filters: an object `≻_aU` evicts need not be dominated
      // for a member, so only the cascade takes it out of `P_c`.
      val rng = new Random(700 + seed)
      val domains = Seq(5, 5)
      val users = randomUsers(rng, 8, domains, nGroups = 2)
      val objects = randomObjects(rng, 80, domains)
      val clusters = users.grouped(4).toSeq.zipWithIndex.map { case (members, cid) =>
        Cluster(cid, ApproxPrefs.approxRels(members, threshold1 = _ => 12, threshold2 = 0.4), members)
      }
      val states = clusters.map(new FilterThenVerify.ClusterState(_))
      objects.zipWithIndex.foreach { case (o, i) =>
        states.foreach { st =>
          st.onArrival(o)
          st.frontierIds.foreach { case (uid, ids) =>
            assert(ids.subsetOf(st.filterFrontier.ids), s"user $uid step $i: P_c not within P_U")
          }
        }
      }
    }

  for (seed <- 0 until 6)
    test(s"FilterThenVerify does at most as many comparisons as Baseline with singleton clusters (seed=$seed)") {
      val (users, objects, _) = randomScenario(seed, nUsers = 16, nObjs = 100)
      // Clusters aligned with the latent preference groups (uid % 3), the
      // regime the paper's filter is designed for.
      val clusters = users.groupBy(_.userId % 3).toSeq.sortBy(_._1).map {
        case (cid, ms) => Cluster(cid, Clustering.commonRels(ms), ms)
      }
      val base = Baseline.run(users, objects)
      val ftv = FilterThenVerify.run(clusters, objects)
      // Not guaranteed in adversarial cases, but on grouped users the
      // filter should prune: assert a sane upper bound (filter overhead
      // bounded by cluster-frontier scans).
      assert(ftv.comparisons <= base.comparisons * 2,
        s"ftv=${ftv.comparisons} base=${base.comparisons}")
    }

  test("single cluster of one user behaves exactly like Baseline for that user") {
    val rng = new Random(42)
    val domains = Seq(5, 5)
    val users = randomUsers(rng, 1, domains)
    val objects = randomObjects(rng, 50, domains)
    val cluster = Cluster(0, users.head.rels, users)
    val base = Baseline.run(users, objects)
    val ftv = FilterThenVerify.run(Seq(cluster), objects)
    assert(ftv.frontiers == base.frontiers)
    assert(ftv.emissions == base.emissions)
  }

  test("filter prunes: a dominated-by-common-prefs object reaches no user frontier") {
    // Cluster of two users who both prefer dual over single CPU.
    val users = Seq(UserPrefs(0, Array(cpuC1)), UserPrefs(1, Array(cpuC2)))
    val cluster = Cluster(0, Clustering.commonRels(users), users)
    val objects = Seq(Obj(1, Array(Dual)), Obj(2, Array(Single)))
    val ftv = FilterThenVerify.run(Seq(cluster), objects)
    assert(ftv.emissions == Seq(Emission(1, Set(0, 1)), Emission(2, Set.empty)))
    assert(ftv.frontiers(0) == Set(1L) && ftv.frontiers(1) == Set(1L))
  }

  test("duplicate timestamps are rejected, not answered from an overwritten frontier") {
    // Two incomparable objects share ts = 1; frontiers are keyed by ts, so
    // the second would replace the first and a later object dominated only
    // by the first would reach the user.
    val user = UserPrefs(0, Array(cpuC1, cpuC2))
    val objects = Seq(Obj(1, Array(Dual, Single)), Obj(1, Array(Triple, Quad)),
      Obj(2, Array(Quad, Single)))
    for (run <- Seq(() => Baseline.run(Seq(user), objects),
                    () => FilterThenVerify.run(Seq(Cluster(0, user.rels, Seq(user))), objects),
                    () => FilterThenVerifySW.run(Seq(Cluster(0, user.rels, Seq(user))), objects, 2))) {
      val e = intercept[IllegalArgumentException](run())
      assert(e.getMessage.contains("out-of-order arrival 1 after 1"))
    }
  }

  test("an arrival outside the attribute domains is rejected on entry, even as the first") {
    // With no member to compare against, a first arrival reads no closure
    // row; a later comparison would read another value's bits or fail.
    val user = UserPrefs(0, Array(cpuC1, tableIvU1)) // domains 4 and 4
    val cluster = Cluster(0, user.rels, Seq(user))
    val bad = Seq(Obj(1, Array(Dual, 4)) -> "value 4 of attribute 1 is outside its domain 0 until 4",
                  Obj(1, Array(-1, A)) -> "value -1 of attribute 0 is outside its domain 0 until 4",
                  Obj(1, Array(Dual)) -> "object 1 has 1 attributes, the preferences 2")
    for ((o, msg) <- bad; window <- Seq(None, Some(2))) {
      val states = Seq(new Baseline.State(Seq(user), new OpCounter, window.isDefined),
                       new FilterThenVerify.ClusterState(cluster, new OpCounter, window.isDefined))
      for (st <- states) {
        val e = intercept[IllegalArgumentException](st.onArrival(o))
        assert(e.getMessage.contains(msg))
        assert(st.frontierIds.values.forall(_.isEmpty))
      }
      intercept[IllegalArgumentException](Baseline.run(Seq(user), Seq(o, Obj(2, Array(Dual, A))), window))
    }
  }

  // ------------------------------------------------------- approximate FTV

  for (seed <- 0 until 8)
    test(s"FilterThenVerifyApprox: perfect precision guarantee does not hold in theory, " +
      s"but P_ac ∩ pruned objects stay consistent with Thm. 4 (seed=$seed)") {
      val rng = new Random(seed)
      val domains = Seq(5, 5)
      val users = randomUsers(rng, 8, domains, nGroups = 2)
      val objects = randomObjects(rng, 60, domains)
      val groups = users.grouped(4).toSeq
      val clusters = groups.zipWithIndex.map { case (members, cid) =>
        Cluster(cid, ApproxPrefs.approxRels(members, threshold1 = _ => 12, threshold2 = 0.4), members)
      }
      val approx = FilterThenVerify.run(clusters, objects)
      clusters.foreach { cl =>
        val paU = BruteForce.frontier(cl.filterRels, objects)
        cl.members.foreach { u =>
          val pC = BruteForce.frontier(u.rels, objects)
          val paC = approx.frontiers(u.userId)
          // Theorem 4: P_aU ∩ P_c ⊆ P_ac.
          assert((paU & pC).subsetOf(paC),
            s"user ${u.userId}: paU∩pC=${paU & pC} paC=$paC")
        }
      }
    }

  for (seed <- 0 until 8)
    test(s"Theorem 3: P_aU ⊆ P_U (approx filter frontier within exact one) (seed=$seed)") {
      val rng = new Random(300 + seed)
      val domains = Seq(6, 5)
      val users = randomUsers(rng, 6, domains, nGroups = 1)
      val objects = randomObjects(rng, 50, domains)
      val exactRels = Clustering.commonRels(users)
      val approxRels = ApproxPrefs.approxRels(users, threshold1 = _ => 15, threshold2 = 0.3)
      val pU = BruteForce.frontier(exactRels, objects)
      val paU = BruteForce.frontier(approxRels, objects)
      assert(paU.subsetOf(pU), s"paU=$paU pU=$pU")
    }
}

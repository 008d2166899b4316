package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.PrefSim
import repro.exp.Experiments
import scala.util.Random
import TestGen._

/** Sliding-window correctness (Sec. VII): both BaselineSW and
  * FilterThenVerifySW must track, at every step, the brute-force Pareto
  * frontier of the alive window (Def. 9), and their Pareto buffers must
  * match Def. 10.
  */
class SlidingWindowSpec extends AnyFunSuite {

  private val PrefSimN = 240
  private val PrefSimW = 60

  /** Step-by-step checker: replay the stream through a windowed Baseline
    * state while checking each user's frontier and buffer against brute
    * force.
    */
  private def checkBaselineSW(users: Seq[UserPrefs], objects: Seq[Obj], w: Int): Unit = {
    val st = new Baseline.State(users, new OpCounter, windowed = true)
    val sorted = objects.sortBy(_.ts)
    sorted.zipWithIndex.foreach { case (o, i) =>
      if (i >= w) st.onExpiry(sorted(i - w).ts)
      st.onArrival(o)
      val alive = sorted.slice(math.max(0, i - w + 1), i + 1)
      users.foreach { u =>
        val level = st.frontiers(u.userId)
        assert(level.ids == BruteForce.frontier(u.rels, alive),
          s"user ${u.userId} step $i frontier mismatch")
        assert(level.buffer.ids == BruteForce.buffer(u.rels, alive),
          s"user ${u.userId} step $i buffer mismatch")
      }
    }
  }

  /** The same check for windowed FilterThenVerify clusters: each
    * cluster's `P_U` and `PB_U`, and each member's `P_c`, at every step.
    */
  private def checkFtvSW(users: Seq[UserPrefs], clusters: Seq[Cluster], objects: Seq[Obj], w: Int): Unit = {
    val counters = clusters.map(_ => new OpCounter)
    val states = clusters.zip(counters).map { case (c, k) => new FilterThenVerifySW.ClusterState(c, k) }
    val sorted = objects.sortBy(_.ts)
    val byId = users.map(u => u.userId -> u).toMap
    sorted.zipWithIndex.foreach { case (o, i) =>
      if (i >= w) states.foreach(_.onExpiry(sorted(i - w).ts))
      states.foreach(_.onArrival(o))
      val alive = sorted.slice(math.max(0, i - w + 1), i + 1)
      states.foreach { st =>
        assert(st.filterFrontier.ids == BruteForce.frontier(st.cluster.filterRels, alive),
          s"cluster ${st.cluster.clusterId} step $i P_U mismatch")
        assert(st.buffer.ids == BruteForce.buffer(st.cluster.filterRels, alive),
          s"cluster ${st.cluster.clusterId} step $i PB_U mismatch")
        st.frontierIds.foreach { case (uid, ids) =>
          assert(ids == BruteForce.frontier(byId(uid).rels, alive),
            s"user $uid step $i P_c mismatch (alive=${alive.map(_.ts)})")
          // Lemma 1, which the member mend's comparison count rests on.
          assert(ids.subsetOf(st.filterFrontier.ids), s"user $uid step $i: P_c not within P_U")
        }
      }
    }
  }

  for (seed <- 0 until 8)
    test(s"BaselineSW frontier and buffer match Defs. 9/10 at every step (seed=$seed)") {
      val rng = new Random(seed)
      val domains = Seq(4, 5)
      val users = randomUsers(rng, 4, domains)
      val objects = randomObjects(rng, 60, domains)
      checkBaselineSW(users, objects, w = 8 + rng.nextInt(12))
    }

  for (seed <- 0 until 8)
    test(s"FilterThenVerifySW tracks the brute-force windowed frontier (seed=$seed)") {
      val rng = new Random(100 + seed)
      val domains = Seq(4, 5)
      val users = randomUsers(rng, 8, domains)
      val objects = randomObjects(rng, 70, domains)
      val clusters = randomExactClusters(rng, users, 3)
      checkFtvSW(users, clusters, objects, w = 10 + rng.nextInt(10))
    }

  // PrefSim populations (movie, publication, and "wide", whose 130- and
  // 70-value domains take several closure words per row) over a Zipf
  // stream that slides the window several times over.
  for (cfg <- prefSimConfigs)
    test(s"BaselineSW matches Defs. 9/10 at every step on PrefSim ${cfg.name} users") {
      val users = PrefSim.users(cfg).filter(_.userId % cfg.nGroups < 2)
      checkBaselineSW(users, PrefSim.objects(cfg, PrefSimN), PrefSimW)
    }

  for (cfg <- prefSimConfigs)
    test(s"FilterThenVerifySW matches Defs. 9/10 at every step on PrefSim ${cfg.name} clusters (SimVecWJ, h = 0.55)") {
      val users = PrefSim.users(cfg)
      val clusters = Clustering.exactClusters(Clustering.dendrogram(users, Clustering.SimVecWJ), 0.55)
      checkFtvSW(users, clusters, PrefSim.objects(cfg, PrefSimN), PrefSimW)
    }

  // Approximate filters (Alg. 3): `P_c` is not the user's frontier, but it
  // must stay within `P_aU` (Lemma 1), which the member mend's comparison
  // count rests on.
  for (cfg <- prefSimConfigs.take(2))
    test(s"FilterThenVerifySW keeps every P_c within P_aU at every step on PrefSim ${cfg.name} Alg. 3 clusters") {
      val users = PrefSim.users(cfg)
      val clusters = Clustering.clustersAt(Clustering.dendrogram(users, Clustering.SimVecWJ), 0.55)(
        ApproxPrefs.approxRels(_, Experiments.threshold1For, 0.5))
      val states = clusters.map(new FilterThenVerifySW.ClusterState(_, new OpCounter))
      val sorted = PrefSim.objects(cfg, PrefSimN).sortBy(_.ts)
      sorted.zipWithIndex.foreach { case (o, i) =>
        if (i >= PrefSimW) states.foreach(_.onExpiry(sorted(i - PrefSimW).ts))
        states.foreach { st =>
          st.onArrival(o)
          st.frontierIds.foreach { case (uid, ids) =>
            assert(ids.subsetOf(st.filterFrontier.ids), s"user $uid step $i: P_c not within P_aU")
          }
        }
      }
    }

  for (seed <- 0 until 6)
    test(s"FilterThenVerifySW and BaselineSW emit identical target users (seed=$seed)") {
      val rng = new Random(200 + seed)
      val domains = Seq(5, 4)
      val users = randomUsers(rng, 6, domains)
      val objects = randomObjects(rng, 80, domains)
      val clusters = randomExactClusters(rng, users, 2)
      val w = 12 + rng.nextInt(8)
      val base = Baseline.run(users, objects, Some(w))
      val ftv = FilterThenVerifySW.run(clusters, objects, w)
      assert(ftv.emissions.map(e => e.ts -> e.users).toMap == base.emissions.map(e => e.ts -> e.users).toMap)
      assert(ftv.frontiers == base.frontiers)
    }

  test("window larger than the stream behaves like the append-only algorithms") {
    val rng = new Random(7)
    val domains = Seq(5, 5)
    val users = randomUsers(rng, 5, domains)
    val objects = randomObjects(rng, 40, domains)
    val swRun = Baseline.run(users, objects, window = Some(1000))
    val plain = Baseline.run(users, objects)
    assert(swRun.frontiers == plain.frontiers)
    // Arrival-time emissions agree (no expiries ever happen).
    assert(swRun.emissions.map(e => e.ts -> e.users).toMap == plain.emissions.map(e => e.ts -> e.users).toMap)
  }

  for (w <- Seq(0, -3))
    test(s"a non-positive window (W=$w) is rejected, not run as append-only") {
      val rng = new Random(13)
      val domains = Seq(4, 4)
      val users = randomUsers(rng, 4, domains)
      val objects = randomObjects(rng, 20, domains)
      val clusters = randomExactClusters(rng, users, 2)
      intercept[IllegalArgumentException](Baseline.run(users, objects, Some(w)))
      intercept[IllegalArgumentException](FilterThenVerify.run(clusters, objects, Some(w)))
    }

  test("Theorem 5: an object dominated by a later object never re-enters the frontier") {
    // cpuC1: dual ≻ quad; o1=quad arrives, o2=dual dominates it, then o2
    // expires — o1 must NOT come back (it left the buffer for good).
    val users = Seq(UserPrefs(0, Array(cpuC1)))
    val objects = Seq(Obj(1, Array(Quad)), Obj(2, Array(Dual)),
      Obj(3, Array(Single)), Obj(4, Array(Single)))
    val res = Baseline.run(users, objects, window = Some(2))
    // Window (2,4]: alive = {o3,o4}; o1 was dominated by o2 and is gone
    // even though o2 has expired.
    assert(res.frontiers(0) == Set(3L, 4L))
  }

  test("Example 16 shape: mend promotes buffered objects when their dominator expires") {
    // Single attribute, chain 0 ≻ 1 ≻ 2. Stream: v1, v0, v1, v2 with W=3.
    val chain = PrefRelation.fromEdges(3, Seq((0, 1), (1, 2)))
    val users = Seq(UserPrefs(0, Array(chain)))
    val objects = Seq(Obj(1, Array(1)), Obj(2, Array(0)), Obj(3, Array(1)), Obj(4, Array(2)))
    val res = Baseline.run(users, objects, window = Some(3))
    // After ts=4 arrives, ts=1 expired; alive {2,3,4}: frontier = {2} (value 0).
    assert(res.frontiers(0) == Set(2L))
    // One more arrival expires ts=2 (the dominator): ts=3 (value 1) must be mended in.
    val res2 = Baseline.run(users, objects :+ Obj(5, Array(2)), window = Some(3))
    assert(res2.frontiers(0) == Set(3L))
    // The promoted object is credited to C_o (late dissemination).
    assert(res2.emissions.map(e => e.ts -> e.users).toMap.apply(3L) == Set(0))
  }

  for (seed <- 0 until 6)
    test(s"Theorem 6: PB_U ⊇ P_U and PB_U ⊇ PB_c (seed=$seed)") {
      val rng = new Random(400 + seed)
      val domains = Seq(4, 4)
      val users = randomUsers(rng, 6, domains)
      val objects = randomObjects(rng, 50, domains).sortBy(_.ts)
      val clusters = randomExactClusters(rng, users, 2)
      val w = 15
      (w until objects.size).foreach { i =>
        val alive = objects.slice(i - w + 1, i + 1)
        clusters.foreach { cl =>
          val pbU = BruteForce.buffer(cl.filterRels, alive)
          assert(BruteForce.frontier(cl.filterRels, alive).subsetOf(pbU))
          cl.members.foreach { u =>
            assert(BruteForce.buffer(u.rels, alive).subsetOf(pbU))
          }
        }
      }
    }

  test("snapshots are captured at the requested cadence") {
    val rng = new Random(11)
    val domains = Seq(4)
    val users = randomUsers(rng, 2, domains)
    val objects = randomObjects(rng, 30, domains)
    val res = Baseline.run(users, objects, window = Some(10), snapshotEvery = 10)
    assert(res.snapshots.size == 3)
  }
}

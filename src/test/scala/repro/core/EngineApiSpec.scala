package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestGen._

/** The engine names the benchmark harness under `perfbench/` compiles
  * against, used through their public types, so that renaming or retyping
  * one fails this build too and not only the harness's.
  */
class EngineApiSpec extends AnyFunSuite {

  private val rng = new Random(7)
  private val domains = Seq(4, 5)
  private val users: Seq[UserPrefs] = randomUsers(rng, 6, domains)
  private val objects: Seq[Obj] = randomObjects(rng, 60, domains)
  private val cluster: Cluster = Cluster(0, Clustering.commonRels(users), users)

  test("Baseline.State(users, counter): onArrival and frontiers with sizeNow") {
    val counter = new OpCounter
    val st = new Baseline.State(users, counter)
    val emitted: Seq[Set[Int]] = objects.map(st.onArrival)
    val frontiers: Map[Int, Level] = st.frontiers
    val sizes: Int = frontiers.valuesIterator.map(_.sizeNow).sum
    val ref = Baseline.run(users, objects)
    assert(emitted == ref.emissions.map(_.users))
    assert(sizes == ref.frontiers.valuesIterator.map(_.size).sum)
    assert(counter.comparisons == ref.comparisons)
  }

  test("FilterThenVerify.ClusterState: onArrival, filterFrontier.contains, userFrontiers") {
    val counter = new OpCounter
    val st = new FilterThenVerify.ClusterState(cluster, counter)
    val emitted = objects.map { o =>
      val cO: Set[Int] = st.onArrival(o)
      assert(cO.isEmpty || st.filterFrontier.contains(o.ts))
      cO
    }
    val pc: Int = st.userFrontiers.valuesIterator.map(_.sizeNow).sum
    val ref = FilterThenVerify.run(Seq(cluster), objects)
    assert(emitted == ref.emissions.map(_.users))
    assert(pc == ref.frontiers.valuesIterator.map(_.size).sum)
    assert(st.filterFrontier.sizeNow > 0 && st.buffer.size == 0)
    assert(counter.comparisons == ref.comparisons)
  }

  test("FilterThenVerifySW.ClusterState: onArrival, onExpiry and buffer.size match FilterThenVerifySW.run") {
    val w = 12
    val counter = new OpCounter
    val st: FilterThenVerify.ClusterState = new FilterThenVerifySW.ClusterState(cluster, counter)
    val emitted = Map.newBuilder[Long, Set[Int]]
    var late = Seq.empty[(Long, Int)]
    objects.zipWithIndex.foreach { case (o, i) =>
      if (i >= w) {
        val promoted: Map[Int, Seq[Obj]] = st.onExpiry(objects(i - w).ts)
        promoted.foreach { case (uid, objs) => objs.foreach(p => late :+= (p.ts -> uid)) }
      }
      emitted += o.ts -> st.onArrival(o)
      val pb: Int = st.buffer.size
      assert(pb >= st.filterFrontier.sizeNow && pb <= w)
    }
    val withLate = late.foldLeft(emitted.result()) { case (m, (ts, uid)) => m.updated(ts, m(ts) + uid) }
    val ref: RunResult = FilterThenVerifySW.run(Seq(cluster), objects, w)
    assert(ref.emissions.map(e => e.ts -> e.users).toMap == withLate)
    assert(late.nonEmpty)
    assert(counter.comparisons == ref.comparisons)
  }

  test("Frontier.update and PrefRelation.prefers") {
    val f = new Frontier(cluster.filterRels, new OpCounter)
    objects.foreach(f.update)
    assert(f.ids == BruteForce.frontier(cluster.filterRels, objects))
    val rel: PrefRelation = cluster.filterRels(0)
    assert(rel.tuples.forall { case (x, y) => rel.prefers(x, y) })
  }

  test("Frontier(rels, counter).update counts what the scan store counts") {
    // The harness reads the filter's share of the comparisons from a bare
    // frontier per cluster over the stream, which must count as the scan does.
    val counter = new OpCounter
    val f = new Frontier(cluster.filterRels, counter)
    val scan = new ScanFrontier(cluster.filterRels, new OpCounter)
    objects.foreach(o => assert(f.update(o) == scan.update(o)))
    assert(counter.comparisons == scan.counter.comparisons && counter.comparisons > objects.size)
  }
}

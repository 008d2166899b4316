package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestGen._

class FrontierSpec extends AnyFunSuite {

  private def mkFrontier(prefs: Array[PrefRelation]) = new Frontier(prefs, new OpCounter)

  /** `objs` updated into a frontier over `prefs` one by one, each answer and
    * the comparisons checked against the scan store, the count reference.
    */
  private def updated(prefs: Array[PrefRelation], objs: Seq[Obj]): Frontier = {
    val (f, scan) = (mkFrontier(prefs), new ScanFrontier(prefs, new OpCounter))
    objs.foreach(o => assert(f.update(o) == scan.update(o) && f.counter.comparisons == scan.counter.comparisons, s"$o"))
    f
  }

  test("first object is always Pareto-optimal") {
    val f = mkFrontier(Array(cpuC1))
    assert(f.update(Obj(1, Array(Single))).isPareto)
    assert(f.ids == Set(1L))
  }

  test("dominated arrival is rejected and frontier unchanged") {
    val f = mkFrontier(Array(cpuC1))
    f.update(Obj(1, Array(Dual)))
    val r = f.update(Obj(2, Array(Single)))
    assert(!r.isPareto && r.removed.isEmpty)
    assert(f.ids == Set(1L))
  }

  test("dominating arrival evicts dominated members") {
    val f = mkFrontier(Array(cpuC1))
    f.update(Obj(1, Array(Single)))
    val r = f.update(Obj(2, Array(Dual)))
    assert(r.isPareto && r.removed.map(_.ts) == Seq(1L))
    assert(f.ids == Set(2L))
  }

  test("identical arrival is Pareto and both objects stay (Def. 2)") {
    val f = mkFrontier(Array(cpuC1))
    f.update(Obj(1, Array(Dual)))
    val r = f.update(Obj(2, Array(Dual)))
    assert(r.isPareto && r.removed.isEmpty)
    assert(f.ids == Set(1L, 2L))
  }

  test("incomparable objects coexist on the frontier") {
    val f = mkFrontier(Array(cpuC1))
    f.update(Obj(1, Array(Triple)))
    val r = f.update(Obj(2, Array(Quad))) // triple and quad incomparable for c1
    assert(r.isPareto)
    assert(f.ids == Set(1L, 2L))
  }

  for (seed <- 0 until 15)
    test(s"incremental frontier equals from-scratch frontier (seed=$seed)") {
      val rng = new Random(seed)
      val domains = Seq(4 + rng.nextInt(4), 4 + rng.nextInt(4))
      val prefs = domains.map(m => randomRelation(rng, m, 0.4)).toArray
      val objs = randomObjects(rng, 60, domains)
      val f = updated(prefs, objs)
      assert(f.ids == BruteForce.frontier(prefs, objs),
        s"prefs=${prefs.mkString(";")} objs=$objs")
    }

  for (seed <- 0 until 5)
    test(s"isPareto flag matches membership in the final frontier of the prefix (seed=$seed)") {
      val rng = new Random(100 + seed)
      val domains = Seq(5, 5)
      val prefs = domains.map(m => randomRelation(rng, m, 0.4)).toArray
      val objs = randomObjects(rng, 40, domains)
      val f = mkFrontier(prefs)
      objs.zipWithIndex.foreach { case (o, i) =>
        val r = f.update(o)
        assert(r.isPareto == BruteForce.frontier(prefs, objs.take(i + 1)).contains(o.ts))
      }
    }

  for (seed <- 0 until 6)
    test(s"incremental frontier equals from-scratch frontier on multi-word domains (seed=$seed)") {
      val rng = new Random(300 + seed)
      val domains = Seq(65 + rng.nextInt(66), 65 + rng.nextInt(66))
      val prefs = domains.map(m => randomRelation(rng, m, 0.05)).toArray
      val objs = randomObjects(rng, 150, domains)
      assert(updated(prefs, objs).ids == BruteForce.frontier(prefs, objs))
    }

  test("objects keep insertion order through removals from the middle and later inserts") {
    // 0 ≻ 1 only: values other than 0 and 1 are pairwise incomparable.
    val f = mkFrontier(Array(PrefRelation.fromEdges(8, Seq((0, 1)))))
    Seq(Obj(1, Array(2)), Obj(2, Array(1)), Obj(3, Array(3)), Obj(4, Array(4))).foreach(f.update)
    assert(f.update(Obj(5, Array(0))).removed.map(_.ts) == Seq(2L)) // evicts a middle member
    assert(f.objects.map(_.ts) == Seq(1L, 3L, 4L, 5L))
    assert(f.remove(3) && !f.remove(3))
    f.update(Obj(6, Array(5)))
    f.insert(Obj(7, Array(6)))
    assert(f.objects.map(_.ts) == Seq(1L, 4L, 5L, 6L, 7L))
    assert(f.objects.map(_.attrs.head) == Seq(2, 4, 0, 5, 6))
    // The scan visits members in that order: an arrival identical to the
    // third member stops after three comparisons.
    val before = f.counter.comparisons
    f.update(Obj(8, Array(0)))
    assert(f.counter.comparisons - before == 3)
  }

  test("timestamp lookups answer after an out-of-order insert, and after the store empties and refills") {
    // Under the empty order, distinct values are incomparable.
    val prefs = Array(PrefRelation.empty(8))
    val counter = new OpCounter
    for (f <- Seq(new Frontier(prefs, counter), new EqFrontier(prefs, counter), new DownFrontier(prefs, counter))) {
      def fill(tss: Long*): Unit = tss.foreach(ts => f.insert(Obj(ts, Array((ts % 8).toInt))))
      def lookups(in: Seq[Long], out: Seq[Long]): Unit = {
        assert(in.forall(f.contains) && !out.exists(f.contains), s"${f.getClass.getSimpleName}: ${f.objects.map(_.ts)}")
        assert(f.objects.map(_.ts).toSet == in.toSet)
      }
      fill(10, 20, 30, 40)
      lookups(Seq(10, 20, 30, 40), Seq(5, 15, 50))
      // A window mend promotes an older object.
      fill(5)
      lookups(Seq(10, 20, 30, 40, 5), Seq(15, 50))
      assert(f.take(5).map(_.ts).contains(5L) && f.take(5).isEmpty)
      assert(f.remove(30) && !f.remove(30))
      lookups(Seq(10, 20, 40), Seq(5, 30))
      Seq(10L, 20L, 40L).foreach(ts => assert(f.remove(ts)))
      lookups(Nil, Seq(10, 20, 40))
      fill(60, 70, 80)
      lookups(Seq(60, 70, 80), Seq(10, 65))
      fill(65)
      lookups(Seq(60, 70, 80, 65), Seq(10, 75))
      assert(f.take(65).map(_.ts).contains(65L) && f.remove(80) && !f.remove(65))
      lookups(Seq(60, 70), Seq(65, 80))
    }
  }

  test("dominatesNew does not mutate the frontier") {
    val f = mkFrontier(Array(cpuC1))
    f.update(Obj(1, Array(Dual)))
    assert(f.dominatesNew(Obj(2, Array(Single))))
    assert(!f.dominatesNew(Obj(3, Array(Dual)))) // identical is not dominated
    assert(f.ids == Set(1L))
  }

  test("evictDominatedBy removes exactly the dominated members") {
    val f = mkFrontier(Array(cpuC1))
    f.update(Obj(1, Array(Triple)))
    f.update(Obj(2, Array(Quad)))
    val gone = f.evictDominatedBy(Obj(3, Array(Dual))) // dual dominates both
    assert(gone.map(_.ts).toSet == Set(1L, 2L))
    assert(f.ids.isEmpty)
  }
}

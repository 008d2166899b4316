package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.PrefSim
import scala.util.Random
import TestGen._

class DominanceSpec extends AnyFunSuite {
  private def prefs2 = Array(cpuC1, tableIvU1) // d=2: CPU + brand

  private val c = new OpCounter

  test("identical objects compare as Identical") {
    assert(Dominance.compare(prefs2, Array(Dual, A), Array(Dual, A), c) == Dominance.Identical)
  }

  test("better on one attribute, equal on the other: dominates") {
    // CPU dual ≻ single (c1), same brand.
    assert(Dominance.compare(prefs2, Array(Dual, A), Array(Single, A), c) == Dominance.Dominates)
    assert(Dominance.compare(prefs2, Array(Single, A), Array(Dual, A), c) == Dominance.DominatedBy)
  }

  test("better on all attributes: dominates") {
    // dual ≻ single; Apple ≻ Samsung in U1.
    assert(Dominance.compare(prefs2, Array(Dual, A), Array(Single, S), c) == Dominance.Dominates)
  }

  test("trade-off: incomparable") {
    // dual ≻ single but Samsung ⊀ Apple... A ≻ S, so give each one win:
    // o1 better on CPU, o2 better on brand.
    assert(Dominance.compare(prefs2, Array(Dual, S), Array(Single, A), c) == Dominance.Incomparable)
  }

  test("incomparable attribute values block dominance") {
    // Toshiba and Apple are incomparable in U1.
    assert(Dominance.compare(prefs2, Array(Dual, T), Array(Single, A), c) == Dominance.Incomparable)
  }

  test("counter counts every comparison") {
    val k = new OpCounter
    Dominance.compare(prefs2, Array(Dual, A), Array(Single, A), k)
    Dominance.compare(prefs2, Array(Dual, A), Array(Single, A), k)
    assert(k.comparisons == 2)
  }

  for (seed <- 0 until 10)
    test(s"dominance is transitive and asymmetric (seed=$seed)") {
      val rng = new Random(seed)
      val domains = Seq(5, 6, 4)
      val prefs = domains.map(m => randomRelation(rng, m)).toArray
      val objs = randomObjects(rng, 12, domains)
      val k = new OpCounter
      for (a <- objs; b <- objs) {
        val ab = Dominance.compare(prefs, a.attrs, b.attrs, k)
        val ba = Dominance.compare(prefs, b.attrs, a.attrs, k)
        // Compare is symmetric-consistent.
        assert(ab == -ba || (ab == Dominance.Identical && ba == Dominance.Identical)
          || (ab == Dominance.Incomparable && ba == Dominance.Incomparable))
        if (ab == Dominance.Dominates)
          for (cc <- objs if Dominance.compare(prefs, b.attrs, cc.attrs, k) == Dominance.Dominates)
            assert(Dominance.compare(prefs, a.attrs, cc.attrs, k) == Dominance.Dominates)
      }
    }

  /** The kernel the outcome table replaced, kept as the reference: per
    * differing attribute, `prefers(x, y)`, then `prefers(y, x)`, and an
    * incomparable pair ends the test.
    */
  private def twoPrefersCompare(prefs: Array[PrefRelation], a: Array[Int], aOff: Int,
                                b: Array[Int], bOff: Int): Int = {
    var aBetter = false; var bBetter = false
    for (d <- prefs.indices) {
      val x = a(aOff + d); val y = b(bOff + d)
      if (x != y) {
        if (prefs(d).prefers(x, y)) aBetter = true
        else if (prefs(d).prefers(y, x)) bBetter = true
        else return Dominance.Incomparable
      }
    }
    if (aBetter && bBetter) Dominance.Incomparable
    else if (aBetter) Dominance.Dominates
    else if (bBetter) Dominance.DominatedBy
    else Dominance.Identical
  }

  /** Compares random pairs of `objs` and pairs of an object with a copy of
    * it that differs in one attribute, with both overloads, the slice one
    * on a flat column behind a random offset, against the reference; checks
    * the counter. Returns how often each outcome came up.
    */
  private def checkAgainstReference(rng: Random, prefs: Array[PrefRelation],
                                    objs: IndexedSeq[Array[Int]], what: String): Map[Int, Int] = {
    val d = prefs.length
    val pad = rng.nextInt(5)
    val column = Array.fill(pad)(-1) ++ objs.flatten
    val k = new OpCounter
    val seen = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    for (_ <- 0 until 2000) {
      val i = rng.nextInt(objs.size); val j = rng.nextInt(objs.size)
      val a = objs(i)
      val b = if (rng.nextBoolean()) objs(j) else {
        val c = a.clone(); val at = rng.nextInt(d); c(at) = objs(j)(at); c
      }
      val expected = twoPrefersCompare(prefs, a, 0, b, 0)
      val before = k.comparisons
      assert(Dominance.compare(prefs, a, b, k) == expected, s"$what: ${a.toSeq} vs ${b.toSeq}")
      if (b eq objs(j))
        assert(Dominance.compare(prefs, column, pad + i * d, column, pad + j * d, k) == expected,
          s"$what: slices $i vs $j")
      else assert(Dominance.compare(prefs, Array(7) ++ a, 1, b, 0, k) == expected, s"$what: offset slice")
      assert(k.comparisons == before + 2)
      seen(expected) += 1
    }
    seen.toMap
  }

  private val AllOutcomes =
    Set(Dominance.Identical, Dominance.Dominates, Dominance.DominatedBy, Dominance.Incomparable)

  for (seed <- 0 until 4)
    test(s"compare equals the two-prefers kernel on random orders, all four outcomes (seed=$seed)") {
      val rng = new Random(6000 + seed)
      val seen = for (domains <- Seq(Seq(5, 6, 4), Seq(2, 3), Seq(70, 130, 9, 64))) yield {
        val prefs = domains.map(m => randomRelation(rng, m, p = 0.5)).toArray
        val objs = randomObjects(rng, 40, domains).map(_.attrs).toIndexedSeq
        checkAgainstReference(rng, prefs, objs, s"domains $domains")
      }
      assert(seen.flatMap(_.keys).toSet == AllOutcomes)
    }

  for (cfg <- prefSimConfigs)
    test(s"compare equals the two-prefers kernel on PrefSim, common and Alg. 3 relations (${cfg.name})") {
      val rng = new Random(cfg.seed)
      val objs = PrefSim.objects(cfg, 300).map(_.attrs).toIndexedSeq
      val seen = for ((what, prefs) <- prefSimRelations(cfg)) yield checkAgainstReference(rng, prefs, objs, what)
      seen.foreach(s => assert(s.keySet == AllOutcomes, s))
    }
}

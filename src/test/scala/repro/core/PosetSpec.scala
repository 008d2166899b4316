package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestGen._

class PosetSpec extends AnyFunSuite {

  test("fromEdges computes the transitive closure") {
    val r = PrefRelation.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    assert(r.prefers(0, 3) && r.prefers(0, 2) && r.prefers(1, 3))
    assert(r.size == 6)
  }

  test("fromEdges rejects reflexive tuples") {
    assertThrows[IllegalArgumentException](PrefRelation.fromEdges(3, Seq((1, 1))))
  }

  test("fromEdges rejects cycles") {
    assertThrows[IllegalArgumentException](PrefRelation.fromEdges(3, Seq((0, 1), (1, 2), (2, 0))))
  }

  test("fromEdges rejects direct asymmetry violations") {
    assertThrows[IllegalArgumentException](PrefRelation.fromEdges(3, Seq((0, 1), (1, 0))))
  }

  test("empty relation has no tuples and all values maximal") {
    val r = PrefRelation.empty(5)
    assert(r.size == 0)
    assert(r.maximalValues == scala.collection.immutable.BitSet(0, 1, 2, 3, 4))
  }

  test("isStrictPartialOrder accepts valid and rejects cyclic edge sets") {
    assert(isStrictPartialOrder(3, Seq((0, 1), (1, 2))))
    assert(!isStrictPartialOrder(3, Seq((0, 1), (1, 2), (2, 0))))
  }

  test("Example 3: c1 CPU relation has exactly the paper's 5 tuples") {
    assert(cpuC1.tuples.toSet == Set((Dual, Single), (Dual, Quad), (Dual, Triple),
      (Triple, Single), (Quad, Single)))
  }

  test("Example 3: c2 CPU relation is the 6-tuple chain closure") {
    assert(cpuC2.tuples.toSet == Set((Dual, Single), (Triple, Single), (Quad, Single),
      (Triple, Dual), (Quad, Dual), (Quad, Triple)))
  }

  test("Example 3: common CPU preference relation of c1 and c2") {
    assert(cpuC1.intersect(cpuC2).tuples.toSet ==
      Set((Dual, Single), (Triple, Single), (Quad, Single)))
  }

  test("Table IV: U1 = c1 ∩ c2 matches Examples 6-9") {
    assert(tableIvU1.tuples.toSet == Set((A, L), (A, S), (L, S), (T, S)))
  }

  test("Table IV: U2 = c3 ∩ c4 matches Examples 6-9") {
    assert(tableIvU2.tuples.toSet == Set((S, L), (S, A), (S, T), (L, A), (L, T)))
  }

  test("Table IV: U3 = c5 ∩ c6 matches Examples 6-9") {
    assert(tableIvU3.tuples.toSet == Set((L, A), (L, T), (L, S), (A, S)))
  }

  test("Example 8: maximal values of U1, U2, U3") {
    assert(tableIvU1.maximalValues.toSet == Set(A, T))
    assert(tableIvU2.maximalValues.toSet == Set(S))
    assert(tableIvU3.maximalValues.toSet == Set(L))
  }

  test("Example 8: value weights in U1 are 1, 1/2, 1/2, 1") {
    assert(tableIvU1.weight(A) == 1.0)
    assert(tableIvU1.weight(L) == 0.5)
    assert(tableIvU1.weight(S) == 0.5)
    assert(tableIvU1.weight(T) == 1.0)
  }

  test("Example 8: value weights in U2 are 1/3, 1/2, 1, 1/3") {
    assert(tableIvU2.weight(A) === 1.0 / 3)
    assert(tableIvU2.weight(L) == 0.5)
    assert(tableIvU2.weight(S) == 1.0)
    assert(tableIvU2.weight(T) === 1.0 / 3)
  }

  test("Example 8: value weights in U3 are 1/2, 1, 1/3, 1/2") {
    assert(tableIvU3.weight(A) == 0.5)
    assert(tableIvU3.weight(L) == 1.0)
    assert(tableIvU3.weight(S) === 1.0 / 3)
    assert(tableIvU3.weight(T) == 0.5)
  }

  test("hasse successors drop transitively implied edges") {
    val chain = PrefRelation.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    assert(chain.hasseSuccessors(0).toSet == Set(1))
    assert(chain.hasseSuccessors(1).toSet == Set(2))
    assert(chain.hasseSuccessors(2).toSet == Set(3))
  }

  test("add() inserts a tuple and closes transitively") {
    val r = PrefRelation.fromEdges(4, Seq((0, 1), (2, 3)))
    val r2 = r.add(1, 2)
    assert(r2.prefers(0, 3) && r2.prefers(1, 3) && r2.prefers(0, 2))
    assert(r2.size == 6)
  }

  test("canAdd rejects reflexive and cycle-forming tuples") {
    val r = PrefRelation.fromEdges(3, Seq((0, 1), (1, 2)))
    assert(!r.canAdd(1, 1))
    assert(!r.canAdd(2, 0))
    assert(r.canAdd(2, 1) == false) // (1,2) present, reverse would cycle
    assert(r.canAdd(0, 2) == true)  // already implied, still a valid SPO
  }

  test("canAdd is false for values outside the domain, and add then fails its require") {
    val r = PrefRelation.fromEdges(5, Seq((0, 1)))
    for ((x, y) <- Seq((0, 10), (10, 0), (-1, 2), (2, -1), (5, 4))) {
      assert(!r.canAdd(x, y), s"($x,$y)")
      val e = intercept[IllegalArgumentException](r.add(x, y))
      assert(e.getMessage.contains(s"adding ($x,$y) breaks the strict partial order"))
    }
  }

  /** Random edges over a random topological order of `m` values, and their
    * closure computed as plain reachability sets.
    */
  private def edgesAndReach(rng: Random, m: Int, p: Double): (Seq[(Int, Int)], Map[Int, Set[Int]]) = {
    val perm = rng.shuffle((0 until m).toVector)
    val edges = for (i <- 0 until m; j <- i + 1 until m if rng.nextDouble() < p) yield (perm(i), perm(j))
    val succ = edges.groupMap(_._1)(_._2).withDefaultValue(Seq.empty)
    def reach(x: Int): Set[Int] = {
      val seen = scala.collection.mutable.Set.empty[Int]
      var todo = succ(x).toList
      while (todo.nonEmpty) {
        val y = todo.head; todo = todo.tail
        if (seen.add(y)) todo = succ(y).toList ++ todo
      }
      seen.toSet
    }
    (edges, (0 until m).map(x => x -> reach(x)).toMap)
  }

  // Domains above 64 values take several words per closure row.
  for (seed <- 0 until 6)
    test(s"multi-word rows: prefers, size, tuples and add match the edge closure (seed=$seed)") {
      val rng = new Random(3000 + seed)
      val m = 65 + rng.nextInt(66)
      val (edges, reach) = edgesAndReach(rng, m, 0.03)
      val r = PrefRelation.fromEdges(m, edges)
      for (x <- 0 until m; y <- 0 until m) assert(r.prefers(x, y) == reach(x)(y), s"($x,$y)")
      assert(r.size == reach.values.map(_.size).sum)
      assert(r.tuples.toSet == reach.toSeq.flatMap { case (x, ys) => ys.map(x -> _) }.toSet)
      assert(r.maximalValues.toSet == (0 until m).filterNot(v => reach.values.exists(_(v))).toSet)
      assert(PrefRelation.fromEdges(m, (0 until m).flatMap(x => r.hasseSuccessors(x).map(x -> _))) == r)
      for (_ <- 0 until 20) {
        val x = rng.nextInt(m); val y = rng.nextInt(m)
        if (r.canAdd(x, y)) assert(r.add(x, y) == PrefRelation.fromEdges(m, edges :+ (x -> y)))
        else assert(x == y || reach(y)(x))
      }
    }

  for (seed <- 0 until 6)
    test(s"multi-word rows: intersect and size match the intersected closures (seed=$seed)") {
      val rng = new Random(4000 + seed)
      val m = 65 + rng.nextInt(66)
      val (ea, ra) = edgesAndReach(rng, m, 0.03)
      val (eb, rb) = edgesAndReach(rng, m, 0.03)
      val i = PrefRelation.fromEdges(m, ea).intersect(PrefRelation.fromEdges(m, eb))
      for (x <- 0 until m; y <- 0 until m) assert(i.prefers(x, y) == (ra(x)(y) && rb(x)(y)), s"($x,$y)")
      assert(i.size == (0 until m).map(x => (ra(x) & rb(x)).size).sum)
      assert(isStrictPartialOrder(m, i.tuples))
    }

  for (seed <- 0 until 10)
    test(s"closure is idempotent and transitive (seed=$seed)") {
      val rng = new Random(seed)
      val r = randomRelation(rng, 8 + rng.nextInt(8))
      val reclosed = PrefRelation.fromEdges(r.domainSize, r.tuples)
      assert(reclosed == r)
      for ((x, y) <- r.tuples; z <- r.worse(y)) assert(r.prefers(x, z))
      for ((x, y) <- r.tuples) assert(!r.prefers(y, x), s"asymmetry violated at ($x,$y)")
    }

  for (seed <- 0 until 10)
    test(s"intersection is a strict partial order contained in both (seed=$seed)") {
      val rng = new Random(1000 + seed)
      val m = 6 + rng.nextInt(6)
      val a = randomRelation(rng, m); val b = randomRelation(rng, m)
      val i = a.intersect(b)
      assert(isStrictPartialOrder(m, i.tuples))
      i.tuples.foreach { case (x, y) => assert(a.prefers(x, y) && b.prefers(x, y)) }
      a.tuples.foreach { case (x, y) => if (b.prefers(x, y)) assert(i.prefers(x, y)) }
    }

  for (seed <- 0 until 5)
    test(s"weights: maximal values weigh 1, successors at most 1/2 (seed=$seed)") {
      val rng = new Random(2000 + seed)
      val r = randomRelation(rng, 10)
      r.maximalValues.foreach(v => assert(r.weight(v) == 1.0))
      for (x <- 0 until 10; y <- r.hasseSuccessors(x)) assert(r.weight(y) <= 0.5)
    }

  /** Entry `(x, y)` of the outcome table, read from the closure rows. */
  private def outcomeFromRows(r: PrefRelation, x: Int, y: Int): Int =
    if (x == y) 0 else if (r.prefers(x, y)) 1 else if (r.prefers(y, x)) 2 else 3

  private def assertOutcomesMatchRows(r: PrefRelation, what: String): Unit = {
    val m = r.domainSize
    val outcomes = Dominance.outcomes(r)
    assert(outcomes.length == m * m, what)
    for (x <- 0 until m; y <- 0 until m)
      assert(outcomes(x * m + y) == outcomeFromRows(r, x, y), s"$what: entry ($x,$y)")
  }

  for (seed <- 0 until 6)
    test(s"outcome table equals prefers both ways on random orders, one- and multi-word (seed=$seed)") {
      val rng = new Random(5000 + seed)
      for (m <- Seq(1, 2, 5, 63, 64, 65, 130)) {
        val a = randomRelation(rng, m, p = 0.02 + 0.3 * rng.nextDouble())
        val b = perturbedRelation(rng, a, addTries = 10)
        assertOutcomesMatchRows(a, s"random m=$m")
        assertOutcomesMatchRows(b, s"perturbed (add) m=$m")
        assertOutcomesMatchRows(a.intersect(randomRelation(rng, m)), s"intersect m=$m")
        assertOutcomesMatchRows(PrefRelation.empty(m), s"empty m=$m")
      }
    }

  for (cfg <- prefSimConfigs)
    test(s"outcome table equals prefers both ways on PrefSim, common and Alg. 3 relations (${cfg.name})") {
      for ((what, rels) <- prefSimRelations(cfg); (r, d) <- rels.zipWithIndex)
        assertOutcomesMatchRows(r, s"$what, attribute $d")
    }

  /** `minOut(v)` against its definition: `¬(v ⪰ u)` iff some `w ∈ minOut(v)`
    * has `u ⪰ w`, and no member of `minOut(v)` is preferred to another.
    */
  private def assertMinOutMatchesPrefers(r: PrefRelation, what: String): Unit = {
    def atLeast(x: Int, y: Int) = x == y || r.prefers(x, y)
    for (v <- 0 until r.domainSize) {
      val out = r.minOut(v)
      val wrong = (0 until r.domainSize).filter(u => !atLeast(v, u) != out.exists(atLeast(u, _)))
      assert(wrong.isEmpty, s"$what: v=$v, u in $wrong")
      assert(!out.exists(x => out.exists(r.prefers(x, _))), s"$what: v=$v, minOut ${out.mkString(",")}")
    }
  }

  for (seed <- 0 until 6)
    test(s"minOut generates the values v is not at least as good as, as an antichain (seed=$seed)") {
      val rng = new Random(6000 + seed)
      for (m <- Seq(1, 2, 5, 12, 65, 130)) {
        val a = randomRelation(rng, m, p = 0.02 + 0.3 * rng.nextDouble())
        assertMinOutMatchesPrefers(a, s"random m=$m")
        assertMinOutMatchesPrefers(perturbedRelation(rng, a, addTries = 10), s"perturbed m=$m")
        assertMinOutMatchesPrefers(PrefRelation.empty(m), s"empty m=$m")
      }
      randomUsers(rng, 3, Seq(5, 6, 4)).flatMap(_.rels).foreach(assertMinOutMatchesPrefers(_, "TestGen user"))
    }

  for (cfg <- prefSimConfigs)
    test(s"minOut generates the values v is not at least as good as on PrefSim relations (${cfg.name})") {
      for ((what, rels) <- prefSimRelations(cfg); (r, d) <- rels.zipWithIndex)
        assertMinOutMatchesPrefers(r, s"$what, attribute $d")
    }

  /** `maxOut(v)` against its definition: `¬(u ⪰ v)` iff some `w ∈ maxOut(v)`
    * has `w ⪰ u`, and no member of `maxOut(v)` is preferred to another.
    */
  private def assertMaxOutMatchesPrefers(r: PrefRelation, what: String): Unit = {
    def atLeast(x: Int, y: Int) = x == y || r.prefers(x, y)
    for (v <- 0 until r.domainSize) {
      val out = r.maxOut(v)
      val wrong = (0 until r.domainSize).filter(u => !atLeast(u, v) != out.exists(atLeast(_, u)))
      assert(wrong.isEmpty, s"$what: v=$v, u in $wrong")
      assert(!out.exists(x => out.exists(r.prefers(x, _))), s"$what: v=$v, maxOut ${out.mkString(",")}")
    }
  }

  for (seed <- 0 until 6)
    test(s"maxOut generates the values not at least as good as v, as an antichain (seed=$seed)") {
      val rng = new Random(6100 + seed)
      for (m <- Seq(1, 2, 5, 12, 65, 130)) {
        val a = randomRelation(rng, m, p = 0.02 + 0.3 * rng.nextDouble())
        assertMaxOutMatchesPrefers(a, s"random m=$m")
        assertMaxOutMatchesPrefers(perturbedRelation(rng, a, addTries = 10), s"perturbed m=$m")
        assertMaxOutMatchesPrefers(PrefRelation.empty(m), s"empty m=$m")
      }
      randomUsers(rng, 3, Seq(5, 6, 4)).flatMap(_.rels).foreach(assertMaxOutMatchesPrefers(_, "TestGen user"))
    }

  for (cfg <- prefSimConfigs)
    test(s"maxOut generates the values not at least as good as v on PrefSim relations (${cfg.name})") {
      for ((what, rels) <- prefSimRelations(cfg); (r, d) <- rels.zipWithIndex)
        assertMaxOutMatchesPrefers(r, s"$what, attribute $d")
    }

  test("commonOf reduces over many relations") {
    val common = PrefRelation.commonOf(Seq(tableIvC1, tableIvC2, tableIvC5))
    // c5 has none of U1's tuples except (A,S)? c5={(L,A),(L,T),(A,S),(T,S),(L,S)}
    assert(common.tuples.toSet == Set((A, S), (L, S), (T, S)).intersect(tableIvC5.tuples.toSet)
      .intersect(tableIvU1.tuples.toSet))
  }
}

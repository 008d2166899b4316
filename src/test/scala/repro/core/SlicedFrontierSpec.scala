package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.PrefSim
import scala.util.Random
import TestGen._

/** The bit-sliced store against the scan store, the count reference, step
  * by step. Two windowed levels over the same relations, one on each store,
  * go through one random sequence of every operation the engine uses on a
  * filter level. After each step both have answered the same, hold the
  * same members in the same order in `P` and in `PB`, and have counted the
  * same comparisons. The stores grow past 128 positions, so removals shift
  * bits across words.
  */
class SlicedFrontierSpec extends AnyFunSuite {

  private val Steps = 1500

  /** Drive both stores over `filterRels` with objects from `next`. The
    * member mend builds a member frontier under `memberRels` from `P`'s
    * members, so that it holds only members of `P`, as Lemma 1 gives.
    */
  private def replay(filterRels: Array[PrefRelation], memberRels: Array[PrefRelation],
                     rng: Random, next: () => Array[Int]): Unit = {
    val scan = new Level(new Frontier(filterRels, new OpCounter), windowed = true)
    val sliced = new Level(new SlicedFrontier(filterRels, new OpCounter), windowed = true)
    var ts = 0L
    var largest = 0
    def fresh(): Obj = { ts += 1; Obj(ts, next()) }
    // An arrival, or a copy of a member's values under a new timestamp, so
    // that identical members occur on every domain.
    def probe(): Obj = {
      val ms = scan.frontier.objects
      if (ms.isEmpty || rng.nextInt(3) > 0) fresh()
      else { ts += 1; Obj(ts, ms(rng.nextInt(ms.size)).attrs.clone()) }
    }
    def member(f: Frontier): Option[Long] =
      if (f.size == 0) None else Some(f.objects(rng.nextInt(f.size)).ts)

    def both[A](step: Int, what: String)(op: Level => A): Unit = {
      val before = (scan.frontier.counter.comparisons, sliced.frontier.counter.comparisons)
      val (a, b) = (op(scan), op(sliced))
      val at = s"step $step, $what"
      assert(a == b, at)
      assert(scan.frontier.counter.comparisons - before._1 == sliced.frontier.counter.comparisons - before._2,
        s"$at: comparisons")
      assert(scan.frontier.objects == sliced.frontier.objects, s"$at: P")
      assert(scan.buffer.objects == sliced.buffer.objects, s"$at: PB")
      largest = largest max scan.frontier.size max scan.buffer.size
    }

    // Every other phase of 400 steps mostly inserts, so that the stores grow
    // past two words before the phase after it shrinks them.
    def op(step: Int): Int = if ((step / 400) % 2 == 0 && rng.nextInt(10) < 7) rng.nextInt(3) else rng.nextInt(14)
    for (step <- 0 until Steps) op(step) match {
      case 0 | 1 => val o = fresh(); both(step, s"P.insert($o)")(_.frontier.insert(o))
      case 2     => val o = fresh(); both(step, s"PB.insert($o)")(_.buffer.insert(o))
      case 3     => val o = probe(); both(step, s"update($o)")(_.frontier.update(o))
      case 4     => val o = probe(); both(step, s"admit($o, windowed)")(_.frontier.admit(o, windowed = true))
      case 5     => val o = fresh(); both(step, s"arrive($o)")(_.arrive(o))
      case 6     => val o = probe(); both(step, s"dominatesNew($o)")(_.frontier.dominatesNew(o))
      case 7     => val o = probe(); both(step, s"P.evictDominatedBy($o)")(_.frontier.evictDominatedBy(o))
      case 8     => val o = probe(); both(step, s"PB.evictDominatedBy($o)")(_.buffer.evictDominatedBy(o))
      case 9     => member(scan.frontier).foreach(t => both(step, s"P.remove($t)")(_.frontier.remove(t)))
      case 10    => member(scan.buffer).foreach(t => both(step, s"PB.take($t)")(_.buffer.take(t)))
      case 11    => val o = probe(); both(step, s"mendFromBuffer($o)")(l => l.frontier.mendFromBuffer(o, l.buffer))
      case 12    => member(scan.buffer).foreach(t => both(step, s"expire($t)")(_.expire(t)))
      case _ =>
        // The member mend: `out` leaves `P` and the member frontier, whose
        // own counter takes the mend's comparisons.
        val pick = rng.nextInt(Int.MaxValue)
        both(step, "mendFromFilter") { l =>
          val pc = new Frontier(memberRels, new OpCounter)
          l.frontier.objects.foreach(pc.update)
          if (pc.size == 0) None
          else {
            val out = pc.objects(pick % pc.size)
            l.frontier.remove(out.ts)
            pc.remove(out.ts)
            val before = pc.counter.comparisons
            val promoted = pc.mendFromFilter(out, l.frontier)
            Some((promoted, pc.objects, pc.counter.comparisons - before))
          }
        }
    }
    assert(largest > 128, s"largest store $largest")
  }

  for (seed <- 0 until 6)
    test(s"sliced and scan stores agree step by step on TestGen relations (seed=$seed)") {
      val rng = new Random(500 + seed)
      val domains = Seq(5, 6, 4)
      val users = randomUsers(rng, 4, domains)
      replay(Clustering.commonRels(users), users.head.rels, rng, () => domains.map(rng.nextInt).toArray)
    }

  for (seed <- 0 until 3)
    test(s"sliced and scan stores agree step by step on domains of more than 64 values (seed=$seed)") {
      val rng = new Random(600 + seed)
      val domains = Seq(65 + rng.nextInt(66), 65 + rng.nextInt(66))
      val filter = domains.map(m => randomRelation(rng, m, 0.05)).toArray
      val member = filter.map(perturbedRelation(rng, _, drop = 0.0, addTries = 40))
      replay(filter, member, rng, () => domains.map(rng.nextInt).toArray)
    }

  // The Alg. 3 filter relations of latent group 0 and one of its users, over
  // the generator's own Zipf stream; "wide" has 130- and 70-value domains.
  for (cfg <- prefSimConfigs)
    test(s"sliced and scan stores agree step by step on PrefSim ${cfg.name} Alg. 3 filter relations") {
      val rels = prefSimRelations(cfg).toMap
      val stream = PrefSim.objects(cfg, Steps).iterator
      replay(rels(s"${cfg.name} Alg. 3"), rels(s"${cfg.name} user 0"), new Random(7),
        () => stream.next().attrs)
    }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.PrefSim
import scala.util.Random
import TestGen._

/** Each bit-sliced store against the scan store ([[ScanFrontier]]), the
  * count reference, step by step. Two levels over the same relations, one on
  * the scan store and one on the bit-sliced store under test, go through one
  * random sequence of every operation the engine uses on a level. After each
  * step both have answered the same, hold the same members in the same order
  * in `P` and in `PB`, and have counted the same comparisons. The stores
  * grow past 128 positions, so removals shift bits across words. A
  * bit-sliced level's `PB` is always the down-set store, so every windowed
  * case checks it against the scan buffer. On filter relations the equality,
  * up-set and down-set stores run as a windowed cluster's filter level `P`,
  * and the up-set store ([[Frontier]] itself) also append-only, as an
  * append-only cluster's `P_U`; the up-set store runs as a Baseline user's
  * level, windowed and append-only, on user relations. The member mend runs
  * only from the equality store, the only store the engine's mend reads.
  */
class SlicedFrontierSpec extends AnyFunSuite {

  private val Steps = 1500

  private type Store = (Array[PrefRelation], OpCounter) => Frontier
  private val eqStore: Store = new EqFrontier(_, _)
  private val upStore: Store = new Frontier(_, _)
  private val downStore: Store = new DownFrontier(_, _)

  /** Drive the scan store and `store` over `rels` with objects from `next`.
    * The member mend, when `store` is the equality store, builds a member
    * frontier under `memberRels` from `P`'s members, so that it holds only
    * members of `P`, as Lemma 1 gives; on the bit-sliced side it is an
    * up-set store, as in the engine. An append-only level has no buffer: its
    * buffer steps become `update`s. `inserts` of 10 steps insert in the
    * growing phases.
    */
  private def replay(store: Store, rels: Array[PrefRelation], memberRels: Array[PrefRelation],
                     rng: Random, next: () => Array[Int], windowed: Boolean, inserts: Int = 7): Unit = {
    val scan = new ScanLevel(new ScanFrontier(rels, new OpCounter), windowed)
    val sliced = new Level(store(rels, new OpCounter), windowed)
    val eq = sliced.frontier match { case f: EqFrontier => Some(f); case _ => None }
    if (windowed) assert(sliced.buffer.isInstanceOf[DownFrontier])
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
    def member(f: ScanFrontier): Option[Long] =
      if (f.size == 0) None else Some(f.objects(rng.nextInt(f.size)).ts)

    def both[A](step: Int, what: String)(scanOp: ScanLevel => A, op: Level => A): Unit = {
      val before = (scan.frontier.counter.comparisons, sliced.frontier.counter.comparisons)
      val (a, b) = (scanOp(scan), op(sliced))
      val at = s"step $step, $what"
      assert(a == b, at)
      assert(scan.frontier.counter.comparisons - before._1 == sliced.frontier.counter.comparisons - before._2,
        s"$at: comparisons")
      assert(scan.frontier.objects == sliced.frontier.objects, s"$at: P")
      if (windowed) assert(scan.buffer.objects == sliced.buffer.objects, s"$at: PB")
      largest = largest max scan.frontier.size max (if (windowed) scan.buffer.size else 0)
    }

    // Every other phase of 400 steps mostly inserts, so that the stores grow
    // past two words before the phase after it shrinks them.
    def op(step: Int): Int = if ((step / 400) % 2 == 0 && rng.nextInt(10) < inserts) rng.nextInt(3) else rng.nextInt(14)
    for (step <- 0 until Steps) op(step) match {
      case 0 | 1 => val o = fresh(); both(step, s"P.insert($o)")(_.frontier.insert(o), _.frontier.insert(o))
      case 2 if windowed => val o = fresh(); both(step, s"PB.insert($o)")(_.buffer.insert(o), _.buffer.insert(o))
      case 4     => val o = probe(); both(step, s"admit($o, $windowed)")(_.frontier.admit(o, windowed), _.frontier.admit(o, windowed))
      case 5     => val o = fresh(); both(step, s"arrive($o)")(_.arrive(o), _.arrive(o))
      case 6     => val o = probe(); both(step, s"dominatesNew($o)")(_.frontier.dominatesNew(o), _.frontier.dominatesNew(o))
      case 7     => val o = probe(); both(step, s"P.evictDominatedBy($o)")(_.frontier.evictDominatedBy(o), _.frontier.evictDominatedBy(o))
      case 8 if windowed => val o = probe(); both(step, s"PB.evictDominatedBy($o)")(_.buffer.evictDominatedBy(o), _.buffer.evictDominatedBy(o))
      case 9     => member(scan.frontier).foreach(t => both(step, s"P.remove($t)")(_.frontier.remove(t), _.frontier.remove(t)))
      case 10 if windowed => member(scan.buffer).foreach(t => both(step, s"PB.take($t)")(_.buffer.take(t), _.buffer.take(t)))
      case 11 if windowed => val o = probe()
        both(step, s"mendFromBuffer($o)")(l => l.frontier.mendFromBuffer(o, l.buffer), l => l.frontier.mendFromBuffer(o, l.buffer))
      case 12 if windowed => member(scan.buffer).foreach(t => both(step, s"expire($t)")(_.expire(t), _.expire(t)))
      case 13 if eq.nonEmpty =>
        // The member mend: `out` leaves `P` and the member frontier, whose
        // own counter takes the mend's comparisons. Each side answers with
        // its promotions, its member frontier after and those comparisons.
        val pick = rng.nextInt(Int.MaxValue)
        val (scanPc, slicedPc) = (new ScanFrontier(memberRels, new OpCounter), new Frontier(memberRels, new OpCounter))
        scan.frontier.objects.foreach(scanPc.update)
        sliced.frontier.objects.foreach(slicedPc.update)
        if (scanPc.size > 0) {
          val out = scanPc.objects(pick % scanPc.size)
          def counted[A](c: OpCounter)(run: => A): (A, Long) = { val before = c.comparisons; (run, c.comparisons - before) }
          both(step, s"mendFromFilter($out)")(
            l => { l.frontier.remove(out.ts); scanPc.remove(out.ts)
                   (counted(scanPc.counter)(scanPc.mendFromFilter(out, l.frontier)), scanPc.objects) },
            l => { l.frontier.remove(out.ts); slicedPc.remove(out.ts)
                   (counted(slicedPc.counter)(slicedPc.mendFromFilter(out, eq.get)), slicedPc.objects) })
        }
      case _ => val o = probe(); both(step, s"update($o)")(_.frontier.update(o), _.frontier.update(o))
    }
    assert(largest > 128, s"largest store $largest")
  }

  // Filter relations: the exact common relations of TestGen users, sparse
  // orders on domains of more than 64 values, and the Alg. 3 relations of
  // PrefSim's latent group 0 over the generator's own Zipf stream ("wide"
  // has 130- and 70-value domains). The member mend runs under one user's
  // relations. Append-only cases carry the suffix `, append-only`.
  for ((name, store, windowed) <- Seq(("sliced", eqStore, true), ("up-set", upStore, true),
                                      ("down-set", downStore, true), ("up-set", upStore, false))) {
    val mode = if (windowed) "" else ", append-only"
    for (seed <- 0 until 6)
      test(s"$name and scan stores agree step by step on TestGen relations (seed=$seed$mode)") {
        val rng = new Random(500 + seed)
        val domains = Seq(5, 6, 4)
        val users = randomUsers(rng, 4, domains)
        replay(store, Clustering.commonRels(users), users.head.rels, rng, () => domains.map(rng.nextInt).toArray,
          windowed)
      }

    for (seed <- 0 until 3)
      test(s"$name and scan stores agree step by step on domains of more than 64 values (seed=$seed$mode)") {
        val rng = new Random(600 + seed)
        val domains = Seq(65 + rng.nextInt(66), 65 + rng.nextInt(66))
        val filter = domains.map(m => randomRelation(rng, m, 0.05)).toArray
        val member = filter.map(perturbedRelation(rng, _, drop = 0.0, addTries = 40))
        replay(store, filter, member, rng, () => domains.map(rng.nextInt).toArray, windowed)
      }

    for (cfg <- prefSimConfigs)
      test(s"$name and scan stores agree step by step on PrefSim ${cfg.name} Alg. 3 filter relations$mode") {
        val rels = prefSimRelations(cfg).toMap
        val stream = PrefSim.objects(cfg, Steps).iterator
        replay(store, rels(s"${cfg.name} Alg. 3"), rels(s"${cfg.name} user 0"), new Random(7),
          () => stream.next().attrs, windowed)
      }
  }

  // User relations, as a Baseline user's level: one TestGen user (the mend
  // under another user's relations), users of dense orders on domains of
  // more than 64 values, and PrefSim's users 0 and 1. A user's richer order
  // lets an arrival evict more members, so growing phases insert more.
  for (windowed <- Seq(true, false)) {
    for (seed <- 0 until 3)
      test(s"up-set and scan stores agree step by step on TestGen user relations (seed=$seed, windowed=$windowed)") {
        val rng = new Random(700 + seed)
        val domains = Seq(5, 6, 4)
        val users = randomUsers(rng, 4, domains)
        replay(upStore, users(0).rels, users(1).rels, rng, () => domains.map(rng.nextInt).toArray, windowed, inserts = 9)
      }
    for (seed <- 0 until 2)
      test(s"up-set and scan stores agree step by step on user relations over more than 64 values (seed=$seed, windowed=$windowed)") {
        val rng = new Random(800 + seed)
        val domains = Seq(65 + rng.nextInt(66), 65 + rng.nextInt(66))
        val base = domains.map(m => randomRelation(rng, m, 0.05)).toArray
        val user = base.map(perturbedRelation(rng, _, drop = 0.0, addTries = 40))
        val other = base.map(perturbedRelation(rng, _, drop = 0.0, addTries = 40))
        replay(upStore, user, other, rng, () => domains.map(rng.nextInt).toArray, windowed, inserts = 9)
      }
    for (cfg <- prefSimConfigs)
      test(s"up-set and scan stores agree step by step on PrefSim ${cfg.name} user relations (windowed=$windowed)") {
        val rels = prefSimRelations(cfg).toMap
        val stream = PrefSim.objects(cfg, Steps).iterator
        replay(upStore, rels(s"${cfg.name} user 0"), rels(s"${cfg.name} user 1"), new Random(8),
          () => stream.next().attrs, windowed, inserts = 9)
      }
  }
}

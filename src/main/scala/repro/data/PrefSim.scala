package repro.data

import repro.core.{Obj, PrefRelation, UserPrefs}
import scala.util.Random

/** Synthetic stand-ins for the paper's Movie (Netflix ⋈ IMDB) and
  * Publication (ACM DL) datasets — see DESIGN.md §3/§4 for the
  * substitution rationale.
  *
  * Per user and attribute value we simulate the paper's two statistics
  * (average rating `R_v` and count `M_v` for movies; collaborations and
  * citations for publications) from latent group profiles plus per-user
  * noise, then derive preference tuples with the paper's own rule:
  * `(a, b) ∈ ≻_c^d` iff `(R_a > R_b ∧ M_a ≥ M_b) ∨ (R_a ≥ R_b ∧ M_a > M_b)`
  * — 2-D product dominance, hence a genuine strict partial order.
  * Values a user has not interacted with are incomparable to everything.
  *
  * Deterministic in (config, seed).
  */
object PrefSim {

  final case class AttrConfig(name: String, domainSize: Int)

  final case class SimConfig(name: String,
                             attrs: Vector[AttrConfig],
                             nUsers: Int,
                             nGroups: Int,
                             coverage: Double,    // fraction of domain a user has seen
                             ratingNoise: Double, // stddev of per-user rating jitter
                             countNoise: Double,  // stddev of per-user count jitter
                             idioMin: Double,     // per-user idiosyncrasy multiplier range
                             idioSpan: Double,
                             seed: Long)

  /** Movie dataset stand-in: D = {actor, director, genre, writer}. */
  def movieConfig(nUsers: Int = 200, seed: Long = 17): SimConfig =
    SimConfig("movie",
      Vector(AttrConfig("actor", 60), AttrConfig("director", 40),
             AttrConfig("genre", 18), AttrConfig("writer", 50)),
      nUsers, nGroups = 12, coverage = 0.96, ratingNoise = 0.17, countNoise = 0.35,
      idioMin = 0.45, idioSpan = 1.7, seed)

  /** Publication dataset stand-in: D = {affiliation, author, conference,
    * keyword}. Lower diversity (less noise, higher coverage) than movie —
    * the paper's publication users share more preferences, which shows up
    * as higher approximate recall (Tables XI/XII).
    */
  def publicationConfig(nUsers: Int = 200, seed: Long = 29): SimConfig =
    SimConfig("publication",
      Vector(AttrConfig("affiliation", 40), AttrConfig("author", 60),
             AttrConfig("conference", 25), AttrConfig("keyword", 45)),
      nUsers, nGroups = 10, coverage = 0.995, ratingNoise = 0.1, countNoise = 0.22,
      idioMin = 0.6, idioSpan = 0.9, seed)

  /** Latent quality/popularity of value `v` of attribute `a` for group `g`
    * — deterministic hash-based doubles in [0, 1).
    */
  private def latent(seed: Long, g: Int, a: Int, v: Int, which: Int): Double = {
    var h = seed * 0x9E3779B97F4A7C15L + g * 0xC2B2AE3D27D4EB4FL +
      a * 0x165667B19E3779F9L + v * 0x27D4EB2F165667C5L + which * 0x85EBCA77C2B2AE63L
    h ^= h >>> 33; h *= 0xFF51AFD7ED558CCDL; h ^= h >>> 33; h *= 0xC4CEB9FE1A85EC53L
    h ^= h >>> 33
    (h >>> 11).toDouble / (1L << 53).toDouble
  }

  /** Generate all users' preference relations. */
  def users(cfg: SimConfig): Seq[UserPrefs] =
    (0 until cfg.nUsers).map { uid =>
      val rng = new Random(cfg.seed * 1_000_003L + uid)
      val group = uid % cfg.nGroups
      // Per-user idiosyncrasy: real user populations are heterogeneous —
      // some users sit near their group's taste profile, others stray.
      // This spreads dendrogram merge similarities across the h range
      // (tight users cluster early, stray ones only at lower cuts), which
      // is what makes recall decline as h decreases (paper Tables XI/XII).
      val idio = cfg.idioMin + cfg.idioSpan * latent(cfg.seed, uid, -1, 0, 4)
      val rels = cfg.attrs.zipWithIndex.map { case (attr, ai) =>
        val m = attr.domainSize
        val seen = (0 until m).filter(_ => rng.nextDouble() < cfg.coverage)
        // Hierarchical latent profiles: sibling groups (same supergroup)
        // share part of their taste, so agglomeration keeps finding
        // slightly-less-similar merges as the branch cut h decreases —
        // mirroring the real datasets' smooth dendrograms.
        val superGroup = group / 2
        def profile(v: Int, which: Int): Double =
          0.5 * latent(cfg.seed, 1000 + superGroup, ai, v, which + 2) +
            0.5 * latent(cfg.seed, group, ai, v, which)
        // Discretized stats: ties create incomparability like real ratings.
        val quality = seen.map(v => v -> profile(v, 0)).toMap
        val rating = seen.map { v =>
          val base = quality(v) * 5.0
          v -> (math.round((base + rng.nextGaussian() * cfg.ratingNoise * idio).max(0).min(5) * 2) / 2.0)
        }.toMap
        // Count correlates with quality (the paper's own intuition: a user
        // watches/reads more of what they prefer) plus an independent
        // popularity component — (R, M) are mostly concordant, so the
        // derived partial orders are rich and same-group users overlap.
        val count = seen.map { v =>
          val pop = profile(v, 1)
          val base = (0.7 * quality(v) + 0.3 * pop) * 12.0
          v -> math.max(0L, math.round(base + rng.nextGaussian() * cfg.countNoise * idio))
        }.toMap
        val edges = for {
          a <- seen; b <- seen if a != b
          ra = rating(a); rb = rating(b); ma = count(a); mb = count(b)
          if (ra > rb && ma >= mb) || (ra >= rb && ma > mb)
        } yield (a, b)
        PrefRelation.fromEdges(m, edges)
      }.toArray
      UserPrefs(uid, rels)
    }

  /** Object stream: each attribute value Zipf(1.1)-distributed over its
    * domain (popular actors appear in more movies), timestamps 1..n.
    */
  def objects(cfg: SimConfig, n: Int, seedOffset: Long = 7): Seq[Obj] = {
    val rng = new Random(cfg.seed * 7_368_787L + seedOffset)
    val cdfs = cfg.attrs.map { attr =>
      val w = (1 to attr.domainSize).map(k => 1.0 / math.pow(k, 1.1))
      val total = w.sum
      w.scanLeft(0.0)(_ + _).tail.map(_ / total).toArray
    }
    (1 to n).map { ts =>
      val attrs = cdfs.map { cdf =>
        val u = rng.nextDouble()
        val i = cdf.indexWhere(u <= _)
        if (i < 0) cdf.length - 1 else i
      }.toArray
      Obj(ts.toLong, attrs)
    }
  }
}

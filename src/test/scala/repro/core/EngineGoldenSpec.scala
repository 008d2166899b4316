package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.data.PrefSim
import repro.exp.Experiments

/** Golden outputs of the six dissemination modes at PrefSim scale: the
  * default 200-user movie and publication populations restricted to latent
  * groups 0 and 2 (34 and 40 users, two clusters each at h = 0.55), n =
  * 2,000 objects, W = 500 and a snapshot every 100 arrivals. Each mode must
  * do exactly the recorded number of comparisons and reproduce the recorded
  * digests of its emissions, final frontiers and snapshots. FTV-Exact must
  * also equal Baseline at this scale, append-only and windowed (Thm. 2).
  */
class EngineGoldenSpec extends AnyFunSuite {
  import EngineGoldenSpec._

  private val N = 2000
  private val W = 500
  private val SnapshotEvery = 100
  private val H = 0.55

  private val Modes = Seq("Baseline", "FTV-Approx", "FTV-Exact",
    "BaselineSW", "FTV-Approx-SW", "FTV-Exact-SW")

  private val golden: Map[(String, String), Golden] = Map(
    ("movie", "Baseline")            -> Golden(1415068L,
      "0be4838784c94bd0", "3cc2f81ff24af6d8", "e3b0c44298fc1c14"),
    ("movie", "FTV-Approx")          -> Golden(1669495L,
      "d948f229e4c19874", "5f91c2241c294f5b", "e3b0c44298fc1c14"),
    ("movie", "FTV-Exact")           -> Golden(3493642L,
      "0be4838784c94bd0", "3cc2f81ff24af6d8", "e3b0c44298fc1c14"),
    ("movie", "BaselineSW")          -> Golden(11569842L,
      "b33ca981d7065412", "dab5580e12f3023c", "8fc4233df581d5b0"),
    ("movie", "FTV-Approx-SW")       -> Golden(7106241L,
      "07b1f0d23b65dd69", "af0a0f042ce15ca6", "488f4dcded772a67"),
    ("movie", "FTV-Exact-SW")        -> Golden(12314367L,
      "b33ca981d7065412", "dab5580e12f3023c", "8fc4233df581d5b0"),
    ("publication", "Baseline")      -> Golden(949988L,
      "22465ce2e939f716", "e9d4b777f53da050", "e3b0c44298fc1c14"),
    ("publication", "FTV-Approx")    -> Golden(624874L,
      "2113cd225e2baea8", "f8fc5a57d5985158", "e3b0c44298fc1c14"),
    ("publication", "FTV-Exact")     -> Golden(1040271L,
      "22465ce2e939f716", "e9d4b777f53da050", "e3b0c44298fc1c14"),
    ("publication", "BaselineSW")    -> Golden(10361758L,
      "200605e5b3bb4024", "526d1a9d2b2201bd", "99dfd7755487e995"),
    ("publication", "FTV-Approx-SW") -> Golden(3112386L,
      "233a2502086b8d79", "48242ba0cb0edda0", "0c4d0ac4a7e4f6b2"),
    ("publication", "FTV-Exact-SW")  -> Golden(5111293L,
      "200605e5b3bb4024", "526d1a9d2b2201bd", "99dfd7755487e995"))

  private final class Dataset(cfg: PrefSim.SimConfig) {
    val users: Seq[UserPrefs] = PrefSim.users(cfg).filter(u => Set(0, 2)(u.userId % cfg.nGroups))
    val objects: Seq[Obj] = PrefSim.objects(cfg, N)
    val dendro: Clustering.Dendrogram = Clustering.dendrogram(users, Clustering.SimVecWJ)
    val approx: Seq[Cluster] = Experiments.approxClustersAt(dendro, H)
    val exact: Seq[Cluster] = Clustering.exactClusters(dendro, H)

    private def outcome(window: Option[Int], clusters: Option[Seq[Cluster]]): Outcome = {
      val every = window.fold(Int.MaxValue)(_ => SnapshotEvery)
      val r = clusters match {
        case None     => Baseline.run(users, objects, window, every)
        case Some(cs) => FilterThenVerify.run(cs, objects, window, every)
      }
      Outcome(r.comparisons,
        r.emissions.map(e => e.ts -> e.users.toSeq.sorted).sortBy(_._1),
        r.frontiers, r.snapshots)
    }

    lazy val outcomes: Map[String, Outcome] = Modes.map { mode =>
      val window = if (mode.endsWith("SW")) Some(W) else None
      val clusters =
        if (mode.startsWith("Baseline")) None
        else if (mode.startsWith("FTV-Exact")) Some(exact)
        else Some(approx)
      mode -> outcome(window, clusters)
    }.toMap
  }

  private lazy val datasets: Map[String, Dataset] = Map(
    "movie" -> new Dataset(PrefSim.movieConfig()),
    "publication" -> new Dataset(PrefSim.publicationConfig()))

  for ((name, size) <- Seq("movie" -> 17, "publication" -> 20))
    test(s"$name: groups 0 and 2 give two clusters of $size at h = $H, approximate and exact") {
      val ds = datasets(name)
      assert(ds.users.size == 2 * size)
      assert(ds.approx.map(_.members.size) == Seq(size, size))
      assert(ds.exact.map(_.members.map(_.userId)) == ds.approx.map(_.members.map(_.userId)))
    }

  for (name <- Seq("movie", "publication"); mode <- Modes)
    test(s"$name $mode: comparisons and output digests match the recorded run") {
      val got = datasets(name).outcomes(mode).digests
      assert(got == golden((name, mode)))
    }

  for (name <- Seq("movie", "publication"); (exact, base) <- Seq(
      "FTV-Exact" -> "Baseline", "FTV-Exact-SW" -> "BaselineSW"))
    test(s"$name: $exact answers exactly as $base (Thm. 2)") {
      val out = datasets(name).outcomes
      assert(out(exact).emissions == out(base).emissions)
      assert(out(exact).frontiers == out(base).frontiers)
      assert(out(exact).snapshots == out(base).snapshots)
    }
}

object EngineGoldenSpec {
  /** Recorded run of one mode: comparisons, then the digests of its
    * emissions, final frontiers and snapshots.
    */
  private final case class Golden(comparisons: Long, emissions: String, frontiers: String,
                                  snapshots: String)

  private def digest(lines: Iterator[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  private def frontierLines(f: Map[Int, Set[Long]]): Iterator[String] =
    f.toSeq.sortBy(_._1).iterator.map { case (u, ids) => s"$u:${ids.toSeq.sorted.mkString(",")}" }

  /** Comparisons, canonical emissions, final frontiers and snapshots of one run. */
  private final case class Outcome(comparisons: Long, emissions: Seq[(Long, Seq[Int])],
                                   frontiers: Map[Int, Set[Long]],
                                   snapshots: Seq[Map[Int, Set[Long]]]) {
    def digests: Golden = Golden(comparisons,
      digest(emissions.iterator.map { case (ts, us) => s"$ts:${us.mkString(",")}" }),
      digest(frontierLines(frontiers)),
      digest(snapshots.iterator.zipWithIndex.flatMap { case (s, i) => Iterator(s"#$i") ++ frontierLines(s) }))
  }
}

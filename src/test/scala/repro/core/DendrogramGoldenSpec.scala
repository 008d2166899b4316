package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.io.Source
import repro.data.PrefSim
import repro.exp.Experiments

/** Recorded `SimVecWJ` dendrograms of the PrefSim populations that the
  * benchmark and the experiments cluster: the default movie and publication
  * populations restricted to latent groups 0 and 2 (34 and 40 users), and
  * whole (200 users each). One more record pins the Sec. V weighted Jaccard
  * `SimWJ` (Eq. 5) on the 34-user movie population. A record
  * (`repro/core/dendrogram/<name>.txt` in the test resources) holds the
  * population's user ids, one line per merge with the ids of the two merged
  * clusters and their similarity, and the clusters of each branch cut in
  * `Experiments.BranchCuts`. Cluster ids number the users 0 until n in
  * population order, then the cluster made by merge k is n + k.
  */
class DendrogramGoldenSpec extends AnyFunSuite {
  import DendrogramGoldenSpec._

  private def prefSimUsers(cfg: PrefSim.SimConfig, whole: Boolean): Seq[UserPrefs] =
    PrefSim.users(cfg).filter(u => whole || Set(0, 2)(u.userId % cfg.nGroups))

  for ((dataset, cfg) <- Seq("movie" -> PrefSim.movieConfig(), "publication" -> PrefSim.publicationConfig());
       whole <- Seq(false, true))
    golden(s"$dataset-${if (whole) "all" else "groups-0-2"}", prefSimUsers(cfg, whole), Clustering.SimVecWJ)

  golden("movie-groups-0-2-weighted-jaccard", prefSimUsers(PrefSim.movieConfig(), whole = false), ExactMeasures.SimWJ)

  /** The three checks of record `name` against the dendrogram of `population`
    * under `measure`, both built on first use.
    */
  private def golden(name: String, population: => Seq[UserPrefs], measure: Clustering.Measure): Unit = {
    lazy val users = population
    lazy val dendro = Clustering.dendrogram(users, measure)
    lazy val record = Record.load(name)

    test(s"$name: each merge joins the recorded member sets, in the recorded order") {
      assert(users.map(_.userId) == record.users)
      val sets = record.users.map(Set(_)).toBuffer
      val expected = record.merges.map { case (l, r, _) =>
        sets += sets(l) ++ sets(r)
        (sets(l), sets(r))
      }
      assert(expected.size == users.size - 1)
      assert(dendro.merges.map(m => (m.left, m.right)) == expected)
    }

    test(s"$name: each merge's similarity is the recorded one to within 1e-12") {
      val got = dendro.merges.map(_.sim)
      val want = record.merges.map(_._3)
      assert(got.size == want.size)
      got.zip(want).zipWithIndex.foreach { case ((g, w), k) =>
        assert(math.abs(g - w) <= 1e-12, s"merge $k: sim $g, recorded $w")
      }
    }

    test(s"$name: the branch cuts at ${Experiments.BranchCuts.mkString(", ")} give the recorded clusters") {
      assert(record.cuts.map(_._1) == Experiments.BranchCuts)
      record.cuts.foreach { case (h, clusters) =>
        assert(dendro.cut(h).toSet == clusters, s"h = $h")
      }
    }
  }
}

object DendrogramGoldenSpec {
  /** A recorded dendrogram: user ids, merges as (left id, right id, sim)
    * and the clusters of each branch cut.
    */
  private final case class Record(users: Seq[Int], merges: Seq[(Int, Int, Double)],
                                  cuts: Seq[(Double, Set[Set[Int]])])

  private object Record {
    private def ids(s: String): Seq[Int] = s.split(',').toSeq.map(_.toInt)

    def load(name: String): Record = {
      val src = Source.fromResource(s"repro/core/dendrogram/$name.txt")
      val lines = try src.getLines().map(_.split(' ').toList).toList finally src.close()
      Record(
        lines.collect { case "users" :: us :: Nil => ids(us) }.flatten,
        lines.collect { case "merge" :: l :: r :: sim :: Nil => (l.toInt, r.toInt, sim.toDouble) },
        lines.collect { case "cut" :: h :: clusters => (h.toDouble, clusters.map(ids(_).toSet).toSet) })
    }
  }
}

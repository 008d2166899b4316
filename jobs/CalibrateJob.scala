package repro.jobs

import repro.core._
import repro.data.PrefSim
import repro.exp.Experiments

/** Diagnostic entrypoint: prints the dendrogram merge-similarity profile,
  * cluster-size distribution at each branch cut, and the size of common vs
  * approximate relations — used to calibrate the synthetic datasets so the
  * paper's h ∈ [0.55, 0.70] cuts land in the interesting clustering regime.
  */
object CalibrateJob {
  def main(args: Array[String]): Unit = {
    val nUsers = Experiments.envInt("REPRO_BENCH_USERS", 60)
    Experiments.datasetConfigs(nUsers).foreach { cfg =>
      val users = PrefSim.users(cfg)
      val dendro = Clustering.dendrogram(users, Clustering.SimVecWJ)
      val sims = dendro.merges.map(_.sim)
      println(s"=== ${cfg.name}: ${users.size} users ===")
      println(f"merge sims: max=${sims.max}%.3f min=${sims.min}%.3f " +
        s"profile=${sims.grouped(math.max(1, sims.size / 12)).map(g => f"${g.head}%.2f").mkString(",")}")
      Experiments.BranchCuts.foreach { h =>
        val cut = dendro.cut(h)
        val sizes = cut.map(_.size).sortBy(-_)
        val clusters = Experiments.approxClustersAt(dendro, h)
        val avgApproxFrac = clusters.map { c =>
          val exact = Clustering.commonRels(c.members)
          c.filterRels.zip(exact).map { case (a, e) => s"${e.size}/${a.size}" }.mkString(" ")
        }
        println(f"h=$h%.2f  clusters=${cut.size}%3d  sizes=${sizes.take(12).mkString(",")}" +
          s"  (common/approx tuples per attr of first cluster: ${avgApproxFrac.headOption.getOrElse("-")})")
      }
      // Quick local efficacy probe (small n, no Spark).
      val n = Experiments.envInt("REPRO_CAL_N", 2000)
      val objects = PrefSim.objects(cfg, n)
      val exact = Baseline.run(users, objects)
      val t2s = sys.env.get("REPRO_CAL_T2").map(_.split(",").map(_.toDouble).toSeq)
        .getOrElse(Seq(Experiments.Threshold2))
      for (t2 <- t2s; h <- Experiments.BranchCuts) {
        val clusters = Experiments.approxClustersAt(dendro, h, t2)
        val approx = FilterThenVerify.run(clusters, objects)
        val prf = Metrics.prf(approx.frontiers, exact.frontiers)
        println(f"t2=$t2%.2f h=$h%.2f  n=$n  precision=${prf.precision * 100}%6.2f  recall=${prf.recall * 100}%6.2f" +
          f"  cmpBase=${exact.comparisons}  cmpFtvA=${approx.comparisons}")
      }
    }
  }
}

package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Work-done and execution-time comparison backing the paper's Figures
  * 6-13 (figures themselves are out of scope; the winner/factor shape is
  * what we reproduce): Baseline vs FilterThenVerifyExact vs
  * FilterThenVerifyApprox, append-only and over a sliding window.
  *
  * The paper reports 1-2 orders of magnitude fewer object comparisons for
  * the filter-then-verify family at |C| = 1,000 users. Ours is smaller and
  * does not track |C| / k (users per cluster): append-only
  * FilterThenVerifyApprox saves 0.64× (movie) and 1.78× (publication) at
  * 200 users, 1.57× and 2.17× at 400 (`REPRO_BENCH_USERS=400`), while
  * |C| / k roughly doubles. So we assert the *direction* only where it
  * holds at 200 users (publication wins) and report the raw numbers for
  * EXPERIMENTS.md.
  */
class TimingBench extends SparkSpec {

  test("Figs. 6-9 shape: append-only work done, Baseline vs FTV variants") {
    val rows = Experiments.timing(spark)
    println("=== Work done & time, append-only (Figs. 6-9 shape) ===")
    rows.foreach(r => println("  " + r.render))
    Seq("movie", "publication").foreach { ds =>
      val base = rows.find(r => r.dataset == ds && r.algo == "Baseline").get
      val ftvA = rows.find(r => r.dataset == ds && r.algo == "FilterThenVerifyApprox").get
      println(f"  $ds: comparison saving factor (approx vs baseline): " +
        f"${base.comparisons.toDouble / ftvA.comparisons}%.2fx")
    }
    // Publication (large, homogeneous clusters) must beat Baseline.
    val pubBase = rows.find(r => r.dataset == "publication" && r.algo == "Baseline").get
    val pubFtvA = rows.find(r => r.dataset == "publication" && r.algo == "FilterThenVerifyApprox").get
    assert(pubFtvA.comparisons < pubBase.comparisons,
      s"FilterThenVerifyApprox should prune comparisons on publication: " +
        s"${pubFtvA.comparisons} vs ${pubBase.comparisons}")
  }

  test("Figs. 10-13 shape: sliding-window work done at W=3200") {
    val n = Experiments.envInt("REPRO_BENCH_SW_N", 8000)
    val users = Experiments.envInt("REPRO_BENCH_SW_USERS", 200)
    val rows = Experiments.timing(spark, n = n, nUsers = users, window = Some(3200))
    println("=== Work done & time, sliding window W=3200 (Figs. 10-13 shape) ===")
    rows.foreach(r => println("  " + r.render))
    val pubBase = rows.find(r => r.dataset == "publication" && r.algo == "BaselineSW").get
    val pubFtvA = rows.find(r => r.dataset == "publication" && r.algo == "FilterThenVerifyApproxSW").get
    assert(pubFtvA.comparisons < pubBase.comparisons,
      s"FilterThenVerifyApproxSW should prune comparisons on publication: " +
        s"${pubFtvA.comparisons} vs ${pubBase.comparisons}")
  }

  test("Fig. 10a shape: cumulative SW cost grows with window size W") {
    val n = 4000; val users = 60
    val perW = Seq(400, 1600).map { w =>
      val rows = Experiments.timing(spark, n = n, nUsers = users, window = Some(w))
      w -> rows.find(r => r.dataset == "movie" && r.algo == "BaselineSW").get.comparisons
    }
    println("=== BaselineSW comparisons by window size (movie, n=4000) ===")
    perW.foreach { case (w, c) => println(s"  W=$w comparisons=$c") }
    assert(perW.last._2 > perW.head._2,
      "larger windows must cost more comparisons (bigger frontiers/buffers)")
  }
}

package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core._
import repro.core.TestGen._
import scala.util.Random

/** The distributed dataflow must agree bit-for-bit with the local core
  * algorithms, in batch and in Structured Streaming.
  */
class DisseminationSpec extends SparkSpec {

  private def scenario(seed: Int, nUsers: Int = 8, nObjs: Int = 60) = {
    val rng = new Random(seed)
    val domains = Seq(4, 5)
    val users = randomUsers(rng, nUsers, domains)
    val objects = randomObjects(rng, nObjs, domains)
    val clusters = randomExactClusters(rng, users, 3)
    (users, objects, clusters)
  }

  for (seed <- 0 until 3)
    test(s"batch Baseline over Spark equals the local Baseline run (seed=$seed)") {
      val (users, objects, _) = scenario(seed)
      val local = Baseline.run(users, objects)
      val dist = Dissemination.runBaseline(spark, users, objects)
      assert(dist.emissions == local.emissions)
      assert(dist.frontiers == local.frontiers)
      assert(dist.comparisons == local.comparisons)
    }

  for (seed <- 0 until 3)
    test(s"batch FilterThenVerify over Spark equals the local run (seed=$seed)") {
      val (_, objects, clusters) = scenario(10 + seed)
      val local = FilterThenVerify.run(clusters, objects)
      val dist = Dissemination.runFilterThenVerify(spark, clusters, objects)
      assert(dist.emissions == local.emissions)
      assert(dist.frontiers == local.frontiers)
      assert(dist.comparisons == local.comparisons)
    }

  for (seed <- 0 until 2)
    test(s"batch sliding-window runs over Spark equal the local runs (seed=$seed)") {
      val (users, objects, clusters) = scenario(20 + seed)
      val w = 15
      val localB = Baseline.run(users, objects, Some(w))
      val distB = Dissemination.runBaseline(spark, users, objects, Some(w))
      assert(distB.emissions.map(e => e.ts -> e.users).toMap ==
        localB.emissions.map(e => e.ts -> e.users).toMap)
      assert(distB.frontiers == localB.frontiers)
      assert(distB.comparisons == localB.comparisons)
      val localF = FilterThenVerifySW.run(clusters, objects, w)
      val distF = Dissemination.runFilterThenVerify(spark, clusters, objects, Some(w))
      assert(distF.emissions == localF.emissions)
      assert(distF.frontiers == localF.frontiers)
      assert(distF.comparisons == localF.comparisons)
    }

  test("batch windowed runs over Spark return the local runs' snapshots, with one cluster too") {
    val (users, objects, clusters) = scenario(40)
    val (w, every) = (15, 7)
    val localB = Baseline.run(users, objects, Some(w), every)
    val distB = Dissemination.runBaseline(spark, users, objects, Some(w), every)
    assert(localB.snapshots.size == objects.size / every)
    assert(distB.snapshots == localB.snapshots)
    assert(distB.frontiers == localB.frontiers)
    assert(distB.emissions == localB.emissions)
    assert(distB.comparisons == localB.comparisons)
    // One cluster leaves all but one partition empty.
    for (cs <- Seq(clusters, clusters.take(1))) {
      val localF = FilterThenVerify.run(cs, objects, Some(w), every)
      val distF = Dissemination.runFilterThenVerify(spark, cs, objects, Some(w), every)
      assert(distF.snapshots == localF.snapshots)
      assert(distF.frontiers == localF.frontiers)
      assert(distF.emissions == localF.emissions)
      assert(distF.comparisons == localF.comparisons)
    }
  }

  /** The streaming queries' session: it shares the SparkContext, but its
    * state stores take 2 shuffle partitions, not the 64 of the SQL frontier
    * tests. Every partition runs a state-store task per micro-batch, and
    * these queries have at most 3 cluster keys.
    */
  private lazy val streamSession = {
    val s = spark.newSession()
    s.conf.set("spark.sql.shuffle.partitions", "2")
    s
  }

  private def runStreaming(clusters: Seq[Cluster], objects: Seq[Obj],
                           window: Option[Int], batches: Int): Map[Long, Set[Int]] = {
    val session = streamSession
    import session.implicits._
    implicit val sqlCtx = session.sqlContext
    val source = MemoryStream[Dissemination.ObjEvent]
    val emissions = Dissemination.streamingEmissions(session, source.toDS(), clusters, window)
    val query = emissions.writeStream
      .format("memory")
      .queryName(s"emits_${System.nanoTime()}")
      .outputMode("append")
      .start()
    try {
      val sorted = objects.sortBy(_.ts)
      val chunk = math.max(1, sorted.size / batches)
      sorted.grouped(chunk).foreach { g =>
        source.addData(g.map(o => Dissemination.ObjEvent(o.ts, o.attrs.toSeq)))
        query.processAllAvailable()
      }
      session.table(query.name).collect()
        .map(r => (r.getLong(0), r.getInt(1)))
        .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    } finally query.stop()
  }

  test("streaming FilterThenVerify emissions equal the batch run (append-only)") {
    val (_, objects, clusters) = scenario(30, nUsers = 6, nObjs = 40)
    val local = FilterThenVerify.run(clusters, objects)
    val streamed = runStreaming(clusters, objects, window = None, batches = 5)
    val expected = local.emissions.filter(_.users.nonEmpty).map(e => e.ts -> e.users).toMap
    assert(streamed == expected)
  }

  test("streaming FilterThenVerifySW emissions equal the batch sliding-window run") {
    val (_, objects, clusters) = scenario(31, nUsers = 6, nObjs = 50)
    val w = 12
    val local = FilterThenVerifySW.run(clusters, objects, w)
    val streamed = runStreaming(clusters, objects, window = Some(w), batches = 4)
    val expected = local.emissions.filter(_.users.nonEmpty).map(e => e.ts -> e.users).toMap
    assert(streamed == expected)
  }

  test("streaming state survives across micro-batches (single-object batches)") {
    val (_, objects, clusters) = scenario(32, nUsers = 4, nObjs = 12)
    val local = FilterThenVerify.run(clusters, objects)
    val streamed = runStreaming(clusters, objects, window = None, batches = 12)
    val expected = local.emissions.filter(_.users.nonEmpty).map(e => e.ts -> e.users).toMap
    assert(streamed == expected)
  }

  test("comparison accumulator reports the filter-then-verify saving") {
    val rng = new Random(99)
    val domains = Seq(5, 5)
    val users = randomUsers(rng, 12, domains, nGroups = 2)
    val objects = randomObjects(rng, 150, domains)
    val clusters = users.groupBy(_.userId % 2).toSeq.sortBy(_._1).map {
      case (cid, ms) => Cluster(cid, Clustering.commonRels(ms), ms)
    }
    val base = Dissemination.runBaseline(spark, users, objects)
    val ftv = Dissemination.runFilterThenVerify(spark, clusters, objects)
    assert(base.comparisons > 0 && ftv.comparisons > 0)
    assert(ftv.emissions == base.emissions) // exact clusters: same answers
  }
}

package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core._

import scala.reflect.ClassTag

/** Distributed continuous-dissemination dataflow (repro hint: object stream
  * matched against *clustered user-preference partitions*).
  *
  * Batch path: clusters (or users, for Baseline) become a Dataset; each
  * task replays the broadcast object stream through the core state machine
  * for its partition of clusters — embarrassingly parallel across clusters,
  * identical results to the local core run.
  *
  * Streaming path: Structured Streaming with `flatMapGroupsWithState`
  * keyed by cluster id. Each incoming micro-batch of objects is replicated
  * to every cluster key (the "join" of the object stream with the
  * preference partitions); the per-key state is the core [[Replay]] of
  * that one cluster, count-based sliding-window expiry included (Sec. VII
  * semantics). As in the batch run, the final W objects never expire: no
  * arrival follows to push them out.
  */
object Dissemination {

  /** Row form of an emission: object `ts` was disseminated to `userId`. */
  final case class EmitRow(ts: Long, userId: Int)

  /** Internal union row for a single collect of emissions + frontiers
    * (public: Catalyst's generated code must construct it).
    */
  final case class OutRow(kind: Byte, ts: Long, userId: Int)
  private val EmitKind: Byte = 0
  private val FrontKind: Byte = 1

  /** The batch body: one task per unit (a Baseline user or a cluster)
    * replays the broadcast stream through `run`; comparisons add up in an
    * accumulator, and emissions and final frontiers come back in one collect.
    */
  private def runBatch[A: ClassTag](spark: SparkSession, units: Seq[A], allUsers: Seq[Int],
                                    objects: Seq[Obj])(run: (A, Seq[Obj]) => RunResult): RunResult = {
    import spark.implicits._
    val t0 = System.nanoTime()
    val acc = spark.sparkContext.longAccumulator("comparisons")
    val objB = spark.sparkContext.broadcast(objects.sortBy(_.ts))
    implicit val unitEnc: Encoder[A] = Encoders.javaSerialization[A]
    val rows = spark.createDataset(units).flatMap { u =>
      val res = run(u, objB.value)
      acc.add(res.comparisons)
      res.emissions.iterator.flatMap(e => e.users.iterator.map(uid => OutRow(EmitKind, e.ts, uid))) ++
        res.frontiers.iterator.flatMap { case (uid, ids) => ids.iterator.map(OutRow(FrontKind, _, uid)) }
    }.collect().toSeq
    val emits = rows.filter(_.kind == EmitKind).groupBy(_.ts)
      .view.mapValues(_.map(_.userId).toSet).toMap
    val fronts = rows.filter(_.kind == FrontKind).groupBy(_.userId)
      .view.mapValues(_.map(_.ts).toSet).toMap
    RunResult(objects.sortBy(_.ts).map(o => Emission(o.ts, emits.getOrElse(o.ts, Set.empty))),
      allUsers.map(u => u -> fronts.getOrElse(u, Set.empty[Long])).toMap,
      Nil, acc.value, System.nanoTime() - t0)
  }

  /** Baseline over Spark, one task per user; `window = Some(w)` is BaselineSW. */
  def runBaseline(spark: SparkSession, users: Seq[UserPrefs], objects: Seq[Obj],
                  window: Option[Int] = None): RunResult =
    runBatch(spark, users, users.map(_.userId), objects)((u, objs) => Baseline.run(Seq(u), objs, window))

  /** FilterThenVerify over Spark, one task per cluster; `window = Some(w)`
    * is FilterThenVerifySW.
    */
  def runFilterThenVerify(spark: SparkSession, clusters: Seq[Cluster], objects: Seq[Obj],
                          window: Option[Int] = None): RunResult =
    runBatch(spark, clusters, clusters.flatMap(_.members.map(_.userId)), objects)(
      (c, objs) => FilterThenVerify.run(Seq(c), objs, window))

  // ------------------------------------------------------------- streaming

  /** Object event as fed to the stream (Seq so a product encoder applies). */
  final case class ObjEvent(ts: Long, attrs: Seq[Int])

  /** Build the streaming query transformation: events → per-user emissions.
    * The caller owns the source (MemoryStream in tests, any source in jobs)
    * and must feed events in timestamp order.
    */
  def streamingEmissions(spark: SparkSession, events: Dataset[ObjEvent],
                         clusters: Seq[Cluster], window: Option[Int]): Dataset[EmitRow] = {
    import spark.implicits._
    val clusterB = spark.sparkContext.broadcast(clusters.map(c => c.clusterId -> c).toMap)
    implicit val stateEnc: Encoder[Replay] = Encoders.javaSerialization[Replay]
    val clusterIds = clusters.map(_.clusterId)
    events
      .flatMap(e => clusterIds.map(cid => (cid, e)))
      .groupByKey(_._1)
      .flatMapGroupsWithState[Replay, EmitRow](
        OutputMode.Append, GroupStateTimeout.NoTimeout()) {
        (cid: Int, rows: Iterator[(Int, ObjEvent)], state: GroupState[Replay]) =>
          val st = state.getOption.getOrElse(new Replay(
            Seq(new FilterThenVerify.ClusterState(clusterB.value(cid), windowed = window.isDefined)), window))
          val out = rows.map(_._2).toSeq.sortBy(_.ts).flatMap { e =>
            st.step(Obj(e.ts, e.attrs.toArray)).flatMap(em => em.users.map(EmitRow(em.ts, _)))
          }
          state.update(st)
          out.iterator
      }
  }
}

package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core._

import scala.reflect.ClassTag

/** Distributed continuous-dissemination dataflow (repro hint: object stream
  * matched against *clustered user-preference partitions*).
  *
  * Batch path: Baseline users or clusters never interact (Sec. IV: each
  * cluster keeps its own `P_U`, `PB_U` and member frontiers), so one Spark
  * task per partition of them runs the core run over the broadcast object
  * stream, and the driver unites the partitions' results: identical to the
  * local core run, snapshots and comparison counts included.
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

  /** The batch runner. Each task calls `run` once on its partition of units
    * and returns the `RunResult` without its empty `C_o`s. The driver unites
    * `C_o` per timestamp in stream order, the frontiers, and the snapshots
    * index by index, and sums the comparisons. Summing collected results,
    * unlike an accumulator updated in a transformation, counts a re-executed
    * task once.
    */
  private def runBatch[A: ClassTag](spark: SparkSession, units: Seq[A], objects: Seq[Obj])
                                   (run: (Seq[A], Seq[Obj]) => RunResult): RunResult = {
    val t0 = System.nanoTime()
    val sorted = objects.sortBy(_.ts)
    val objB = spark.sparkContext.broadcast(sorted)
    val parts = spark.sparkContext.parallelize(units).mapPartitions { us =>
      val res = run(us.toSeq, objB.value)
      Iterator.single(res.copy(emissions = res.emissions.filter(_.users.nonEmpty)))
    }.collect().toSeq
    val emits = parts.flatMap(_.emissions).groupMapReduce(_.ts)(_.users)(_ ++ _)
    RunResult(sorted.map(o => Emission(o.ts, emits.getOrElse(o.ts, Set.empty))),
      parts.flatMap(_.frontiers).toMap,
      parts.map(_.snapshots).transpose.map(_.flatten.toMap),
      parts.map(_.comparisons).sum, System.nanoTime() - t0)
  }

  /** Baseline over Spark, users split across tasks; `window = Some(w)` is
    * BaselineSW. `snapshotEvery` is the core run's.
    */
  def runBaseline(spark: SparkSession, users: Seq[UserPrefs], objects: Seq[Obj],
                  window: Option[Int] = None, snapshotEvery: Int = Int.MaxValue): RunResult =
    runBatch(spark, users, objects)(Baseline.run(_, _, window, snapshotEvery))

  /** FilterThenVerify over Spark, clusters split across tasks;
    * `window = Some(w)` is FilterThenVerifySW. `snapshotEvery` is the core
    * run's.
    */
  def runFilterThenVerify(spark: SparkSession, clusters: Seq[Cluster], objects: Seq[Obj],
                          window: Option[Int] = None, snapshotEvery: Int = Int.MaxValue): RunResult =
    runBatch(spark, clusters, objects)(FilterThenVerify.run(_, _, window, snapshotEvery))

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

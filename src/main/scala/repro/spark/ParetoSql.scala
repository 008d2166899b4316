package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Obj, PrefRelation}

/** Declarative Pareto frontier: object dominance under strict partial
  * orders expressed as a `NOT EXISTS` anti-join over preference-closure
  * edge tables. The same SQL text runs on Spark (Catalyst) and on DuckDB
  * via the test oracle `repro.Oracle`, giving result-equality checks for
  * the core algorithms and the distributed dataflow.
  */
object ParetoSql {

  /** Objects as a DataFrame: `ts, a0, ..., a{d-1}`. */
  def objectsDf(spark: SparkSession, objects: Seq[Obj]): DataFrame = {
    val d = objects.head.attrs.length
    val rows = objects.map(o => (o.ts +: o.attrs.map(_.toLong)).toSeq)
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(org.apache.spark.sql.Row.fromSeq)),
      org.apache.spark.sql.types.StructType(
        ("ts" +: (0 until d).map(i => s"a$i")).map(n =>
          org.apache.spark.sql.types.StructField(n, org.apache.spark.sql.types.LongType, nullable = false))
      ))
  }

  /** One preference relation as a `(better, worse, strict)` "greater-or-
    * equal" edge table: the transitive closure (strict = 1) plus the
    * identity pairs (strict = 0). Dominance then joins one such table per
    * attribute — no nested correlated subqueries, which keeps the SQL
    * inside both Catalyst's and DuckDB's supported correlation shapes.
    */
  def prefDf(spark: SparkSession, rel: PrefRelation): DataFrame = {
    import spark.implicits._
    val closure = rel.tuples.map { case (x, y) => (x.toLong, y.toLong, 1L) }
    val identity = (0 until rel.domainSize).map(v => (v.toLong, v.toLong, 0L))
    (closure ++ identity).toDF("better", "worse", "strict")
  }

  /** The dominance + frontier SQL, parameterized by table names. `objTable`
    * must have columns `ts, a0..a{d-1}`; `prefTables(i)` the geq table of
    * the i-th attribute's relation (see [[prefDf]]). An object is dominated
    * iff some other object is geq on every attribute and strictly better on
    * at least one (Def. 2); the frontier is the uncorrelated anti-join.
    */
  def frontierSql(objTable: String, prefTables: Seq[String]): String = {
    val d = prefTables.size
    val joins = (0 until d).map { i =>
      s"JOIN ${prefTables(i)} g$i ON g$i.better = p.a$i AND g$i.worse = q.a$i"
    }.mkString("\n    ")
    val strict = (0 until d).map(i => s"g$i.strict = 1").mkString(" OR ")
    s"""SELECT o.ts AS ts FROM $objTable o
       |WHERE o.ts NOT IN (
       |  SELECT q.ts FROM $objTable q
       |    JOIN $objTable p ON p.ts <> q.ts
       |    $joins
       |  WHERE $strict
       |)""".stripMargin
  }

  /** Pareto frontier of `objects` under `rels`, computed by Catalyst. */
  def frontier(spark: SparkSession, objects: Seq[Obj], rels: Array[PrefRelation],
               tag: String): DataFrame = {
    val objT = s"objs_$tag"
    val prefTs = rels.indices.map(i => s"pref${i}_$tag")
    objectsDf(spark, objects).createOrReplaceTempView(objT)
    rels.zipWithIndex.foreach { case (r, i) => prefDf(spark, r).createOrReplaceTempView(prefTs(i)) }
    spark.sql(frontierSql(objT, prefTs))
  }
}

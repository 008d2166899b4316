package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType}

/** Rating-event tables for the SQL preference derivation
  * (`repro.spark.PrefDerivation`): stand-ins for the paper's Netflix ⋈ IMDB
  * movie data. Generators are deterministic in their seed, so the DuckDB
  * oracle sees identical input.
  */
object SynthData {
  /** Movie metadata for the EDBT'18 Pareto-monitoring paper (stand-in for
    * the IMDB side of its Netflix ⋈ IMDB dataset): one row per movie with
    * integer-encoded actor / director / genre / writer, each Zipf-ish
    * skewed (popular values appear in more movies).
    */
  def movies(spark: SparkSession, n: Long, seed: Long = 11,
             domains: Seq[(String, Int)] = Seq("actor" -> 60, "director" -> 40,
                                               "genre" -> 18, "writer" -> 50)): DataFrame = {
    import spark.implicits._
    val cols = domains.zipWithIndex.map { case ((name, m), i) =>
      // pow(rand, k) concentrates mass near 0 — a cheap Zipf-ish skew.
      least(lit(m - 1), (pow(rand(seed + i), 3.0) * m).cast(IntegerType)) as name
    }
    spark.range(1, n + 1).toDF("movie_id").select(($"movie_id" +: cols): _*)
  }

  /** Rating events (stand-in for the Netflix side): `rowsPerUser` ratings
    * per user over `nMovies`, integer ratings 0..10 (half-star scale) so
    * that downstream average-rating comparisons stay in exact integer
    * arithmetic (see repro.spark.PrefDerivation).
    */
  def movieRatings(spark: SparkSession, nUsers: Int, nMovies: Long,
                   rowsPerUser: Int = 50, seed: Long = 13): DataFrame = {
    spark.range(nUsers.toLong * rowsPerUser).select(
      (col("id") / rowsPerUser).cast(IntegerType)            as "user_id",
      (rand(seed) * nMovies + 1).cast(LongType)              as "movie_id",
      (rand(seed + 1) * 11).cast(IntegerType)                as "rating",
    )
  }
}

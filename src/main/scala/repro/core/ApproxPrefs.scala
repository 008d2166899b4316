package repro.core

/** Approximate common preference relations (Sec. VI, Def. 8, Alg. 3
  * GetApproxPreferenceTuples): a greedy, frequency-ordered construction of
  * a strict partial order that contains every common preference tuple and
  * adds near-common tuples (frequency > `threshold2`) until `threshold1`
  * tuples are reached, closing transitively at each accepted step.
  */
object ApproxPrefs {

  /** Default deterministic tie-break among equal-frequency tuples. */
  def defaultTieRank(p: (Int, Int)): Long = p._1.toLong * 1000000L + p._2

  /** Build `≻_aU^d` for one attribute from the members' relations.
    *
    * @param rels       the members' relations on the attribute
    * @param threshold1 max size of the approximate relation (Alg. 3 line 7)
    * @param threshold2 min tuple frequency (fraction of members), exclusive
    * @param tieRank    order among tuples of equal frequency
    */
  def getApproxPreferenceTuples(rels: Seq[PrefRelation], threshold1: Int,
                                threshold2: Double,
                                tieRank: ((Int, Int)) => Long = defaultTieRank): PrefRelation = {
    require(rels.nonEmpty, "no relations")
    val m = rels.head.domainSize
    for ((r, i) <- rels.zipWithIndex)
      require(r.domainSize == m, s"member $i's relation has domain size ${r.domainSize}, member 0's has $m")
    // Tuple counts (Table V), entry x * m + y for (x, y).
    val counts = rels.map(Clustering.tupleVector(_, _ => 1.0)).reduce(Clustering.plus)
    // Sort descending by frequency; the paper leaves equal-frequency order
    // unspecified (Alg. 3 line 3) — a pluggable tie-break keeps runs
    // deterministic and lets tests replay Table V's exact sequence.
    val sorted = counts.indices.filter(counts(_) > 0)
      .map(i => ((i / m, i % m), counts(i) / rels.size))
      .sortBy { case (p, f) => (-f, tieRank(p)) }
    var rel = PrefRelation.empty(m)
    var stopped = false
    sorted.foreach { case ((x, y), f) =>
      if (!stopped) {
        if (f == 1.0) {
          // Common preference tuples are always included (lines 5-6).
          // The intersection of SPOs is an SPO, so add never fails here.
          rel = rel.add(x, y)
        } else if (rel.size >= threshold1 || f <= threshold2) {
          stopped = true // line 7-8
        } else if (rel.canAdd(x, y)) {
          rel = rel.add(x, y) // lines 9-10: closure of the union
        }
      }
    }
    rel
  }

  /** Approximate relation vector for a cluster's members, per attribute;
    * `threshold1` maps an attribute's domain size to its size cap.
    */
  def approxRels(members: Seq[UserPrefs], threshold1: Int => Int, threshold2: Double): Array[PrefRelation] =
    Array.tabulate(members.head.rels.length) { d =>
      getApproxPreferenceTuples(members.map(_.rels(d)), threshold1(members.head.rels(d).domainSize), threshold2)
    }
}

/** Efficacy metrics (Sec. VIII-A Eq. 7-8): compare per-user approximate
  * frontiers `P_ac` against exact frontiers `P_c`, summed over users.
  */
object Metrics {
  final case class PRF(precision: Double, recall: Double) {
    def fMeasure: Double =
      if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
  }

  /** Precision and recall of the final frontiers (Table XI). */
  def prf(approx: Map[Int, Set[Long]], exact: Map[Int, Set[Long]]): PRF =
    prfOverSnapshots(Seq(approx), Seq(exact))

  /** Accumulate precision/recall over a sequence of paired snapshots
    * (sliding-window efficacy, Table XII).
    */
  def prfOverSnapshots(approx: Seq[Map[Int, Set[Long]]],
                       exact: Seq[Map[Int, Set[Long]]]): PRF = {
    require(approx.size == exact.size, "snapshot count mismatch")
    var tp = 0L; var approxTotal = 0L; var exactTotal = 0L
    approx.zip(exact).foreach { case (as, es) =>
      (as.keySet ++ es.keySet).foreach { uid =>
        val a = as.getOrElse(uid, Set.empty)
        val e = es.getOrElse(uid, Set.empty)
        tp += (a & e).size; approxTotal += a.size; exactTotal += e.size
      }
    }
    PRF(if (approxTotal == 0) 1.0 else tp.toDouble / approxTotal,
        if (exactTotal == 0) 1.0 else tp.toDouble / exactTotal)
  }
}

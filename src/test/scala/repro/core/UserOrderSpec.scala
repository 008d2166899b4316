package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestGen._

/** The engine states keep their users in arrays, in input order, and reach
  * a user's frontier by position. So a state over users given in shuffled
  * order with sparse ids must answer every arrival and expiry as the same
  * state over the users sorted by id, keep every frontier at the brute-force
  * one, and show every user once in its id-keyed views.
  */
class UserOrderSpec extends AnyFunSuite {

  private val Ids = Seq(198, 3, 150, 7, 42, 91)
  private val Domains = Seq(5, 6)
  private val W = 25

  private val rng = new Random(17)
  private val users: Seq[UserPrefs] =
    randomUsers(rng, Ids.size, Domains).zip(Ids).map { case (u, id) => u.copy(userId = id) }
  private val objects: Seq[Obj] = randomObjects(rng, 150, Domains)
  private val filter: Array[PrefRelation] = Clustering.commonRels(users)

  private val states: Seq[(String, (Seq[UserPrefs], Boolean) => EngineState)] = Seq(
    "Baseline" -> ((us, windowed) => new Baseline.State(us, new OpCounter, windowed)),
    "FilterThenVerify" -> ((us, windowed) => new FilterThenVerify.ClusterState(Cluster(0, filter, us), new OpCounter, windowed)))

  /** Each user once in `frontiers` (Baseline) and `userFrontiers`, each
    * with a frontier of their own.
    */
  private def viewsHoldEveryUserOnce(st: EngineState): Unit = {
    assert(st.userFrontiers.size == Ids.size && st.userFrontiers.keySet == Ids.toSet)
    assert(st.userFrontiers.values.toSeq.distinct.size == Ids.size)
    st match {
      case b: Baseline.State =>
        assert(b.frontiers.size == Ids.size && b.frontiers.keySet == Ids.toSet)
        assert(b.frontiers.forall { case (uid, l) => l.frontier eq b.userFrontiers(uid) })
      case _ =>
    }
  }

  for ((name, make) <- states; window <- Seq(None, Some(W)))
    test(s"$name over shuffled sparse ids answers as over the id-sorted users (window=$window)") {
      val shuffled = make(users, window.isDefined)
      val sorted = make(users.sortBy(_.userId), window.isDefined)
      val fresh = make(users, window.isDefined) // its views are built only after the replay
      viewsHoldEveryUserOnce(shuffled)
      var emitted, promoted = 0
      objects.zipWithIndex.foreach { case (o, i) =>
        window.filter(i >= _).foreach { w =>
          val out = objects(i - w).ts
          val late = shuffled.onExpiry(out)
          assert(late == sorted.onExpiry(out), s"step $i expiry")
          assert(late == fresh.onExpiry(out), s"step $i expiry")
          promoted += late.size
        }
        val to = shuffled.onArrival(o)
        assert(to == sorted.onArrival(o), s"step $i arrival")
        assert(to == fresh.onArrival(o), s"step $i arrival")
        emitted += to.size
        val alive = objects.slice(window.fold(0)(w => math.max(0, i - w + 1)), i + 1)
        for (st <- Seq(shuffled, sorted); u <- users)
          assert(st.frontierIds(u.userId) == BruteForce.frontier(u.rels, alive), s"user ${u.userId} step $i")
      }
      // The answers are not all empty: users differ, and windowed, objects are promoted.
      assert(emitted > objects.size)
      assert(window.isEmpty || promoted > 0)
      Seq(shuffled, sorted, fresh).foreach(viewsHoldEveryUserOnce)
      assert(fresh.frontierIds == shuffled.frontierIds)
    }
}

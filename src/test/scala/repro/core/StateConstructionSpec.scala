package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestGen._

/** The engine states check an arrival against one relation vector: the
  * first Baseline user's, or a cluster's filter. So construction rejects a
  * user those relations do not cover, and a user id that would name two
  * frontiers.
  */
class StateConstructionSpec extends AnyFunSuite {

  private val chain5 = UserPrefs(1, Array(PrefRelation.fromEdges(5, (0 until 4).map(v => (v, v + 1)))))
  private val chain3 = UserPrefs(2, Array(PrefRelation.fromEdges(3, Seq((0, 1), (1, 2)))))
  private val objects = Seq(Obj(1, Array(4)), Obj(2, Array(1)))

  private def rejects(msg: String)(run: => Any): Unit = {
    val e = intercept[IllegalArgumentException](run)
    assert(e.getMessage.contains(msg), e.getMessage)
  }

  test("Baseline rejects a user whose domain sizes differ from the first user's") {
    for (window <- Seq(None, Some(2)))
      rejects("user 2, attribute 0: domain sizes (3), user 1 has (5)")(Baseline.run(Seq(chain5, chain3), objects, window))
  }

  test("Baseline rejects a user with another number of attributes") {
    val two = UserPrefs(2, Array(cpuC1, cpuC2))
    rejects("user 2, attribute 1: domain sizes (4, 4), user 0 has (4)")(
      new Baseline.State(Seq(UserPrefs(0, Array(cpuC1)), two)))
  }

  test("FilterThenVerify rejects a member whose domain sizes differ from the filter's") {
    val cluster = Cluster(7, chain5.rels, Seq(chain5, chain3))
    for (window <- Seq(None, Some(2)))
      rejects("user 2, attribute 0: domain sizes (3), cluster 7's filter has (5)")(
        FilterThenVerify.run(Seq(cluster), objects, window))
  }

  test("two users with one id are rejected, not merged into one frontier") {
    val again = UserPrefs(1, Array(PrefRelation.empty(5)))
    rejects("user 1: two users have this id")(Baseline.run(Seq(chain5, again), objects))
    rejects("user 1: two users have this id")(FilterThenVerify.run(Seq(Cluster(0, chain5.rels, Seq(chain5, again))), objects))
  }

  test("a repeated id is rejected when other users stand between the two") {
    val users = Seq(chain5, UserPrefs(5, chain5.rels), UserPrefs(1, Array(PrefRelation.empty(5))))
    for (window <- Seq(None, Some(2))) {
      rejects("user 1: two users have this id")(Baseline.run(users, objects, window))
      rejects("user 1: two users have this id")(FilterThenVerify.run(Seq(Cluster(0, chain5.rels, users)), objects, window))
    }
  }

  test("a replay rejects a Baseline state built for the other mode") {
    val c = new OpCounter
    rejects("window Some(2): the replay is windowed, a state is append-only")(
      new Replay(Seq(new Baseline.State(Seq(chain5), c)), Some(2)))
    rejects("window None: the replay is append-only, a state is windowed")(
      new Replay(Seq(new Baseline.State(Seq(chain5), c, windowed = true)), None))
  }

  test("a replay rejects a FilterThenVerify state built for the other mode") {
    val cluster = Cluster(0, chain5.rels, Seq(chain5))
    rejects("window Some(2): the replay is windowed, a state is append-only")(
      new Replay(Seq(new FilterThenVerify.ClusterState(cluster)), Some(2)))
    rejects("window None: the replay is append-only, a state is windowed")(
      new Replay(Seq(new FilterThenVerifySW.ClusterState(cluster, new OpCounter)), None))
  }

  test("a user id in two clusters of one replay is rejected") {
    val clusters = Seq(Cluster(0, chain5.rels, Seq(chain5)), Cluster(1, chain5.rels, Seq(chain5)))
    rejects("user 1: in two states of one replay")(FilterThenVerify.run(clusters, objects))
  }
}

package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Clustering
import repro.core.TestGen.isStrictPartialOrder

class PrefSimSpec extends AnyFunSuite {

  private val movieCfg = PrefSim.movieConfig(nUsers = 30)
  private val pubCfg = PrefSim.publicationConfig(nUsers = 30)

  test("generation is deterministic in (config, seed)") {
    val a = PrefSim.users(movieCfg)
    val b = PrefSim.users(movieCfg)
    a.zip(b).foreach { case (x, y) =>
      assert(x.userId == y.userId)
      x.rels.zip(y.rels).foreach { case (rx, ry) => assert(rx == ry) }
    }
    assert(PrefSim.objects(movieCfg, 100) == PrefSim.objects(movieCfg, 100))
  }

  test("different seeds give different preferences") {
    val a = PrefSim.users(movieCfg)
    val b = PrefSim.users(movieCfg.copy(seed = movieCfg.seed + 1))
    assert(a.zip(b).exists { case (x, y) => !x.rels.sameElements(y.rels) })
  }

  for (cfg <- Seq(movieCfg, pubCfg)) {
    test(s"${cfg.name}: every generated relation is a strict partial order") {
      PrefSim.users(cfg).foreach { u =>
        u.rels.zip(cfg.attrs).foreach { case (rel, attr) =>
          assert(rel.domainSize == attr.domainSize)
          assert(isStrictPartialOrder(rel.domainSize, rel.tuples))
        }
      }
    }

    test(s"${cfg.name}: d = 4 attributes as in the paper") {
      assert(cfg.attrs.size == 4)
    }

    test(s"${cfg.name}: objects have valid attribute values and unique timestamps") {
      val objs = PrefSim.objects(cfg, 200)
      assert(objs.map(_.ts).distinct.size == 200)
      objs.foreach { o =>
        o.attrs.zip(cfg.attrs).foreach { case (v, a) => assert(v >= 0 && v < a.domainSize) }
      }
    }

    test(s"${cfg.name}: same-group users are more similar than cross-group users") {
      val users = PrefSim.users(cfg)
      val g0 = users.filter(_.userId % cfg.nGroups == 0).take(2)
      val g1 = users.filter(_.userId % cfg.nGroups == 1).take(1)
      val same = Clustering.SimVecWJ(Clustering.singleton(g0(0)), Clustering.singleton(g0(1)))
      val cross = Clustering.SimVecWJ(Clustering.singleton(g0(0)), Clustering.singleton(g1(0)))
      assert(same > cross, s"same=$same cross=$cross")
    }

    test(s"${cfg.name}: relations are non-trivial (users actually have preferences)") {
      val users = PrefSim.users(cfg)
      assert(users.forall(_.rels.forall(_.size > 0)))
    }
  }

  test("object attribute values are Zipf-skewed (value 0 most frequent)") {
    val objs = PrefSim.objects(movieCfg, 2000)
    val counts = objs.map(_.attrs(0)).groupBy(identity).view.mapValues(_.size).toMap
    assert(counts.getOrElse(0, 0) > counts.getOrElse(movieCfg.attrs(0).domainSize - 1, 0))
  }

  test("publication users share more preferences than movie users (dataset shape)") {
    val mUsers = PrefSim.users(PrefSim.movieConfig(nUsers = 40))
    val pUsers = PrefSim.users(PrefSim.publicationConfig(nUsers = 40))
    def avgCommonFrac(users: Seq[repro.core.UserPrefs], nGroups: Int): Double = {
      val byGroup = users.groupBy(_.userId % nGroups).values.filter(_.size >= 2)
      val fracs = byGroup.map { g =>
        val common = Clustering.commonRels(g.take(4))
        val own = g.head.rels
        common.zip(own).map { case (c, o) => c.size.toDouble / math.max(1, o.size) }.sum / own.length
      }
      fracs.sum / fracs.size
    }
    val m = avgCommonFrac(mUsers, 12)
    val p = avgCommonFrac(pUsers, 10)
    assert(p > m, s"publication common fraction $p should exceed movie $m")
  }
}

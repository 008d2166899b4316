package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.PrefSim
import repro.exp.Experiments

/** Spark carries relations and engine state by Java serialisation: the
  * streaming state (`Replay` → `ClusterState` → `Cluster` → relations) after
  * every micro-batch, and the batch runner's broadcasts. The value lists the
  * stores build on first use must not travel with them, nor the test
  * kernel's outcome tables, and a state that travelled mid-stream must go
  * on exactly as one that did not.
  */
class StateSerializationSpec extends AnyFunSuite {

  private def bytes(o: AnyRef): Array[Byte] = {
    val buf = new ByteArrayOutputStream
    val out = new ObjectOutputStream(buf)
    out.writeObject(o)
    out.close()
    buf.toByteArray
  }

  private def restore[A](b: Array[Byte]): A =
    new ObjectInputStream(new ByteArrayInputStream(b)).readObject().asInstanceOf[A]

  private val cfg = PrefSim.publicationConfig(nUsers = 30)
  private val objects: Seq[Obj] = PrefSim.objects(cfg, 600)
  private val W = 150

  /** Latent group `g`'s members as one cluster under their Alg. 3 relations. */
  private def cluster(g: Int): Cluster = {
    val members = PrefSim.users(cfg).filter(_.userId % cfg.nGroups == g)
    Cluster(g, ApproxPrefs.approxRels(members, Experiments.threshold1For, Experiments.Threshold2), members)
  }

  test("a relation serialises to the same bytes before and after a replay builds its outcome table") {
    val c = cluster(0)
    val rels = c.filterRels ++ c.members.flatMap(_.rels)
    val before = rels.map(bytes)
    FilterThenVerify.run(Seq(c), objects, Some(W))
    // The outcome tables are the test kernel's, kept outside the relation;
    // the value lists the stores read are built on first use.
    rels.foreach(Dominance.outcomes)
    rels.foreach(r => (0 until r.domainSize).foreach(r.minOut))
    rels.foreach(r => (0 until r.domainSize).foreach(r.maxOut))
    rels.zip(before).foreach { case (r, b) => assert(bytes(r).sameElements(b)) }
    rels.foreach { r =>
      val copy = restore[PrefRelation](bytes(r))
      assert(copy == r)
      assert(Dominance.outcomes(copy).sameElements(Dominance.outcomes(r)))
      assert((0 until r.domainSize).forall(v => copy.minOut(v).sameElements(r.minOut(v))))
      assert((0 until r.domainSize).forall(v => copy.maxOut(v).sameElements(r.maxOut(v))))
    }
  }

  test("a ClusterState serialises to the same bytes before and after a replay builds its tables") {
    val c = cluster(2)
    val st = new FilterThenVerify.ClusterState(c, windowed = true)
    val before = bytes(st)
    // The run's own states share the cluster's relation objects with `st`.
    FilterThenVerify.run(Seq(c), objects, Some(W))
    assert(bytes(st).sameElements(before))
  }

  for (window <- Seq(None, Some(W)))
    test(s"a deserialised mid-stream Replay continues as an uninterrupted one (window=$window)") {
      val clusters = Seq(cluster(0), cluster(2))
      def start(): (Replay, OpCounter) = {
        val counter = new OpCounter
        (new Replay(clusters.map(new FilterThenVerify.ClusterState(_, counter, window.isDefined)), window), counter)
      }
      val (whole, wholeCounter) = start()
      val expected = objects.flatMap(whole.step)

      val (first, firstCounter) = start()
      val (head, tail) = objects.splitAt(objects.size / 2)
      val emittedBefore = head.flatMap(first.step)
      // The counter travels with the states that hold it, as one object graph.
      val (resumed, resumedCounter) = restore[(Replay, OpCounter)](bytes((first, firstCounter)))
      assert(resumed.frontiers == first.frontiers)
      val emitted = emittedBefore ++ tail.flatMap(resumed.step)

      assert(emitted == expected)
      assert(resumed.frontiers == whole.frontiers)
      assert(resumedCounter.comparisons == wholeCounter.comparisons)
    }
}

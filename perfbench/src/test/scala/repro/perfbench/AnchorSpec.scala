package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

/** Anchors the benchmark's replay to EXPERIMENTS.md: at its scale (200
  * users, h = 0.55, the generator's default seeds) the replay must do
  * exactly the comparisons reported there, again on a second, traced
  * replay, and must give the reference answers.
  */
class AnchorSpec extends AnyFunSuite {
  private val anchors = Seq(
    "movie-append"       -> 130623169L,
    "publication-window" -> 69803920L,
    "movie-baseline"     -> 83980449L)

  for ((name, comparisons) <- anchors)
    test(s"$name replays with exactly $comparisons comparisons at EXPERIMENTS.md scale") {
      val spec = Spec.experiments(name)
      val inputs = Inputs(spec, None)
      val (clusters, _) = Setup.run(spec, inputs.users, null)
      val objs = inputs.streams.head
      val first = LocalBench.replay(spec, inputs.users, clusters, objs, 0, null)
      val traced = LocalBench.replay(spec, inputs.users, clusters, objs, 0, new Tracer)
      assert(first.comparisons == comparisons)
      assert(traced.comparisons == comparisons)
      val answers = Reference.answers(spec, inputs.users, clusters, objs)
      assert(Reference.score(first.decided, answers).wrong == 0)
      assert(Reference.score(traced.decided, answers).wrong == 0)
    }
}

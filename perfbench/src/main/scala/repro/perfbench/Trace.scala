package repro.perfbench

import java.io.{BufferedWriter, FileWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run. A span is a name, a start
  * and end on the `System.nanoTime` clock, and the span that caused it.
  * Spans opened with [[open]]/[[close]] nest on one thread; spans taken
  * after the fact (Spark micro-batches read from query progress) are
  * attached with [[add]]. Nothing is written until [[write]].
  */
final class Tracer {
  private var name = new Array[Int](1 << 12)
  private var parent = new Array[Int](1 << 12)
  private var start = new Array[Long](1 << 12)
  private var end = new Array[Long](1 << 12)
  private var size = 0
  private var current = -1
  private val names = mutable.ArrayBuffer.empty[String]
  private val ids = mutable.HashMap.empty[String, Int]

  /** Interned id of a span name; look it up once, outside hot loops. */
  def id(spanName: String): Int = ids.getOrElseUpdate(spanName, { names += spanName; names.size - 1 })

  private def push(n: Int, p: Int, s: Long, e: Long): Int = {
    if (size == name.length) {
      val cap = size * 2
      name = java.util.Arrays.copyOf(name, cap); parent = java.util.Arrays.copyOf(parent, cap)
      start = java.util.Arrays.copyOf(start, cap); end = java.util.Arrays.copyOf(end, cap)
    }
    name(size) = n; parent(size) = p; start(size) = s; end(size) = e
    size += 1
    size - 1
  }

  /** Open a child of the innermost open span; returns its index. */
  def open(n: Int): Int = { current = push(n, current, System.nanoTime(), -1L); current }

  def close(span: Int): Unit = { end(span) = System.nanoTime(); current = parent(span) }

  /** Record a finished span under `parentSpan`. */
  def add(n: Int, parentSpan: Int, s: Long, e: Long): Unit = push(n, parentSpan, s, e)

  def span[A](n: Int)(body: => A): A = { val s = open(n); try body finally close(s) }

  /** Self time per span name: each span's duration minus the time its
    * children cover, summed over all spans of that name.
    */
  def selfNanos: Map[String, Long] = {
    val self = Array.tabulate(size)(i => end(i) - start(i))
    var i = 0
    while (i < size) {
      val p = parent(i)
      if (p >= 0) self(p) -= math.min(end(i), end(p)) - math.max(start(i), start(p))
      i += 1
    }
    val out = mutable.HashMap.empty[String, Long]
    i = 0
    while (i < size) { out(names(name(i))) = out.getOrElse(names(name(i)), 0L) + self(i); i += 1 }
    out.toMap
  }

  /** Total duration of the spans named `spanName`. */
  def totalNanos(spanName: String): Long =
    ids.get(spanName).fold(0L)(n => (0 until size).iterator.filter(name(_) == n).map(i => end(i) - start(i)).sum)

  /** Write at most `limit` spans as JSON lines (times relative to the
    * first span), then one line with the self-time summary.
    */
  def write(path: String, limit: Int): Unit = {
    val w = new BufferedWriter(new FileWriter(path))
    try {
      val t0 = if (size > 0) start(0) else 0L
      var i = 0
      while (i < math.min(size, limit)) {
        w.write(s"""{"span":$i,"name":"${names(name(i))}","parent":${parent(i)},""" +
          s""""start_ns":${start(i) - t0},"end_ns":${end(i) - t0}}""")
        w.newLine(); i += 1
      }
      w.write(selfNanos.toSeq.sortBy(-_._2).map { case (k, v) => s""""$k":$v""" }
        .mkString("""{"self_ns":{""", ",", s"""},"spans":$size,"written":${math.min(size, limit)}}"""))
      w.newLine()
    } finally w.close()
  }
}

#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run in a checkout compiles the
repository's main code and the harness with sbt (offline) and records the
runtime classpath under perfbench/target/, with a digest of the sources and
one of the compiled output. A later run reuses it only while both digests
still match; otherwise it runs sbt again, which recompiles what changed. So
the classes that run always come from the sources in the checkout, even after
another revision was compiled into the same target directories. The harness
then runs in its own JVM and prints notes followed by one JSON line with the
metrics. Scratch output (streaming checkpoints, spans of traced runs) goes to
perfbench/out/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
STAMP = HERE / "target" / "perfbench-classpath.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=3):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file whose change calls for a rebuild, in a stable order."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             HERE / "build.sbt", HERE / "project" / "build.properties"]
    for tree in (ROOT / "src" / "main", HERE / "src" / "main"):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    return files


def source_digest():
    digest = hashlib.sha256()
    for f in sources():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()


def output_digest(cp):
    """Digest of what the classpath holds: every file under its directories
    (the compiled classes), and the path, size and time of each jar."""
    digest = hashlib.sha256()
    for entry in cp.split(os.pathsep):
        p = Path(entry)
        digest.update(entry.encode())
        if p.is_dir():
            for f in sorted(q for q in p.rglob("*") if q.is_file()):
                digest.update(str(f.relative_to(p)).encode())
                digest.update(f.read_bytes())
        elif p.is_file():
            st = p.stat()
            digest.update(f"{st.st_size}:{st.st_mtime_ns}".encode())
        else:
            digest.update(b"missing")
    return digest.hexdigest()


def classpath():
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no repository sources next to {HERE.name}/; run from a full checkout")
    src = source_digest()
    try:
        rec = json.loads(STAMP.read_text())
        if rec["sources"] == src and rec["output"] == output_digest(rec["classpath"]):
            return rec["classpath"]
    except (OSError, ValueError, KeyError, TypeError):
        pass
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    print("perfbench: building (sources or compiled output changed since the last build)", file=sys.stderr)
    try:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or "[error]" in proc.stdout:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    cp = lines[-1].strip()
    STAMP.parent.mkdir(parents=True, exist_ok=True)
    STAMP.write_text(json.dumps({"sources": src, "output": output_digest(cp), "classpath": cp}) + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    cp = classpath()
    tmp = OUT / "tmp"
    for scratch in (tmp, OUT / "spark-local"):
        shutil.rmtree(scratch, ignore_errors=True)
    for old in OUT.glob("checkpoint-*"):
        shutil.rmtree(old, ignore_errors=True)
    tmp.mkdir(parents=True, exist_ok=True)
    # MarkSweepDeadRatio=0: a full GC compacts every region, so the heap it
    # leaves behind (live_heap_mb) holds no dead objects.
    cmd = ["java", "-Xmx3g", "-XX:MarkSweepDeadRatio=0", f"-Djava.io.tmpdir={tmp}", "-Dspark.ui.enabled=false",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", str(OUT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        for old in OUT.glob("checkpoint-*"):
            shutil.rmtree(old, ignore_errors=True)
        shutil.rmtree(OUT / "spark-local", ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

"""One workload in a fresh process; started by run.py, not by hand.

    worker.py --workload W --seed S --seconds T --trace 0|1 --t0 MONO
              [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import minlen`` and
building the inputs.  The last line of standard output is one JSON object.

Untraced: whole passes, ending as near ``--seconds`` as possible.  Traced:
one untraced pass, span-traced passes until ``--seconds`` have elapsed,
then one pass under cProfile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def source_digest():
    """SHA-256 over src/, which names the code when git cannot."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def code_version():
    """The git commit, or a digest of src/ outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return {"commit": proc.stdout.strip()}
    return {"commit": "unknown", "src_sha256": source_digest()}


def cpu_caches():
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if not os.path.isdir(cache_dir):
        return caches
    for index in sorted(os.listdir(cache_dir)):
        level = _read(os.path.join(cache_dir, index, "level")).strip()
        kind = _read(os.path.join(cache_dir, index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(
                os.path.join(cache_dir, index, "size")).strip()
    return caches


def machine():
    """Code, interpreter and CPU of this run."""
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        **code_version(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cache": cpu_caches(),
    }


def load_golden():
    with open(os.path.join(HERE, "golden", "verdicts.json")) as fh:
        return json.load(fh)


class Pass:
    """Latencies and verdicts of one pass over the ops."""

    def __init__(self):
        self.latency = {}  # op label -> seconds
        self.failures = {}  # op label -> checks.Failure
        self.wall = 0.0


def run_pass(ops, around=None):
    """Run every op once; `around(op, fn)` may wrap each call."""
    p = Pass()
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = around(op, op.run) if around else op.run()
            p.latency[op.label] = time.perf_counter() - t0
            verdict = op.check(out)
        except Exception as exc:  # an op that raises is a failed op
            p.latency.setdefault(op.label, time.perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            verdict = checks.Failure(f"raised {exc!r}"[:200])
        if verdict is not None:
            p.failures[op.label] = verdict
    p.wall = time.perf_counter() - start
    return p


def run_until(ops, deadline, around=None):
    """Whole passes, at least one, ending as near the deadline as possible."""
    passes = [run_pass(ops, around)]
    while True:
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() + typical / 2 >= deadline:
            return passes
        passes.append(run_pass(ops, around))


def primary_samples(ops, passes):
    """Summed latency of each op group, per pass."""
    out = []
    for p in passes:
        sums = {}
        for op in ops:
            if op.group is not None:
                sums[op.group] = sums.get(op.group, 0.0) + p.latency[op.label]
        out += sums.values()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import minlen
    import minlen.cli  # noqa: F401  (the CLI is not imported by minlen)

    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    golden = load_golden()
    ops = workloads.build(args.workload, minlen, args.seed, golden, workdir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "machine": dict(machine(), seed=args.seed, minlen=minlen.__version__,
                        numpy=numpy.__version__, scipy=scipy.__version__),
    }
    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        if args.trace:
            result.update(traced(ops, deadline, args, result["machine"]))
            passes = result.pop("passes")
        else:
            passes = run_until(ops, deadline)
            walls = [p.wall for p in passes]
            result["metrics"] = {
                "wall_s": statistics.median(walls),
                "op_p50_ms": 1e3 * statistics.median(
                    primary_samples(ops, passes)),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            result["walls"] = walls
        result["selftest_failures"] = checks.self_test(
            minlen, golden, os.path.join(workdir, "selftest"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # attempted and failed count the distinct ops, so that they depend on
    # the seed only and not on how many passes fit in the run; every pass
    # must repeat the first pass's verdicts
    first = passes[0].failures
    unknown = {f"{label}: {f.reason}" for p in passes
               for label, f in p.failures.items() if not f.known}
    unknown |= {f"pass {i}: ops {sorted(set(p.failures) ^ set(first))} "
                "changed verdict" for i, p in enumerate(passes)
                if set(p.failures) != set(first)}
    result["attempted"] = len(ops)
    result["failed"] = len(first)
    result["unknown_failures"] = sorted(unknown)
    result["known_failures"] = sorted(
        f"{label}: {f.reason}" for label, f in first.items() if f.known)
    result["passes"] = len(passes)
    print(json.dumps(result))
    return 0


def traced(ops, deadline, args, provenance):
    import tracing

    baseline = run_pass(ops)
    spans = tracing.SpanTracer()

    def in_span(op, fn):
        spans.op = op.label
        return spans.call(f"op.{op.kind}", fn)

    spans.install()
    try:
        passes = run_until(ops, deadline, in_span)
    finally:
        spans.uninstall()
    profile = tracing.CallProfile()
    profile.install()
    try:
        profiled = run_pass(ops, lambda op, fn: profile.run(op.kind, fn))
    finally:
        profile.uninstall()

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    spans.write_spans(stem + "-spans.jsonl", provenance)
    dumps = profile.write_dumps(stem + "-profile", provenance)
    span_wall = statistics.median(p.wall for p in passes)
    metrics = spans.metrics(len(passes))
    metrics.update(profile.metrics())
    metrics["trace.span_overhead_s"] = span_wall - baseline.wall
    metrics["trace.profile_overhead_s"] = profiled.wall - baseline.wall
    return {
        "metrics": metrics,
        "passes": [baseline, *passes, profiled],
        "walls": {"untraced": baseline.wall,
                  "span_traced": [p.wall for p in passes],
                  "profiled": profiled.wall},
        "artifacts": [stem + "-spans.jsonl", *dumps],
    }


if __name__ == "__main__":
    sys.exit(main())

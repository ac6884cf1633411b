"""minlen benchmark: four closed-loop workloads over the public API and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Workloads (see BENCHMARK.json for why each exists):

- ``verify-transformations``: verify_transformations at D = 3, one op per
  elementary rotation and translation, each with a seeded nonzero rational.
- ``verify-suites``: verify_algebra / verify_poincare / verify_reductions at
  D = 1..4, a seeded pinned-rational pass at D = 3 and the five tampers.
- ``oscillator-states``: per (beta_tilde, omega_tilde) pair, the spectrum,
  21 states at 32001 grid points with their uncertainty records, overlaps
  with the ground state and the eigen oracle.
- ``cli-reports``: in-process ``minlen.cli.main`` calls whose artifacts are
  read back.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, measured with tracing off:

- ``setup_s``: median over five fresh processes of the time from process
  start until the first op is ready (interpreter, ``import minlen``, inputs);
- ``wall_s``: median time of one pass over the workload's ops, checks
  included;
- ``op_p50_ms``: median latency of the primary op (one symbolic call; one
  state = wavefunction + uncertainty_report; one pair's wavefunction JSON +
  CSV CLI calls);
- ``peak_rss_mb``: peak resident memory of the measuring process.

``attempted`` is the number of distinct ops in the workload and ``failed``
the number of them whose check failed, so both depend on the seed alone;
every pass is checked and must repeat the first pass's verdicts.  Their
share is printed above the JSON line as ``fail_share``.  ``correct`` is
false when an op fails in a way that is not a recorded known defect (see
checks.py), a pass changes a verdict, or a checker accepts a deliberately
wrong output.

With ``--trace 1`` the metrics are the per-layer ones, per pass: times
from span-traced passes, call counts and the exact kernel's self times from
one cProfile pass, and the tracing overhead (traced minus untraced pass
time).  A layer the workload does not call reads 0.  Spans,
and a top-N cProfile listing per op kind, are written to ``perfbench/out``.
Every result file there records the seed, commit and machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
TIMEOUT_S = 170
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in bench["per_layer"]})
    return units


def spawn_worker(args, setup_only=False):
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "minlen", "__init__.py")):
        ap.error(f"no minlen package under {ROOT}/src: run from a checkout")
    units = load_units()
    os.makedirs(OUT, exist_ok=True)

    # set-up is an end-to-end metric, so the traced run skips the extra probes
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setup = [spawn_worker(args, setup_only=True)["setup_s"]
             for _ in range(probes)]
    res = spawn_worker(args)
    setup.append(res["setup_s"])

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    correct = not res["unknown_failures"] and not res["selftest_failures"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": res["machine"],
        "setup_samples": setup,
        "passes": res["passes"],
        "walls": res["walls"],
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "unknown_failures": res["unknown_failures"],
        "known_failures": res["known_failures"],
        "selftest_failures": res["selftest_failures"],
        "metrics": metrics,
        "artifacts": res.get("artifacts", []),
    }
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} commit={m['commit']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"nproc={m['nproc']} cpu={m['cpu_model']!r} cache={m['cache']}")
    print(f"# passes={res['passes']} attempted={res['attempted']} "
          f"failed={res['failed']} "
          f"fail_share={res['failed'] / res['attempted']:.4f} "
          f"correct={correct}")
    for line in res["unknown_failures"] + res["selftest_failures"]:
        print(f"# UNEXPECTED {line}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"# full record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

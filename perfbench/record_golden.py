"""Record the golden verdicts of every symbolic op.

    python3 perfbench/record_golden.py

Run from the repository root at the commit whose verdicts are the
reference.  Each op's VerificationReport.to_dict() is recorded under its
label in golden/verdicts.json.  The verdicts must not depend on the seed,
because every nonzero spec value or pinned rational satisfies the same
identities; the script checks that on two seeds before writing.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import minlen  # noqa: E402

import workloads  # noqa: E402


def verdicts(seed):
    out = {}
    for calls in workloads.SYMBOLIC_CALLS.values():
        for _, label, call in calls(minlen, random.Random(seed)):
            out[label] = call().to_dict()
    return out


def main():
    golden = verdicts(0)
    if verdicts(1) != golden:
        sys.exit("verdicts depend on the seed; not recording them")
    for label, rep in golden.items():
        if label.startswith("tamper-") == rep["passed"]:
            sys.exit(f"{label}: passed = {rep['passed']}")
    path = os.path.join(HERE, "golden", "verdicts.json")
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} verdicts to {path}")


if __name__ == "__main__":
    main()

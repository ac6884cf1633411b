"""Seeded mutation sweep of one module: which small edits does tier-1 miss?

    python tools/mutants.py src/minlen/oscillator/spectrum.py 0

A mutant swaps one operator (+ and -, * and /, < and <=, > and >=, == and
!=) or bumps one numeric constant by 1.  The seed draws up to SAMPLE of the
module's mutants.  Each one is written into a copy of the repository and
tier-1 runs on it with -x; a mutant that passes survives.  A sweep takes
minutes, so it is not part of tier-1.
"""

import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile

SAMPLE = 40
TIMEOUT = 600  # seconds per mutant; a hung mutant counts as killed
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
         ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def sites(tree):
    """(node index in ast.walk order, comparison slot) of every mutant."""
    found = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            found += [(i, 0)] if type(node.op) in SWAPS else []
        elif isinstance(node, ast.Compare):
            found += [(i, k) for k, op in enumerate(node.ops)
                      if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((i, 0))
    return found


def mutate(source, site):
    """The mutated source and a one-line description of the mutant."""
    tree = ast.parse(source)
    i, k = site
    node = list(ast.walk(tree))[i]
    if isinstance(node, ast.Constant):
        old, new = node.value, node.value + 1
        node.value = new
    elif isinstance(node, ast.Compare):
        old = node.ops[k]
        new = node.ops[k] = SWAPS[type(old)]()
    else:
        old = node.op
        new = node.op = SWAPS[type(old)]()
    name = lambda x: type(x).__name__ if isinstance(x, ast.AST) else repr(x)
    return ast.unparse(tree), f"line {node.lineno}: {name(old)} -> {name(new)}"


def main(module, seed):
    rel = os.path.relpath(os.path.abspath(module), ROOT)
    with open(module) as fh:
        source = fh.read()
    found = sites(ast.parse(source))
    picked = sorted(random.Random(seed).sample(found, min(SAMPLE, len(found))))
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", "out"))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        for site in picked:
            text, what = mutate(source, site)
            with open(os.path.join(copy, rel), "w") as fh:
                fh.write(text)
            try:
                code = subprocess.run(TIER1, cwd=copy, env=env, timeout=TIMEOUT,
                                      capture_output=True).returncode
            except subprocess.TimeoutExpired:
                code = None
            survivors += code == 0
            print(("SURVIVED " if code == 0 else "killed   ") + what, flush=True)
    print(f"{rel}: {survivors} of {len(picked)} mutants survive "
          f"({len(found)} sites, seed {seed})")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

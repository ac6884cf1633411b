"""Per-layer tracing, installed from outside the package.

Two instruments, used in separate passes so that neither distorts the
other's numbers:

- ``SpanTracer`` wraps the public functions of each minlen module.  Each
  call becomes a span (name, start, end, parent span, op id) kept in
  memory; a generator consumed row by row (``csv_rows``) is aggregated
  instead.  A span's self time is its duration minus the time of the
  spans and aggregated regions it encloses.
- ``CallProfile`` runs cProfile around each op, one profile per op kind.
  Call counts, and the exact kernel's self times, come from it, so that
  functions called millions of times need no wrapper.  Only
  ``Poly.exact_div`` gets one, to count how many attempts returned a
  quotient.

Every wrapper is installed by ``setattr`` on the minlen module or class
that holds the name and removed by ``uninstall``.  A name the package no
longer defines is skipped, and its metrics read 0.
"""

from __future__ import annotations

import cProfile
import fractions
import io
import itertools
import json
import os
import pstats
import sys
import time
from collections import defaultdict

perf = time.perf_counter


class Patcher:
    """setattr with undo, over every loaded minlen module holding a name."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def everywhere(self, module, name, make):
        """Replace `module.name` and every minlen module's alias of it."""
        orig = getattr(module, name, None)
        if orig is None:
            return
        new = make(orig)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("minlen")
                    and mod.__dict__.get(name) is orig):
                self.set(mod, name, new)

    def method(self, cls, name, make):
        if name in cls.__dict__:
            self.set(cls, name, make(cls.__dict__[name]))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class SpanTracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end)
        self.total = defaultdict(float)  # inclusive seconds per name
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [span id, enclosed seconds]
        self._ids = itertools.count()
        self.op = None
        self._patch = Patcher()

    # ---- recording -------------------------------------------------------
    def _close(self, name, start, sid, parent, enclosed):
        end = perf()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - enclosed
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((sid, parent, self.op, name, start, end))

    def call(self, name, fn, args=(), kwargs=None, on_result=None):
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self._stack.pop()
            self._close(name, start, sid, parent, frame[1])
        if on_result is not None:
            on_result(result, args)
        return result

    def span(self, name, on_result=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, on_result)

            return wrapper

        return make

    def timed_generator(self, name):
        """Aggregate the time spent producing a generator's items."""

        def make(genfn):
            def wrapper(*args, **kwargs):
                it = genfn(*args, **kwargs)
                while True:
                    start = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._aggregate(name, perf() - start)
                        return
                    self._aggregate(name, perf() - start)
                    yield item

            return wrapper

        return make

    def _aggregate(self, name, dur):
        self.total[name] += dur
        self.self_time[name] += dur
        if self._stack:
            self._stack[-1][1] += dur

    # ---- installation ----------------------------------------------------
    def install(self):
        import minlen.cli as cli
        from minlen import serialize, uncertainty
        from minlen.oscillator import spectrum, wavefunction as wfmod
        from minlen.symbolic import identities

        p = self._patch
        for name in ("verify_transformations", "verify_algebra",
                     "verify_poincare", "verify_reductions"):
            p.everywhere(identities, name,
                         self.span(f"identities.{name}", self._on_report))
        p.everywhere(spectrum, "spectrum_table", self.span("spectrum.table"))
        p.everywhere(wfmod, "wavefunction",
                     self.span("wavefunction.solve", self._on_grid))
        p.everywhere(wfmod, "eigh_tridiagonal", self.span("wavefunction.eigh"))
        p.everywhere(wfmod, "inner_product",
                     self.span("wavefunction.inner_product"))
        p.everywhere(wfmod, "eigensolve_factorized",
                     self.span("wavefunction.eigensolve"))
        p.method(wfmod.WavefunctionGrid, "values_at",
                 self.span("wavefunction.spline"))
        p.method(wfmod.WavefunctionGrid, "csv_rows",
                 self.timed_generator("wavefunction.csv_rows"))
        p.everywhere(uncertainty, "uncertainty_report",
                     self.span("uncertainty.report"))
        for name in ("write_json", "write_csv"):
            p.everywhere(serialize, name,
                         self.span(f"serialize.{name}", self._on_write))
        for name in ("wavefunction", "uncertainty", "spectrum", "limits"):
            p.everywhere(cli, f"cmd_{name}", self.span(f"cli.{name}"))
        p.everywhere(cli, "main", self.span("cli.main"))

    def uninstall(self):
        self._patch.uninstall()

    def _on_report(self, rep, args):
        self.counts["identities.checks"] += len(rep.checks)
        self.counts["identities.residual_terms"] += sum(
            c.residual_term_count for c in rep.checks)

    def _on_grid(self, wf, args):
        self.counts["wavefunction.grid_points"] += wf.q.size
        # computed from array sizes, not measured traffic
        self.counts["wavefunction.computed_bytes"] += sum(
            a.nbytes for a in (wf.q, wf.p, wf.psi1, wf.psi2, wf.f))

    def _on_write(self, result, args):
        self.counts["serialize.bytes_written"] += os.path.getsize(args[0])

    # ---- results ---------------------------------------------------------
    def metrics(self, passes: int) -> dict:
        """Per-pass layer metrics."""
        t = self.total
        c = self.counts
        out = {
            "identities.verify_transformations.s":
                t["identities.verify_transformations"],
            "identities.verify_algebra.s": t["identities.verify_algebra"],
            "identities.verify_poincare.s": t["identities.verify_poincare"],
            "identities.verify_reductions.s": t["identities.verify_reductions"],
            "identities.checks": c["identities.checks"],
            "identities.residual_terms": c["identities.residual_terms"],
            "spectrum.table.s": t["spectrum.table"],
            "wavefunction.solve.s": t["wavefunction.solve"],
            "wavefunction.eigh.s": t["wavefunction.eigh"],
            "wavefunction.grid_points": c["wavefunction.grid_points"],
            "wavefunction.inner_product.s": t["wavefunction.inner_product"],
            "wavefunction.spline.s": t["wavefunction.spline"],
            "wavefunction.eigensolve.s": t["wavefunction.eigensolve"],
            "wavefunction.computed_bytes": c["wavefunction.computed_bytes"],
            "uncertainty.report.s": t["uncertainty.report"],
            "serialize.write_json.s": t["serialize.write_json"],
            "serialize.write_csv.s": t["serialize.write_csv"],
            "serialize.bytes_written": c["serialize.bytes_written"],
            "wavefunction.csv_rows.s": t["wavefunction.csv_rows"],
            "cli.wavefunction.s": t["cli.wavefunction"],
            "cli.uncertainty.s": t["cli.uncertainty"],
            "cli.spectrum.s": t["cli.spectrum"],
            "cli.limits.s": t["cli.limits"],
            "cli.self_s": sum(v for k, v in self.self_time.items()
                              if k.startswith("cli.")),
        }
        return {k: v / passes for k, v in out.items()}

    def write_spans(self, path, provenance):
        with open(path, "w") as fh:
            fh.write(json.dumps({"provenance": provenance}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _code_key(fn):
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


class CallProfile:
    """cProfile per op kind, plus the exact_div hit counter."""

    TOP_N = 30

    def __init__(self):
        self.profiles = {}
        self.div_calls = 0
        self.div_hits = 0
        self._patch = Patcher()

    def install(self):
        from minlen.symbolic.poly import Poly

        def make(fn):
            def exact_div(*args, **kwargs):
                q = fn(*args, **kwargs)
                self.div_calls += 1
                self.div_hits += q is not None
                return q

            return exact_div

        self._patch.method(Poly, "exact_div", make)

    def uninstall(self):
        self._patch.uninstall()

    def run(self, kind, fn):
        prof = self.profiles.setdefault(kind, cProfile.Profile())
        prof.enable()
        try:
            return fn()
        finally:
            prof.disable()

    def _stats(self):
        stats = None
        for prof in self.profiles.values():
            if stats is None:
                stats = pstats.Stats(prof)
            else:
                stats.add(prof)
        return {} if stats is None else stats.stats

    def metrics(self) -> dict:
        from minlen import serialize, uncertainty
        from minlen.oscillator import spectrum, wavefunction
        from minlen.symbolic import operator, poly

        stats = self._stats()

        def row(fn):
            key = _code_key(fn)
            # (primitive calls, total calls, self time, cumulative time)
            return stats.get(key, (0, 0, 0.0, 0.0))[:4]

        Poly, Coef, Op = poly.Poly, poly.Coef, operator.Op
        mul = row(Poly.__dict__.get("__mul__"))
        add = row(Poly.__dict__.get("__add__"))
        div = row(Poly.__dict__.get("exact_div"))
        init = row(Coef.__dict__.get("__init__"))
        matmul = row(Op.__dict__.get("__matmul__"))
        frac_file = fractions.__file__
        frac_self = sum(v[2] for k, v in stats.items() if k[0] == frac_file)
        return {
            "poly.mul.calls": mul[1],
            "poly.mul.self_s": mul[2],
            "poly.add.calls": add[1],
            "fraction.new.calls": row(fractions.Fraction.__new__)[1],
            "fraction.self_s": frac_self,
            "coef.init.calls": init[1],
            "coef.init.cum_s": init[3],
            "poly.exact_div.calls": div[1],
            "poly.exact_div.self_s": div[2],
            "poly.exact_div.hit_ratio": (
                self.div_hits / self.div_calls if self.div_calls else 0.0),
            "op.matmul.calls": matmul[1],
            "op.matmul.self_s": matmul[2],
            "op.commutator.calls": row(getattr(operator, "commutator", None))[1],
            "op.truncate_eps.calls": row(Op.__dict__.get("truncate_eps"))[1],
            "spectrum.make_level.calls":
                row(getattr(spectrum, "make_level", None))[1],
            "wavefunction.fd_derivative.calls":
                row(getattr(wavefunction, "fd_derivative", None))[1],
            "uncertainty.state_moments.calls":
                row(getattr(uncertainty, "state_moments", None))[1],
            "serialize.fmt_float.calls":
                row(getattr(serialize, "fmt_float", None))[1],
        }

    def write_dumps(self, prefix, provenance):
        """One top-N cProfile listing per op kind; returns the paths."""
        paths = []
        for kind, prof in sorted(self.profiles.items()):
            buf = io.StringIO()
            buf.write(f"# {kind}: {json.dumps(provenance)}\n")
            stats = pstats.Stats(prof, stream=buf)
            stats.sort_stats("tottime").print_stats(self.TOP_N)
            path = f"{prefix}-{kind}.txt"
            with open(path, "w") as fh:
                fh.write(buf.getvalue())
            paths.append(path)
        return paths

"""Identity-verification suites: passing runs, mutation runs, reporting."""

import cProfile
import json
import os
import pstats
from fractions import Fraction
from itertools import combinations

import pytest

from minlen.core import Spacetime
from minlen.serialize import dumps_json
from minlen.symbolic import identities, operator
from minlen.symbolic.poly import Poly, Ring
from minlen.symbolic.identities import (
    SymbolicParams,
    TransformationSpec,
    VerificationReport,
    verify_algebra,
    verify_poincare,
    verify_reductions,
    verify_transformations,
)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_algebra_passes_fully_symbolic(D):
    rep = verify_algebra(Spacetime(D))
    assert rep.passed
    # every residual collapsed to literally zero terms
    assert all(c.residual_term_count == 0 for c in rep.checks)


def test_algebra_check_inventory():
    rep = verify_algebra(Spacetime(3))
    ids = {c.identity_id for c in rep.checks}
    # 10 xp pairs (mu <= nu), 6 xx pairs, 6 pp pairs
    assert sum(i.startswith("xp-") for i in ids) == 10
    assert sum(i.startswith("xx-") for i in ids) == 6
    assert sum(i.startswith("pp-") for i in ids) == 6


def test_algebra_with_numeric_parameters():
    params = SymbolicParams(
        beta=Fraction(1, 7), betap=Fraction(2, 5), gamma=Fraction(1, 3)
    )
    assert verify_algebra(Spacetime(2), params).passed


@pytest.mark.parametrize(
    "tamper,prefix",
    [
        ("xp-betap-doubled", "xp-"),
        ("xp-w-dropped", "xp-"),
        ("xx-s-term-dropped", "xx-"),
    ],
)
def test_algebra_mutations_fail(tamper, prefix):
    rep = verify_algebra(Spacetime(2), tamper=(tamper,))
    assert not rep.passed
    bad = [c for c in rep.checks if not c.passed]
    assert bad
    assert all(c.identity_id.startswith(prefix) for c in bad)
    assert all(c.residual_term_count > 0 for c in bad)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_poincare_passes(D):
    rep = verify_poincare(Spacetime(D))
    assert rep.passed
    assert all(c.residual_term_count == 0 for c in rep.checks)


def test_poincare_includes_generator_simplification():
    rep = verify_poincare(Spacetime(2))
    simp = [c for c in rep.checks if c.identity_id.startswith("lhat-simplify")]
    assert len(simp) == 3
    assert all(c.passed for c in simp)


def test_poincare_mutation_fails():
    rep = verify_poincare(Spacetime(2), tamper=("phat-no-u",))
    assert not rep.passed
    bad = {c.identity_id for c in rep.checks if not c.passed}
    # dropping the (1 - beta P.P)^-1 prefactor breaks [L, P_hat]
    assert any(i.startswith("lp-") for i in bad)


@pytest.mark.parametrize("D", [1, 2])
def test_transformations_pass(D):
    rep = verify_transformations(Spacetime(D))
    assert rep.passed
    assert all(c.residual_term_count == 0 for c in rep.checks)


def test_transformations_cover_all_elementary_parameters():
    rep = verify_transformations(Spacetime(2))
    kinds = {c.identity_id.split("-")[0] for c in rep.checks}
    assert kinds == {"lorentz", "translation"}


def test_transformations_custom_spec():
    arena = Spacetime(1)
    specs = [
        TransformationSpec.rotation(arena, 0, 1, value=Fraction(3, 2)),
        TransformationSpec.translation(arena, 0, value=Fraction(-2)),
    ]
    rep = verify_transformations(arena, specs=specs)
    assert rep.passed


def test_transformations_mutation_fails():
    rep = verify_transformations(Spacetime(1), tamper=("trans-gfun-wrong",))
    assert not rep.passed


def test_transformation_spec_validation():
    arena = Spacetime(1)
    with pytest.raises(ValueError):
        TransformationSpec("lorentz")
    with pytest.raises(ValueError):
        TransformationSpec("translation")
    with pytest.raises(ValueError):
        TransformationSpec("lorentz", domega=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        TransformationSpec("squeeze", domega=((0,),))
    # a float entry is refused at every entry point: Fraction(0.1) would
    # store 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="0.1"):
        TransformationSpec.rotation(arena, 0, 1, 0.1)
    with pytest.raises(TypeError, match="0.1"):
        TransformationSpec.translation(arena, 0, 0.1)
    with pytest.raises(TypeError, match="0.5"):
        TransformationSpec("lorentz", domega=((0, 0.5), (-0.5, 0)))
    with pytest.raises(TypeError, match="0.5"):
        TransformationSpec("translation", da=(Fraction(1), 0.5))
    # well-formed specs round-trip through the constructors
    TransformationSpec.rotation(arena, 0, 1)
    TransformationSpec.translation(arena, 1)
    TransformationSpec.rotation(arena, 0, 1, Fraction(1, 10))
    TransformationSpec("lorentz", domega=((0, 1), (-1, 0)))
    TransformationSpec("translation", da=(Fraction(1, 2), 0))


def test_transformation_spec_size_must_be_d_plus_one():
    short = TransformationSpec("translation", da=(1,))
    with pytest.raises(ValueError, match="needs size 4"):
        verify_transformations(Spacetime(3), specs=[short])
    # a D = 3 rotation in the (2,3) plane is not a D = 1 transformation
    rot = TransformationSpec.rotation(Spacetime(3), 2, 3)
    with pytest.raises(ValueError, match="needs size 2"):
        verify_transformations(Spacetime(1), specs=[rot])


@pytest.mark.parametrize(
    "suite,tamper",
    [
        (verify_algebra, "xp-betap-dubled"),
        (verify_algebra, "phat-no-u"),
        (verify_poincare, "phat-no-w"),
        (verify_poincare, "xp-w-dropped"),
        (verify_transformations, "trans-gfun-rong"),
        (verify_transformations, "xx-s-term-dropped"),
    ],
)
def test_unknown_tamper_is_rejected(suite, tamper):
    # a misspelt or foreign tamper must not run the untampered suite
    with pytest.raises(ValueError, match="unknown tamper"):
        suite(Spacetime(2), tamper=(tamper,))


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("beta", [None, Fraction(1, 7), 0])
def test_lorentz_generators_carry_no_power_of_w(D, beta):
    # L-hat is x_a p_b - x_b p_a exactly; kept as num * w^-1, every product
    # with it would drag the w^-1 along
    ring = Ring(Spacetime(D).metric, beta=beta)
    for a, b in combinations(range(ring.nmom), 2):
        L = operator.lorentz_generator(ring, a, b)
        assert L.terms
        assert all(c.wpow == 0 for c in L.terms.values())


def test_lorentz_generators_built_on_demand(monkeypatch):
    arena = Spacetime(3)

    def outcome(specs):
        """Generators built, and per spec index the (check, verdict,
        residual terms) with the spec tag left out of each check id."""
        built = []

        def counted(ring, a, b):
            built.append((a, b))
            return operator.lorentz_generator(ring, a, b)

        monkeypatch.setattr(identities, "lorentz_generator", counted)
        rep = verify_transformations(arena, specs=specs)
        monkeypatch.undo()
        checks = {}
        for c in rep.checks:
            _, si, rest = c.identity_id.split("-", 2)
            checks.setdefault(int(si), []).append(
                (rest, c.passed, c.residual_term_count)
            )
        return built, checks

    # the default specs, all rotations first, build what the eager build did
    built, default = outcome(None)
    pairs = list(combinations(range(4), 2))
    assert built == pairs
    built, checks = outcome([TransformationSpec.rotation(arena, 1, 2)])
    assert built == [(1, 2)]
    assert checks == {0: default[pairs.index((1, 2))]}
    built, checks = outcome([TransformationSpec.translation(arena, 0)])
    assert built == []
    assert checks == {0: default[len(pairs)]}


def test_transformations_poly_products_bounded():
    """Work-count guard: Poly products in one default D = 2 run, counted
    with cProfile.  The run makes 1,673 when zero derivatives are
    multiplied too, and 2,777 with the commutator's order-zero terms."""
    prof = cProfile.Profile()
    assert prof.runcall(verify_transformations, Spacetime(2)).passed
    code = Poly.__mul__.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    assert pstats.Stats(prof).stats[key][1] <= 1439


def test_wrong_position_operator_leaves_lhat_residual(monkeypatch):
    # A - w u then keeps w^-1 terms in L-hat; that is a failed check, not
    # an exception
    monkeypatch.setattr(
        operator, "deformed_position", operator.undeformed_position
    )
    rep = verify_poincare(Spacetime(1))
    check = {c.identity_id: c for c in rep.checks}["lhat-simplify-01"]
    assert not check.passed
    assert check.residual_term_count > 0


def test_reductions_pass():
    rep = verify_reductions(3)
    assert rep.passed
    ids = {c.identity_id for c in rep.checks}
    assert any(i.startswith("snyder-xx-") for i in ids)
    assert any(i.startswith("kempf-xp-") for i in ids)
    assert any(i.startswith("kempf-xx-") for i in ids)
    assert any(i.startswith("ccr-") for i in ids)


def test_report_serialization_shape():
    rep = verify_algebra(Spacetime(1))
    d = rep.to_dict()
    assert d["suite"] == "algebra"
    assert d["passed"] is True
    assert isinstance(d["checks"], list) and d["checks"]
    first = d["checks"][0]
    assert set(first) == {
        "identity_id",
        "latex_tag",
        "pass",
        "residual_term_count",
    }
    text = dumps_json(d)
    assert text.startswith("{") and text.endswith("}\n")
    # byte-stable across repeated runs
    assert text == dumps_json(verify_algebra(Spacetime(1)).to_dict())


RESIDUAL_REPRS = os.path.join(os.path.dirname(__file__), "residual_reprs.json")


def rational_residual_reprs():
    """repr of every nonzero residual of runs whose residuals have rational
    coefficients: trans-gfun-wrong with translations by 3/7 at D = 1, 2 and
    the tampered suites over a ring with beta pinned to 1/7, keyed by run
    and identity.  Record with json.dumps(..., indent=1) + newline."""
    pinned = SymbolicParams(beta=Fraction(1, 7))
    runs = {
        f"trans-gfun-wrong-D{D}": lambda D=D: verify_transformations(
            Spacetime(D),
            specs=[
                TransformationSpec.translation(Spacetime(D), a, Fraction(3, 7))
                for a in range(D + 1)
            ],
            tamper=("trans-gfun-wrong",),
        )
        for D in (1, 2)
    }
    for tamper in ("xp-betap-doubled", "xp-w-dropped", "xx-s-term-dropped"):
        runs[f"algebra-beta1/7-{tamper}"] = lambda t=tamper: verify_algebra(
            Spacetime(1), pinned, tamper=(t,)
        )
    runs["poincare-beta1/7-phat-no-u"] = lambda: verify_poincare(
        Spacetime(1), pinned, tamper=("phat-no-u",)
    )
    out = {}
    record = VerificationReport.record
    try:
        for name, run in runs.items():
            seen = out[name] = {}

            def spy(self, identity_id, latex_tag, residual, seen=seen):
                if not residual.is_zero:
                    seen[identity_id] = repr(residual)
                return record(self, identity_id, latex_tag, residual)

            VerificationReport.record = spy
            run()
    finally:
        VerificationReport.record = record
    return out


def test_rational_residual_reprs_are_pinned():
    # a residual prints its exact rational coefficients, its term order and
    # its power of w; the file pins that text, so a change of storage that
    # alters it shows here
    with open(RESIDUAL_REPRS) as fh:
        expected = fh.read()
    got = json.dumps(rational_residual_reprs(), indent=1) + "\n"
    assert got == expected

"""Fuchsian system container and assumption checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from fuchslin import engine
from fuchslin.document import SystemDocument
from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix, ShapeError
from fuchslin.model import (
    AssumptionError,
    FuchsianSystem,
    LinearAssumptionReport,
    LinearViolation,
    NonlinearAssumptionReport,
    NonlinearSystem,
    NonlinearViolation,
    check_linear_assumption,
    check_nonlinear_assumption,
    singular_shifts,
)
from fuchslin.pnspace import multiindices
from fuchslin.poly import VecPoly, sp_eval, sp_mul


def scalar_system(b0, b1, exact=True):
    if exact:
        poles = (ExactComplex(-1), ExactComplex(1))
        mats = (
            CMatrix.from_rows([[ExactComplex.parse(b0)]], True),
            CMatrix.from_rows([[ExactComplex.parse(b1)]], True),
        )
    else:
        poles = (-1.0 + 0j, 1.0 + 0j)
        mats = (
            CMatrix.from_rows([[complex(b0)]], False),
            CMatrix.from_rows([[complex(b1)]], False),
        )
    return FuchsianSystem(poles, mats)


def test_validation_errors():
    with pytest.raises(ValueError):
        FuchsianSystem((ExactComplex(0),),
                       (CMatrix.identity(1, True),))
    with pytest.raises(ValueError):
        # duplicate poles
        FuchsianSystem(
            (ExactComplex(1), ExactComplex(1)),
            (CMatrix.identity(1, True), CMatrix.identity(1, True)),
        )
    with pytest.raises(ShapeError):
        FuchsianSystem(
            (ExactComplex(-1), ExactComplex(1)),
            (CMatrix.identity(1, True), CMatrix.identity(2, True)),
        )
    with pytest.raises(ShapeError):
        # mixed rings
        FuchsianSystem(
            (ExactComplex(-1), ExactComplex(1)),
            (CMatrix.identity(1, True), CMatrix.identity(1, False)),
        )


def test_exact_poles_compare_exactly():
    one = CMatrix.identity(1, True)
    tiny = ExactComplex(Fraction(1, 10**13))
    huge = ExactComplex(10**400)
    for pair in ((ExactComplex(0), tiny), (-huge, huge)):
        sys_ = FuchsianSystem(pair, (one, one))
        assert sys_.poles == pair
    for p in (tiny, huge):
        with pytest.raises(ValueError):
            FuchsianSystem((p, ExactComplex(p.re)), (one, one))
    # float mode keeps its gap check
    onef = CMatrix.identity(1, False)
    with pytest.raises(ValueError):
        FuchsianSystem((0j, 1e-13 + 0j), (onef, onef))


def test_q_and_cofactor_identities():
    rng = random.Random(5)
    for _ in range(10):
        s = rng.randint(0, 2)
        poles = []
        while len(poles) < s + 2:
            c = ExactComplex(Fraction(rng.randint(-8, 8), 2))
            if all(c != p for p in poles):
                poles.append(c)
        mats = [
            CMatrix.from_rows([[ExactComplex(rng.randint(1, 3))]], True)
            for _ in range(s + 2)
        ]
        sys_ = FuchsianSystem(poles, mats)
        q = sys_.q_poly()
        assert len(q) - 1 == s + 2
        for j, p in enumerate(poles):
            assert sp_eval(q, p) == ExactComplex(0)
            # cofactor_j * (x - p_j) == Q
            lin = (ExactComplex(0) - p, ExactComplex(1))
            assert sp_mul(sys_.cofactor(j), lin, True) == q
        # Q' matches the derivative of Q
        qp = sys_.q_prime()
        assert len(qp) - 1 == s + 1
        # qb = sum_j cofactor_j * B_j; scalar case: evaluate anywhere
        x = ExactComplex(Fraction(7, 3))
        direct = sum(
            (sp_eval(sys_.cofactor(j), x) * mats[j].entry(0, 0)
             for j in range(s + 2)),
            start=ExactComplex(0),
        )
        assert sys_.qb_poly().mul_vec(
            VecPoly.constant((ExactComplex(1),), True)
        ).eval(x)[0] == direct


def test_b_infinity_and_shift():
    sys_ = scalar_system("1/4", "3/4")
    assert sys_.b_infinity().entry(0, 0) == ExactComplex(1)
    up = sys_.shift(1)
    assert up.residues[0].entry(0, 0) == ExactComplex(Fraction(5, 4))
    down = up.shift(-1)
    assert down.residues[0].entry(0, 0) == sys_.residues[0].entry(0, 0)
    assert down.poles == sys_.poles


def test_linear_assumption_flags_half_integers():
    bad = scalar_system("-1/2", "-1/2")
    report = check_linear_assumption(bad)
    assert not report.passed
    v = report.violations[0]
    # k + b_inf = 1 - 1 = 0 at infinity
    assert v.residue == "inf" and v.k == 1
    good = scalar_system(1, 1)
    assert check_linear_assumption(good).passed
    assert check_linear_assumption(good).min_margin > 0.5


def test_linear_assumption_k_radius_covers_spectrum():
    # eigenvalue -7/2 needs the sweep to reach k = 4 to see the near-miss
    sys_ = scalar_system("-7/2", 1)
    report = check_linear_assumption(sys_)
    assert report.k_checked >= 4
    assert report.passed  # half-integers never hit integers


def test_nonlinear_resonance_detected():
    # eigenvalues 1 and 2: m=(0,2), i=1: 2*2 - ... pick the classic 2:1
    lin = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows([[1, 0], [0, 2]], True),
            CMatrix.from_rows([[0, 0], [0, 0]], True),
        ),
    )
    f = {(2, 0): VecPoly.from_coeffs([(ExactComplex(1), ExactComplex(0))],
                                     True)}
    nsys = NonlinearSystem(lin, f)
    report = check_nonlinear_assumption(nsys, 3)
    assert not report.passed
    combos = {(v.monomial, v.component, v.k) for v in report.violations}
    # lambda = (1,2): m=(2,0), i=1: 2*1 - 2 = 0 at k=0
    assert ((2, 0), 1, 0) in combos


def test_nonlinear_nonresonant_passes():
    lin = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows([[1, 0], [0, ExactComplex(Fraction(3, 2))]],
                              True),
            CMatrix.from_rows([[ExactComplex(Fraction(5, 4)), 0], [0, 2]],
                              True),
        ),
    )
    f = {(2, 0): VecPoly.from_coeffs([(ExactComplex(1), ExactComplex(0))],
                                     True)}
    report = check_nonlinear_assumption(NonlinearSystem(lin, f), 6)
    assert report.passed
    assert report.min_margin > 0.0


def test_nonlinear_system_validation():
    lin = scalar_system(1, 1)
    with pytest.raises(ValueError):
        NonlinearSystem(lin, {(1,): VecPoly.constant((ExactComplex(1),),
                                                     True)})
    with pytest.raises(ShapeError):
        NonlinearSystem(lin, {(2, 0): VecPoly.constant((ExactComplex(1),),
                                                       True)})
    # zero coefficients are dropped
    nsys = NonlinearSystem(lin, {(2,): VecPoly.zero(1, True)})
    assert nsys.order_max() == 0


def test_nonlinear_system_keeps_f_as_store_rows():
    # f is a SeriesTable of the nonzero terms' store rows; ``nonlinearity``
    # reads them back as a read-only mapping of VecPolys, and a document's
    # system takes the document's table as it is
    lin = scalar_system(1, 1)
    p = VecPoly.from_coeffs([(ExactComplex(Fraction(1, 2), 3),),
                             (ExactComplex(0),), (ExactComplex(-2),)], True)
    nsys = NonlinearSystem(lin, {(2,): p, (3,): VecPoly.zero(1, True)})
    assert nsys.f.rows == {(2,): ((2, (1, 0, -4), (6, 0, 0)),)}
    assert list(nsys.nonlinearity) == [(2,)]
    assert (nsys.nonlinearity[(2,)] - p).is_zero()
    assert nsys.order_max() == 2
    with pytest.raises(TypeError):
        nsys.nonlinearity[(3,)] = p
    doc = SystemDocument.from_dict({
        "dimension": 1, "S": 0, "poles": [[-1, 0], [1, 0]],
        "matrices": [[[[1, 0]]], [[[1, 0]]]],
        "nonlinearity": [{"multiindex": [2], "coeff": [[["1/2", 3]], [[0, 0]],
                                                       [[-2, 0]]]},
                         {"multiindex": [3], "coeff": [[[0, 0]]]}]},
        exact=True)
    assert doc.to_nonlinear().f is doc.f
    assert doc.f.rows == nsys.f.rows and doc.monomials == ((2,), (3,))
    assert (doc.nonlinearity[(2,)] - p).is_zero()
    assert doc.nonlinearity[(3,)].is_zero()


def test_spectra_are_cached_floats():
    sys_ = scalar_system("1/3", "2/3")
    first = sys_.residue_spectrum(0)
    assert first is sys_.residue_spectrum(0)
    assert abs(first[0] - 1.0 / 3.0) < 1e-15
    inf = sys_.residue_spectrum("inf")
    assert abs(inf[0] - 1.0) < 1e-15


# ----------------------------------------------------------------------
# the float checks against a brute-force k sweep
# ----------------------------------------------------------------------


def sweep_linear(system, tol=1e-9):
    """Reference: every k from 0 to ceil(max |eigenvalue|) + 1."""
    violations = []
    min_margin = math.inf
    k_checked = 0
    for label, spectrum in system.all_spectra():
        radius = max((abs(ev) for ev in spectrum), default=0.0)
        bound = int(math.ceil(radius)) + 1
        k_checked = max(k_checked, bound)
        for ev in spectrum:
            for k in range(bound + 1):
                margin = abs(ev + k)
                min_margin = min(min_margin, margin)
                if margin <= tol:
                    violations.append(LinearViolation(label, k, ev, margin))
    return LinearAssumptionReport(
        passed=not violations,
        k_checked=k_checked,
        min_margin=float(min_margin),
        violations=violations,
    )


def sweep_nonlinear(nonlinear, order_max, tol=1e-9):
    """Reference: every k from 0 to ceil((|m|+1) max |lambda|) + 1."""
    system = nonlinear.linear
    d = system.size
    violations = []
    min_margin = math.inf
    for label, spectrum in system.all_spectra():
        radius = max((abs(ev) for ev in spectrum), default=0.0)
        for order in range(2, order_max + 1):
            bound = int(math.ceil((order + 1) * radius)) + 1
            for m in multiindices(d, order):
                shift = sum(mi * ev for mi, ev in zip(m, spectrum))
                for i, ev_i in enumerate(spectrum):
                    base = shift - ev_i
                    for k in range(bound + 1):
                        margin = abs(base + k)
                        min_margin = min(min_margin, margin)
                        if margin <= tol:
                            violations.append(
                                NonlinearViolation(
                                    label, m, i, k, base + k, margin
                                )
                            )
    return NonlinearAssumptionReport(
        passed=not violations,
        order_max=order_max,
        min_margin=float(min_margin),
        violations=violations,
    )


def random_spectrum_value(rng):
    kind = rng.randrange(4)
    n = rng.randint(0, 4)
    if kind == 0:
        return complex(-n)
    if kind == 1:
        return complex(rng.choice((-1, 1)) * (n + 0.5))
    if kind == 2:
        return complex(-n + rng.choice((-1e-10, 1e-10)))
    return complex(rng.randint(-8, 8) / 4,
                   rng.choice((-1, 1)) * rng.randint(1, 6) / 4)


def random_float_system(rng, d, s):
    """Upper triangular residues with the diagonals drawn above, plus one
    dense residue now and then, so B_inf and the spectra vary."""
    poles = [complex(p) for p in rng.sample(range(-6, 7), s + 2)]
    residues = []
    for _ in range(s + 2):
        rows = [[0j] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = random_spectrum_value(rng)
            for j in range(i + 1, d):
                rows[i][j] = complex(rng.randint(-3, 3), rng.randint(-1, 1))
        if rng.random() < 0.2:
            rows = [[v + complex(rng.randint(-2, 2)) for v in row]
                    for row in rows]
        residues.append(CMatrix.from_rows(rows, False))
    return FuchsianSystem(poles, residues)


def test_float_checks_match_brute_force_sweep():
    """The nearest-shift rule reports exactly what sweeping every k did:
    passed, k_checked, bit-equal margins and the violations in order."""
    rng = random.Random(1109)
    seen_violation = seen_clean = 0
    for trial in range(200):
        d = rng.randint(1, 3)
        system = random_float_system(rng, d, rng.randint(0, 2))
        order = rng.randint(2, 6 if d < 3 else 4)
        tol = rng.choice((1e-9, 1e-11))
        pairs = (
            (check_linear_assumption(system, tol), sweep_linear(system, tol)),
            (check_nonlinear_assumption(NonlinearSystem(system, {}), order,
                                        tol),
             sweep_nonlinear(NonlinearSystem(system, {}), order, tol)),
        )
        for got, ref in pairs:
            assert got.passed == ref.passed, trial
            assert got.min_margin.hex() == ref.min_margin.hex(), trial
            assert got.violations == ref.violations, trial
            assert [v.margin.hex() for v in got.violations] == \
                [v.margin.hex() for v in ref.violations], trial
            seen_violation += not ref.passed
            seen_clean += ref.passed
        assert pairs[0][0].k_checked == pairs[0][1].k_checked
        assert pairs[1][0].order_max == pairs[1][1].order_max
    # the draw exercises both outcomes
    assert seen_violation > 10 and seen_clean > 10


def _loop_nonlinear_check(nonlinear, order_max, tol=1e-9):
    """Reference: the per-slot loop the array check replaced, one Python
    sum and one ``singular_shifts`` list per (label, order)."""
    system = nonlinear.linear
    d = system.size
    violations = []
    min_margin = math.inf
    for label, spectrum in system.all_spectra():
        mat = system.residue_matrix(label)
        for order in range(2, order_max + 1):
            slots, values = [], []
            for m in multiindices(d, order):
                shift = sum(mi * ev for mi, ev in zip(m, spectrum))
                for i, ev_i in enumerate(spectrum):
                    slots.append((m, i))
                    values.append(shift - ev_i)
            tests = singular_shifts(mat, values, tol, order)
            for (m, i), base, (k, margin, singular) in zip(slots, values,
                                                         tests):
                min_margin = min(min_margin, margin)
                if singular:
                    violations.append(
                        NonlinearViolation(label, m, i, k, base + k, margin))
    return NonlinearAssumptionReport(
        passed=not violations,
        order_max=order_max,
        min_margin=float(min_margin),
        violations=violations,
    )


def random_exact_system(rng, d, s):
    """``random_float_system``'s shape over Gaussian rationals: upper
    triangular residues whose diagonals are often (half-)integers, plus a
    dense one now and then."""
    poles = [ExactComplex(p) for p in rng.sample(range(-6, 7), s + 2)]
    residues = []
    for _ in range(s + 2):
        rows = [[ExactComplex(0)] * d for _ in range(d)]
        for i in range(d):
            kind = rng.randrange(4)
            rows[i][i] = (ExactComplex(-rng.randint(0, 4)) if kind == 0 else
                          ExactComplex(Fraction(rng.randint(-9, 9), 2))
                          if kind == 1 else
                          ExactComplex(Fraction(rng.randint(-8, 8), 7),
                                       Fraction(rng.randint(1, 6), 5)))
            for j in range(i + 1, d):
                rows[i][j] = ExactComplex(rng.randint(-3, 3),
                                          rng.randint(-1, 1))
        if rng.random() < 0.2:
            rows = [[v + ExactComplex(rng.randint(-2, 2)) for v in row]
                    for row in rows]
        residues.append(CMatrix.from_rows(rows, True))
    return FuchsianSystem(poles, residues)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_nonlinear_check_matches_the_per_slot_loop(exact, monkeypatch):
    """The array check reports exactly what the per-slot loop did: the
    same violations (values and margins bit for bit), min_margin bits and
    AssumptionError text."""
    rng = random.Random(f"nonlinear-array-{exact}")
    outcomes = set()
    for trial in range(24):
        d = rng.randint(1, 3)
        s = rng.randint(0, 2)
        system = (random_exact_system if exact else random_float_system)(
            rng, d, s)
        nonlinear = NonlinearSystem(system, {})
        order = rng.randint(2, 6 if d < 3 else 4)
        tol = rng.choice((1e-9, 1e-11))
        got = check_nonlinear_assumption(nonlinear, order, tol)
        want = _loop_nonlinear_check(nonlinear, order, tol)
        assert got.passed == want.passed, trial
        assert got.min_margin.hex() == want.min_margin.hex(), trial
        assert got.violations == want.violations, trial
        assert [(v.value.real.hex(), v.value.imag.hex(), v.margin.hex(),
                 type(v.k)) for v in got.violations] == \
            [(v.value.real.hex(), v.value.imag.hex(), v.margin.hex(),
              type(v.k)) for v in want.violations], trial
        outcomes.add(got.passed)
        if not got.passed:
            messages = []
            for check in (check_nonlinear_assumption,
                          _loop_nonlinear_check):
                monkeypatch.setattr(engine, "check_nonlinear_assumption",
                                    check)
                with pytest.raises(AssumptionError) as err:
                    engine.linearize(nonlinear, order, resonance_tol=tol)
                messages.append(str(err.value))
            monkeypatch.undo()
            assert messages[0] == messages[1], trial
    assert outcomes == {False, True}

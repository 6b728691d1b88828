"""Fuchsian system container and assumption checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchslin import engine
from fuchslin.document import SystemDocument
from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix, ShapeError, mat_eigenvalues
from fuchslin.model import (
    AssumptionError,
    FuchsianSystem,
    LinearAssumptionReport,
    LinearViolation,
    NonlinearAssumptionReport,
    NonlinearSystem,
    NonlinearViolation,
    _exact_scale,
    _singular_near,
    check_linear_assumption,
    check_nonlinear_assumption,
    singular_shifts,
)
from fuchslin.pnspace import _scalars, multiindices
from fuchslin.poly import (MatPoly, VecPoly, sp_diff, sp_eval, sp_from_roots,
                           sp_mul)


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


def test_poles_in_another_ring_than_the_residues_are_refused():
    # exact residues take exact poles, float residues float ones; ints and
    # Fractions are exact, and exact mode keeps them as ExactComplex
    one, onef = CMatrix.identity(1, True), CMatrix.identity(1, False)
    for poles, mat in (((0.5 + 0j, 1 + 0j), one),
                       ((ExactComplex(0), 1.0), one),
                       ((ExactComplex(-1), ExactComplex(1)), onef),
                       ((ExactComplex(-1), 1 + 0j), onef)):
        with pytest.raises(ShapeError, match="different rings"):
            FuchsianSystem(poles, (mat, mat))
    system = FuchsianSystem((-1, Fraction(1, 2)), (one, one))
    assert system.poles == (ExactComplex(-1), ExactComplex(Fraction(1, 2)))
    assert all(isinstance(p, ExactComplex) for p in system.poles)
    assert system.q_poly() == (ExactComplex(Fraction(-1, 2)),
                               ExactComplex(Fraction(1, 2)), ExactComplex(1))
    assert FuchsianSystem((-1, 1), (onef, onef)).q_poly() == (-1, 0, 1)


def _reference_setup(system):
    """Q, Q', the cofactors, QB, B_inf, the Lagrange basis and the residue
    spectra of an exact system as the linear part's set-up built them in
    ExactComplex arithmetic, before it ran on integer rows: products of
    the linear factors, B_inf the sum of the residues, QB's x^i coefficient
    sum_j cofactor_j[i] B_j with B_inf on top, the Lagrange basis the
    cofactor over its value at its pole, and the spectra those of the
    matrices converted to complex."""
    poles, residues, d, s = (system.poles, system.residues, system.size,
                             system.s)
    q = sp_from_roots(poles, True)
    cofactors = [sp_from_roots(poles[:j] + poles[j + 1:], True)
                 for j in range(s + 2)]
    b_inf = residues[0]
    for m in residues[1:]:
        b_inf = b_inf + m
    mats = []
    for i in range(s + 1):
        acc = CMatrix.zeros(d, d, True)
        for cof, res in zip(cofactors, residues):
            if cof[i]:
                acc = acc + res.scale(cof[i])
        mats.append(acc)
    qb = MatPoly.from_coeffs(mats + [b_inf], True, (d, d))
    lagrange = []
    for j, cof in enumerate(cofactors):
        inv = ExactComplex(1) / sp_eval(cof, poles[j])
        lagrange.append(tuple(inv * c for c in cof))
    return {
        "q": q, "q_prime": sp_diff(q), "cofactors": cofactors, "qb": qb,
        "coeffs": [m.entries() for m in mats + [b_inf]], "b_inf": b_inf,
        "lagrange": lagrange,
        "spectra": [mat_eigenvalues(m) for m in residues + (b_inf,)],
    }


def _bits(values):
    return np.asarray(values, complex).view(np.int64).tolist()


# Parts zero, real or imaginary on purpose; poles may be +-10^400
_part = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-9, max_value=9, max_denominator=7))
_entry = st.one_of(st.just(ExactComplex(0)), st.builds(ExactComplex, _part),
                   st.builds(ExactComplex, st.just(0), _part),
                   st.builds(ExactComplex, _part, _part))
_pole = st.one_of(
    st.builds(ExactComplex, _part, _part),
    st.builds(ExactComplex, st.sampled_from([10 ** 400, -10 ** 400]), _part),
    st.builds(ExactComplex, _part, st.sampled_from([10 ** 400, -10 ** 400])),
    st.integers(-5, 5), _part)


@st.composite
def _exact_systems(draw):
    d, s = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    poles = draw(st.lists(_pole, min_size=s + 2, max_size=s + 2,
                          unique_by=ExactComplex.parse))
    zero = CMatrix.zeros(d, d, True)
    residues = [draw(st.one_of(st.just(zero), st.builds(
        lambda rows: CMatrix(tuple(map(tuple, rows)), True),
        st.lists(st.lists(_entry, min_size=d, max_size=d), min_size=d,
                 max_size=d)))) for _ in range(s + 2)]
    return FuchsianSystem(poles, residues)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(system=_exact_systems())
def test_integer_setup_matches_the_exact_complex_construction(system):
    want = _reference_setup(system)
    assert system.q_poly() == want["q"]
    assert system.q_prime() == want["q_prime"]
    assert _scalars(system.q_coefficients()) == want["q"]
    assert system.qb_coefficients() == want["coeffs"]
    assert system.b_infinity() == want["b_inf"]
    assert system.qb_poly().coeffs == want["qb"].coeffs
    for j in range(system.n_poles):
        assert system.cofactor(j) == want["cofactors"][j]
        assert system.lagrange_basis(j) == want["lagrange"][j]
    labels = [*range(system.n_poles), "inf"]
    assert [_bits(system.residue_spectrum(j)) for j in labels] == \
        [_bits(spectrum) for spectrum in want["spectra"]]


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


def _loop_singular_shifts(mat, values, tol, degree=0):
    """Reference: the shift rule one value at a time, as a list of
    (k, margin, singular) with k an int; ``singular_shifts`` gives the
    same on arrays, the margins bit for bit."""
    proposals = [(k, abs(z + k))
                 for z in values for k in (max(0, round(-z.real)),)]
    scale = _exact_scale(mat)
    if scale is None:
        return [(k, margin, margin <= tol) for k, margin in proposals]
    window = scale * (degree + 1)
    near = _singular_near(mat, {k for k, margin in proposals
                                if margin <= window}, degree)
    return [(k, 0.0, True) if margin <= window and k in near
            else (k, margin, False) for k, margin in proposals]


def _loop_linear_check(system, tol=1e-9):
    """Reference: ``check_linear_assumption`` with the per-value rule."""
    violations = []
    min_margin = math.inf
    k_checked = 0
    for label, spectrum in system.all_spectra():
        radius = max((abs(ev) for ev in spectrum), default=0.0)
        k_checked = max(k_checked, int(math.ceil(radius)) + 1)
        tests = _loop_singular_shifts(system.residue_matrix(label),
                                      spectrum, tol)
        for ev, (k, margin, singular) in zip(spectrum, tests):
            min_margin = min(min_margin, margin)
            if singular:
                violations.append(LinearViolation(label, k, ev, margin))
    return LinearAssumptionReport(
        passed=not violations,
        k_checked=k_checked,
        min_margin=float(min_margin),
        violations=violations,
    )


def _loop_nonlinear_check(nonlinear, order_max, tol=1e-9):
    """Reference: the per-slot loop the array check replaced, one Python
    sum and one ``_loop_singular_shifts`` list per (label, order)."""
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
            tests = _loop_singular_shifts(mat, values, tol, order)
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


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_linear_check_matches_the_per_value_loop(exact):
    """``check_linear_assumption`` on the array rule reports exactly what
    the per-value rule did: violations with k an int, margins and
    min_margin bit for bit, and k_checked."""
    rng = random.Random(f"linear-array-{exact}")
    outcomes = set()
    for trial in range(60):
        system = (random_exact_system if exact else random_float_system)(
            rng, rng.randint(1, 3), rng.randint(0, 2))
        tol = rng.choice((1e-9, 1e-11))
        got = check_linear_assumption(system, tol)
        want = _loop_linear_check(system, tol)
        assert got == want, trial
        assert got.min_margin.hex() == want.min_margin.hex(), trial
        assert [(type(v.k), v.margin.hex()) for v in got.violations] == \
            [(int, v.margin.hex()) for v in want.violations], trial
        outcomes.add(got.passed)
    assert outcomes == {False, True}


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_singular_shifts_matches_the_per_value_loop(exact):
    """Per residue, on its spectrum (degree 0) and on the slot values of
    the degree-2 and -3 blocks in one call (one degree per value), the
    arrays hold the per-value rule's k, margins (bit for bit) and flags."""
    rng = random.Random(f"shift-arrays-{exact}")
    singular_seen = 0
    for trial in range(24):
        system = (random_exact_system if exact else random_float_system)(
            rng, rng.randint(1, 3), rng.randint(0, 2))
        for label, spectrum in system.all_spectra():
            mat = system.residue_matrix(label)
            blocks = [(list(spectrum), 0)] + [
                ([sum(mi * ev for mi, ev in zip(m, spectrum)) - ev_i
                  for m in multiindices(system.size, n)
                  for ev_i in spectrum], n) for n in (2, 3)]
            for pieces, degrees in (
                    (blocks[:1], 0),
                    (blocks[1:], [n for values, n in blocks[1:]
                                  for _ in values])):
                k, margin, singular = singular_shifts(
                    mat, [v for values, _ in pieces for v in values], 1e-9,
                    degrees)
                want = [t for values, n in pieces
                        for t in _loop_singular_shifts(mat, values, 1e-9, n)]
                assert [int(v) for v in k.tolist()] == [t[0] for t in want]
                assert [v.hex() for v in margin.tolist()] == \
                    [float(t[1]).hex() for t in want], trial
                assert singular.tolist() == [t[2] for t in want], trial
                singular_seen += sum(t[2] for t in want)
    assert singular_seen


def test_exact_shift_is_decided_per_degree():
    """A shift k found singular on one block decides nothing on another:
    with lambda = (-1, 10^-4) the value -1 is exact at degree 2, slot
    ((2, 0), 0), while at degree 3 slot ((2, 1), 0) only comes within
    10^-4 of it, so k = 1 is a violation there and not here."""
    diag = CMatrix.from_rows([[ExactComplex(-1), ExactComplex(0)],
                              [ExactComplex(0),
                               ExactComplex(Fraction(1, 10**4))]], True)
    system = FuchsianSystem((ExactComplex(-1), ExactComplex(1)),
                            (diag, CMatrix.zeros(2, 2, True)))
    nonlinear = NonlinearSystem(system, {})
    got = check_nonlinear_assumption(nonlinear, 3)
    assert got == _loop_nonlinear_check(nonlinear, 3)
    slots = {(v.monomial, v.component, v.k) for v in got.violations}
    assert ((2, 0), 0, 1) in slots and ((2, 1), 0, 1) not in slots

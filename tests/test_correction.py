"""Polynomial correction solver, local series, and the shift ladder."""

from __future__ import annotations

import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fuchslin.analytic import float_system, float_vecpoly
from fuchslin.correction import (
    local_taylor,
    pull_back_correction,
    shift_up,
    solution_uniqueness_check,
    solve_polynomial,
)
from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix, SingularMatrixError, solve_array
from fuchslin.model import AssumptionError, FuchsianSystem, singular_shifts
from fuchslin.pnspace import induced_system
from fuchslin.poly import VecPoly
from fuchslin.rodrigues import RodriguesFamily, shifted_system


def scalar_system(b0, b1):
    return FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows([[ExactComplex.parse(b0)]], True),
            CMatrix.from_rows([[ExactComplex.parse(b1)]], True),
        ),
    )


def random_positive_system(rng, d_max=2, s_max=2):
    """Exact system with triangular residues and spectra in [1/2, 3]."""
    d = rng.randint(1, d_max)
    s = rng.randint(0, s_max)
    poles = []
    while len(poles) < s + 2:
        c = ExactComplex(Fraction(rng.randint(-6, 6), rng.choice([1, 2])))
        if all(c != p for p in poles):
            poles.append(c)
    mats = []
    for _ in range(s + 2):
        rows = [[ExactComplex(0)] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = ExactComplex(
                Fraction(rng.randint(1, 6), 2)
            )
            for j in range(i + 1, d):
                rows[i][j] = ExactComplex(Fraction(rng.randint(-2, 2), 3))
        mats.append(CMatrix.from_rows(rows, True))
    return FuchsianSystem(tuple(poles), tuple(mats))


def random_vecpoly(rng, d, degree):
    coeffs = [
        tuple(
            ExactComplex(Fraction(rng.randint(-5, 5), rng.choice([1, 2])))
            for _ in range(d)
        )
        for _ in range(degree + 1)
    ]
    # make sure the stated degree is attained
    top = list(coeffs[-1])
    if all(not v for v in top):
        top[0] = ExactComplex(1)
        coeffs[-1] = tuple(top)
    return VecPoly.from_coeffs(coeffs, exact=True, dim=d)


def cleared_residual(system, g, phi, y):
    """Q y' + (QB) y - (g - phi), identically zero for a true solution."""
    q = system.q_poly()
    lhs = y.derivative().mul_sp(q) + system.qb_poly().mul_vec(y)
    return lhs - (g - phi)


# ----------------------------------------------------------------------
# solve_polynomial
# ----------------------------------------------------------------------


def test_low_degree_is_its_own_correction():
    rng = random.Random(7)
    for _ in range(8):
        system = random_positive_system(rng)
        for deg in range(system.s + 1):
            g = random_vecpoly(rng, system.size, deg)
            result = solve_polynomial(system, g)
            assert (result.phi - g).is_zero()
            assert result.y.is_zero()


def test_scalar_quadratic_frozen_values():
    system = scalar_system(1, 1)
    g = VecPoly.from_coeffs(
        [(ExactComplex(0),), (ExactComplex(0),), (ExactComplex(1),)],
        exact=True,
    )
    result = solve_polynomial(system, g)
    third = ExactComplex(Fraction(1, 3))
    assert result.phi.degree == 0
    assert result.phi.coefficient(0)[0] == third
    assert result.y.degree == 1
    assert result.y.coefficient(0)[0] == ExactComplex(0)
    assert result.y.coefficient(1)[0] == third
    assert cleared_residual(system, g, result.phi, result.y).is_zero()


def test_degree_law_and_exact_residual():
    rng = random.Random(11)
    for _ in range(10):
        system = random_positive_system(rng)
        deg = rng.randint(system.s + 1, 8)
        g = random_vecpoly(rng, system.size, deg)
        result = solve_polynomial(system, g)
        assert result.phi.degree <= system.s
        assert result.y.degree == deg - system.s - 1
        assert cleared_residual(system, g, result.phi, result.y).is_zero()


def test_float_route_matches_exact():
    rng = random.Random(13)
    for _ in range(6):
        system = random_positive_system(rng)
        deg = rng.randint(system.s + 1, 6)
        g = random_vecpoly(rng, system.size, deg)
        exact_result = solve_polynomial(system, g)
        float_result = solve_polynomial(float_system(system), float_vecpoly(g))
        resid = cleared_residual(
            float_system(system), float_vecpoly(g),
            float_result.phi, float_result.y,
        )
        scale = max(1.0, float_vecpoly(g).max_abs())
        assert resid.max_abs() <= 1e-8 * scale
        diff = float_result.phi - float_vecpoly(exact_result.phi)
        assert diff.max_abs() <= 1e-8 * scale


def test_float_block_route_matches_exact():
    # the float recursion on an induced block's arrays (J_{B_inf} and the
    # QB coefficients as complex128) against the exact recursion on the
    # same block, applied matrix-free
    rng = random.Random(17)
    for _ in range(6):
        system = random_positive_system(rng)
        n = rng.randint(2, 3)
        block, _ = induced_system(system, n)
        float_block, _ = induced_system(float_system(system), n)
        g = random_vecpoly(rng, block.size, rng.randint(0, 5) + block.s)
        exact_result = solve_polynomial(block, g)
        float_result = solve_polynomial(float_block, float_vecpoly(g))
        scale = max(1.0, float_vecpoly(exact_result.y).max_abs(),
                    float_vecpoly(g).max_abs())
        for got, want in ((float_result.phi, exact_result.phi),
                          (float_result.y, exact_result.y)):
            assert (got - float_vecpoly(want)).max_abs() <= 1e-12 * scale


def test_assumption_error_for_any_singular_shift_of_b_infinity():
    # residues -1/2 and -3/2 give B_inf = -2, so k + B_inf is singular at
    # k = 2, and y_h = x^2 - x - 1/2 solves Q y' + (QB) y = 3/2: any
    # (phi, y) could be moved along (3/2, y_h), so no right-hand side has
    # a unique correction, whatever its degree.
    system = scalar_system(Fraction(-1, 2), Fraction(-3, 2))
    zero, one = ExactComplex(0), ExactComplex(1)
    half = ExactComplex(Fraction(1, 2))
    y_h = VecPoly.from_coeffs([(-half,), (-one,), (one,)], exact=True)
    phi_h = VecPoly.from_coeffs([(-3 * half,)], exact=True)
    g_zero = VecPoly.zero(1, True)
    assert cleared_residual(system, g_zero, phi_h, y_h).is_zero()
    for deg in (1, 2, 3):
        g = VecPoly.from_coeffs([(zero,)] * deg + [(one,)], exact=True)
        with pytest.raises(AssumptionError, match="k=2"):
            solve_polynomial(system, g)
    # residues -1 and 5/2: k + B_0 is singular at k = 1, but B_inf = 3/2
    # has no singular shift, and the residues B_j enter no solve.
    system = scalar_system(Fraction(-1), Fraction(5, 2))
    g = VecPoly.from_coeffs([(zero,), (zero,), (zero,), (one,)], exact=True)
    result = solve_polynomial(system, g)
    assert result.phi.coeffs == ((ExactComplex(-5),),)
    assert cleared_residual(system, g, result.phi, result.y).is_zero()
    assert solution_uniqueness_check(system) is True


def test_matches_rodrigues_expansion():
    """The paper's route: expand g in the lowered family; its first S+1
    coefficients are phi and the rest build y from the original family."""
    rng = random.Random(31)
    for _ in range(30):
        system = random_positive_system(rng, d_max=3, s_max=2)
        s = system.s
        g = random_vecpoly(rng, system.size, rng.randint(s + 1, s + 4))
        coeffs = RodriguesFamily(shifted_system(system)).expand(g)
        base = RodriguesFamily(system)
        phi = VecPoly.from_coeffs(coeffs[: s + 1], True, dim=system.size)
        y = VecPoly.zero(system.size, True)
        for n in range(s + 1, len(coeffs)):
            y = y + base.member_times_vector(n - s - 1, coeffs[n])
        result = solve_polynomial(system, g)
        assert (result.phi - phi).is_zero()
        assert (result.y - y).is_zero()


def test_dimension_mismatch_rejected():
    system = scalar_system(1, 1)
    g = VecPoly.from_coeffs([(ExactComplex(1), ExactComplex(0))], exact=True)
    with pytest.raises(ValueError):
        solve_polynomial(system, g)


# ----------------------------------------------------------------------
# the checks of the float solve at infinity
# ----------------------------------------------------------------------


def float_problem(poles, residues, coeffs):
    """Float system with the given poles and d x d residues, and the
    right-hand side with the given coefficient vectors."""
    system = FuchsianSystem(
        tuple(complex(p) for p in poles),
        tuple(CMatrix.from_rows(r, False) for r in residues))
    g = VecPoly.from_coeffs([tuple(complex(v) for v in c) for c in coeffs],
                            False, dim=len(coeffs[0]))
    return system, g


# d = 1, poles -1 and 1, B_inf = -2 + 1e-10: the shift k = 2 has float
# margin 1e-10, above tol, yet its solve turns 1e300 into y_2 = inf
NEAR_SINGULAR = ((-1, 1), ([[-1.0]], [[-1.0 + 1e-10]]),
                 [(0,), (0,), (0,), (1e300,)])
# d = 1, B_inf = 1/2: the k = 3 solve adds 3 y_3 = 8.6e307 to the given
# 1e308 at x^2, which overflows before the k = 1 solve reads it
OVERFLOWS = ((-1, 1), ([[0.25]], [[0.25]]),
             [(0,), (0,), (1e308,), (1e308,), (1e308,)])


def test_float_solve_rejects_a_shift_whose_residual_fails():
    system, g = float_problem(*NEAR_SINGULAR)
    assert singular_shifts(system.b_infinity(),
                           system.residue_spectrum("inf"), 1e-12) \
        == [(2, pytest.approx(1e-10, rel=1e-4), False)]
    # the overflow is under test, not numpy's warnings about it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AssumptionError, match=re.escape(
                "k + B_inf singular at k=2: solve residual inf exceeds "
                "tolerance (near-singular matrix)")):
            solve_polynomial(system, g)
    # a d = 2 block: B_inf = [[-1 + 1e-10, 0.4], [0, 1]] puts the values
    # -1 + 1e-10 and -3 + 2e-10 among those of J_{B_inf} at n = 2; the
    # first overflow is at k = 3
    lin, _ = float_problem((-1, 1), ([[-0.5 + 1e-10, 0.3], [0, 0.5]],
                                     [[-0.5, 0.1], [0, 0.5]]), [(0, 0)])
    block, _ = induced_system(lin, 2)
    assert not any(singular for _, _, singular in singular_shifts(
        block.b_infinity(), block.residue_spectrum("inf"), 1e-12))
    for top, error in ((1.0, None), (1e300, "k=3: solve residual")):
        g = VecPoly.from_coeffs(
            [(0j,) * 6] * 2 + [tuple(top * (i + 1) + 0j for i in range(6))]
            + [(top + 0j,) * 6] * 3, False, dim=6)
        with np.errstate(over="ignore", invalid="ignore"):
            if error is None:
                result = solve_polynomial(block, g)
                assert np.isfinite(np.array(result.y.coeffs)).all()
                continue
            with pytest.raises(AssumptionError, match=error):
                solve_polynomial(block, g)


def test_float_solve_overflow_partway_is_non_finite():
    system, g = float_problem(*OVERFLOWS)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError,
                           match="non-finite right-hand side"):
            solve_polynomial(system, g)
    # a non-finite coefficient given at x^2 stops the recursion at k = 1
    g = VecPoly.from_coeffs([(0j,), (0j,), (complex("inf"),), (1 + 0j,)],
                            False)
    with pytest.raises(ArithmeticError, match="non-finite right-hand side"):
        solve_polynomial(system, g)


def test_float_solve_array_form_matches_vecpoly_form():
    # an induced block's rows reach the float solve as a (deg + 1, N)
    # array: phi and y must come out bit for bit as from the VecPoly, with
    # the same top coefficients dropped; here the top row's entries are
    # all <= tol, so both forms drop it
    rng = random.Random(23)
    tol = 1e-12
    for _ in range(8):
        system = float_system(random_positive_system(rng, d_max=3))
        block, _ = induced_system(system, rng.randint(2, 3))
        g = float_vecpoly(random_vecpoly(rng, block.size,
                                         rng.randint(1, 5) + block.s))
        small = tuple(complex(rng.choice([0.0, tol, -tol / 2]), 0.0)
                      for _ in range(block.size))
        rows = np.array(g.coeffs + (small,), complex)
        want = solve_polynomial(block, VecPoly.from_coeffs(
            rows.tolist(), False, dim=block.size), tol)
        got = solve_polynomial(block, rows, tol)
        for array, poly in ((got.phi, want.phi), (got.y, want.y)):
            coeffs = np.array(poly.coeffs, complex).reshape(-1, block.size)
            assert array[:len(coeffs)].tobytes() == coeffs.tobytes()
            assert not array[len(coeffs):].any()
        assert len(got.y) == g.degree - block.s
        # a non-finite coefficient y reads is a numeric failure in both forms
        rows[-2, -1] = complex("inf")
        for form in (rows, VecPoly.from_coeffs(rows.tolist(), False,
                                               dim=block.size)):
            with pytest.raises(ArithmeticError, match="non-finite"):
                solve_polynomial(block, form, tol)


def test_float_solve_array_overflow_raises_singular_matrix_error():
    # the solution overflows to inf; the residual then reads inf or nan,
    # which must raise SingularMatrixError, not numpy's RuntimeWarning
    # (an error under the suite's warning filter)
    with pytest.raises(SingularMatrixError, match="solve residual"):
        solve_array(np.array([[1e-10]], complex), np.array([1e300], complex))


# ----------------------------------------------------------------------
# local_taylor
# ----------------------------------------------------------------------


def test_local_taylor_scalar_oracle():
    # corrected right-hand side x^2 - 1/3 has the solution y = x/3;
    # its series at -1 is -1/3 + t/3.
    system = scalar_system(1, 1)
    third = ExactComplex(Fraction(1, 3))
    rhs = VecPoly.from_coeffs(
        [(ExactComplex(0) - third,), (ExactComplex(0),), (ExactComplex(1),)],
        exact=True,
    )
    sol = local_taylor(system, 0, rhs, order=5)
    assert sol.center == ExactComplex(-1)
    assert sol.coefficients[0][0] == ExactComplex(0) - third
    assert sol.coefficients[1][0] == third
    for k in range(2, 6):
        assert sol.coefficients[k][0] == ExactComplex(0)


def test_local_taylor_matches_polynomial_solution():
    rng = random.Random(17)
    for _ in range(5):
        system = random_positive_system(rng)
        deg = rng.randint(system.s + 1, 6)
        g = random_vecpoly(rng, system.size, deg)
        result = solve_polynomial(system, g)
        corrected = g - result.phi
        order = result.y.degree + 3
        for j in range(system.n_poles):
            sol = local_taylor(system, j, corrected, order)
            expected = result.y.taylor_at(system.poles[j])
            for k in range(order + 1):
                want = (
                    expected[k]
                    if k < len(expected)
                    else tuple(ExactComplex(0) for _ in range(system.size))
                )
                assert tuple(sol.coefficients[k]) == tuple(want), (j, k)


def random_full_system(rng):
    """Exact system with dense Gaussian-rational residues, every k + B_j
    invertible."""
    d = rng.randint(1, 3)
    s = rng.randint(0, 2)
    poles = []
    while len(poles) < s + 2:
        c = ExactComplex(Fraction(rng.randint(-6, 6), 2),
                         Fraction(rng.randint(-2, 2), 2))
        if all(c != p for p in poles):
            poles.append(c)
    while True:
        mats = tuple(
            CMatrix.from_rows(
                [[ExactComplex(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                               Fraction(rng.randint(-1, 1), 2))
                  for _ in range(d)] for _ in range(d)],
                True,
            )
            for _ in range(s + 2)
        )
        system = FuchsianSystem(tuple(poles), mats)
        if all(not any(singular for _, _, singular in singular_shifts(
                   system.residues[j], system.residue_spectrum(j), 0.0))
               for j in range(s + 2)):
            return system


def test_local_taylor_float_matches_exact():
    # exact: the series solves the cleared equation (checked in x through
    # t^low, since term k of the residual involves only y_0 .. y_k); float
    # agrees with it through t^order, term by term, scaled by the gap to
    # the nearest other pole (the radius of convergence)
    rng = random.Random(41)
    order, low = 40, 12
    for _ in range(20):
        system = random_full_system(rng)
        d = system.size
        g = random_vecpoly(rng, d, rng.randint(0, system.s + 3))
        zero = VecPoly.zero(d, exact=True)
        sysf, gf = float_system(system), float_vecpoly(g)
        for j, center in enumerate(system.poles):
            sol = local_taylor(system, j, g, order)
            y = VecPoly.from_coeffs(sol.coefficients[: low + 1], exact=True,
                                    dim=d)
            y = VecPoly.from_coeffs(y.taylor_at(-center), exact=True, dim=d)
            resid = cleared_residual(system, g, zero, y).taylor_at(center)
            assert all(not v for c in resid[: low + 1] for v in c), j
            got = local_taylor(sysf, j, gf, order).coefficients
            gap = min(abs(complex(center - p)) for p in system.poles
                      if p != center)
            want = [[complex(v) for v in c] for c in sol.coefficients]
            scale = max([1.0] + [gap ** k * abs(v)
                                 for k, c in enumerate(want) for v in c])
            err = max(gap ** k * abs(a - b)
                      for k, (ca, cb) in enumerate(zip(got, want))
                      for a, b in zip(ca, cb))
            assert err <= 1e-12 * scale, (j, err / scale)


def test_local_taylor_eval_consistency():
    system = scalar_system(1, 1)
    third = ExactComplex(Fraction(1, 3))
    rhs = VecPoly.from_coeffs(
        [(ExactComplex(0) - third,), (ExactComplex(0),), (ExactComplex(1),)],
        exact=True,
    )
    sol = local_taylor(system, 1, rhs, order=4)
    x = ExactComplex(Fraction(3, 4))
    assert sol.eval(x)[0] == x * third


def test_local_taylor_rejects_dimension_mismatch():
    system = scalar_system(1, 1)
    g = VecPoly.from_coeffs([(ExactComplex(1), ExactComplex(0))], exact=True)
    for sys_, rhs in ((system, g), (float_system(system), float_vecpoly(g))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            local_taylor(sys_, 0, rhs, order=3)


def test_local_taylor_singular_shift():
    # B_0 = -2: k + B_0 vanishes at k = 2, so a series through t^2 has no
    # solution analytic at -1, while one through t^1 still does
    system = scalar_system(-2, Fraction(1, 2))
    g = VecPoly.from_coeffs([(ExactComplex(1),), (ExactComplex(3),)],
                            exact=True)
    for sys_, rhs in ((system, g), (float_system(system), float_vecpoly(g))):
        with pytest.raises(AssumptionError, match="k=2"):
            local_taylor(sys_, 0, rhs, order=5)
        assert len(local_taylor(sys_, 0, rhs, order=1).coefficients) == 2
        assert len(local_taylor(sys_, 1, rhs, order=5).coefficients) == 6


def test_local_taylor_float_rejects_non_finite_rhs():
    system = float_system(scalar_system(1, 1))
    rhs = VecPoly.from_coeffs([(1 + 0j,), (complex("inf"),)], exact=False)
    with pytest.raises(ArithmeticError, match="non-finite"):
        local_taylor(system, 0, rhs, order=4)


# ----------------------------------------------------------------------
# the shift ladder
# ----------------------------------------------------------------------


def test_shift_up_frozen_values():
    system = scalar_system(Fraction(-1, 4), Fraction(-1, 4))
    g = VecPoly.from_coeffs([(ExactComplex(1),)], exact=True)
    step = shift_up(system, g)
    for j in range(2):
        assert step.system.residues[j].entry(0, 0) == \
            ExactComplex(Fraction(3, 4))
    assert step.particular.degree == 1
    assert step.particular.coefficient(0)[0] == ExactComplex(0)
    assert step.particular.coefficient(1)[0] == ExactComplex(-2)
    # lifted right-hand side carries the substitution exactly:
    # Q * rhs == g - (QB) y0 - Q y0'
    q = system.q_poly()
    lhs = step.rhs.mul_sp(q)
    rhs = g - system.qb_poly().mul_vec(step.particular) \
        - step.particular.derivative().mul_sp(q)
    assert (lhs - rhs).is_zero()


def test_shift_substitution_identity_random():
    rng = random.Random(19)
    for _ in range(6):
        system = random_positive_system(rng)
        g = random_vecpoly(rng, system.size, rng.randint(0, 5))
        step = shift_up(system, g)
        q = system.q_poly()
        lhs = step.rhs.mul_sp(q)
        rhs = g - system.qb_poly().mul_vec(step.particular) \
            - step.particular.derivative().mul_sp(q)
        assert (lhs - rhs).is_zero()
        for j in range(system.n_poles):
            got = step.system.residues[j]
            want = system.residues[j].add_scaled_identity(1)
            assert (got - want).max_abs() == 0


def test_pull_back_recombines_to_direct_answer():
    # ladder rung on b = (-1/4, -1/4), g = 1: the direct answer is
    # phi = 1, y = 0; the lifted problem solves with phi_top = 1 and
    # ytilde = 0, so the pulled-back pieces must recombine to zero.
    system = scalar_system(Fraction(-1, 4), Fraction(-1, 4))
    g = VecPoly.from_coeffs([(ExactComplex(1),)], exact=True)
    step = shift_up(system, g)
    top = solve_polynomial(step.system, step.rhs)
    assert top.phi.coefficient(0)[0] == ExactComplex(1)
    assert top.y.is_zero()
    phi, y1 = pull_back_correction(system, top.phi)
    assert phi.degree == 0
    assert phi.coefficient(0)[0] == ExactComplex(1)
    assert y1.degree == 1
    assert y1.coefficient(1)[0] == ExactComplex(2)
    total = step.particular + y1  # + Q * ytilde, which is zero
    assert total.is_zero()


def test_pull_back_solves_short_problem():
    rng = random.Random(23)
    for _ in range(5):
        system = random_positive_system(rng)
        phi_lifted = random_vecpoly(rng, system.size, system.s)
        phi, y1 = pull_back_correction(system, phi_lifted)
        rhs = phi_lifted.mul_sp(system.q_poly())
        assert cleared_residual(system, rhs, phi, y1).is_zero()
        assert phi.degree <= system.s


# ----------------------------------------------------------------------
# uniqueness check
# ----------------------------------------------------------------------


def test_uniqueness_check_passes_for_positive_spectra():
    rng = random.Random(29)
    system = random_positive_system(rng)
    assert solution_uniqueness_check(system) is True


def test_uniqueness_check_warns_when_assumptions_fail():
    # b = (-1/2, -1/2) puts an eigenvalue of B_inf at -1, so the
    # invertibility sweep that the check relies on fails at k = 1.
    system = scalar_system(Fraction(-1, 2), Fraction(-1, 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = solution_uniqueness_check(system)
    assert verdict is None
    assert any("uniqueness check skipped" in str(w.message) for w in caught)

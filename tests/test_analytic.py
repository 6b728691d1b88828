"""Moment-condition route: paths, local series, continuation, full solves."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from fuchslin.analytic import (
    PathSpec,
    QuadratureError,
    ResonanceError,
    continue_w,
    default_path,
    frobenius_local,
    moments,
    rhs_moment,
    solve_analytic,
)
from fuchslin.correction import solve_polynomial
from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix
from fuchslin.model import AssumptionError, FuchsianSystem
from fuchslin.poly import VecPoly


def scalar_system(b0, b1, exact=True):
    if exact:
        return FuchsianSystem(
            (ExactComplex(-1), ExactComplex(1)),
            (
                CMatrix.from_rows([[ExactComplex.parse(b0)]], True),
                CMatrix.from_rows([[ExactComplex.parse(b1)]], True),
            ),
        )
    return FuchsianSystem(
        (-1.0 + 0j, 1.0 + 0j),
        (
            CMatrix.from_rows([[complex(b0)]], False),
            CMatrix.from_rows([[complex(b1)]], False),
        ),
    )


def monomial_rhs(power):
    coeffs = [(ExactComplex(0),)] * power + [(ExactComplex(1),)]
    return VecPoly.from_coeffs(coeffs, exact=True)


def random_positive_system(rng, d_max=2, s_max=1):
    d = rng.randint(1, d_max)
    s = rng.randint(0, s_max)
    poles = []
    while len(poles) < s + 2:
        c = ExactComplex(Fraction(rng.randint(-4, 4), 2))
        if all(c != p for p in poles):
            poles.append(c)
    mats = []
    for _ in range(s + 2):
        rows = [[ExactComplex(0)] * d for _ in range(d)]
        for i in range(d):
            # spectra well inside the right half plane, pairwise integer
            # differences avoided by using thirds
            rows[i][i] = ExactComplex(
                Fraction(3 * rng.randint(2, 8) + i + 1, 6)
            )
            for j in range(i + 1, d):
                rows[i][j] = ExactComplex(Fraction(rng.randint(-1, 1), 2))
        mats.append(CMatrix.from_rows(rows, True))
    return FuchsianSystem(tuple(poles), tuple(mats))


def random_vecpoly(rng, d, degree):
    coeffs = [
        tuple(ExactComplex(Fraction(rng.randint(-3, 3), 2)) for _ in range(d))
        for _ in range(degree + 1)
    ]
    top = list(coeffs[-1])
    if all(not v for v in top):
        top[0] = ExactComplex(1)
        coeffs[-1] = tuple(top)
    return VecPoly.from_coeffs(coeffs, exact=True, dim=d)


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------


def test_default_path_bulges_around_blocking_pole():
    # a third pole sits exactly on the segment from -1 to 1
    system = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1), ExactComplex(0)),
        tuple(CMatrix.identity(1, True) for _ in range(3)),
    )
    path = default_path(system, 1.0)
    assert abs(path.start - (-1.0)) < 1e-12
    assert abs(path.end - 1.0) < 1e-12
    assert len(path.waypoints) > 2
    interior = path.waypoints[1:-1]
    assert min(abs(w - 0.0) for w in interior) > 0.05
    assert all(abs(w - 0.0) > 0.05 for w in interior)


def test_default_path_rounds_a_pole_just_before_the_target():
    # pole 0 lies on the segment from -1 to 0.15, closer to the target than
    # a fifth of the minimal gap; y(0.15) is still reached by continuation
    system = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1), ExactComplex(0)),
        tuple(CMatrix.from_rows([[ExactComplex(Fraction(k, 3))]], True)
              for k in (2, 4, 5)),
    )
    path = default_path(system, 0.15)
    assert len(path.waypoints) > 2
    assert all(abs(w) >= 0.07 for w in path.waypoints)
    g = monomial_rhs(3)
    got = solve_analytic(system, g).y.eval(0.15)
    want = solve_polynomial(system, g).y.eval(
        ExactComplex(Fraction(15, 100)))
    assert abs(got[0] - complex(want[0])) <= 1e-9


def test_default_path_straight_when_clear():
    system = scalar_system(1, 1)
    path = default_path(system, 1.0)
    assert len(path.waypoints) == 2


def test_pathspec_validation():
    with pytest.raises(ValueError):
        PathSpec((1.0,))


# ----------------------------------------------------------------------
# local fundamental factor
# ----------------------------------------------------------------------


def test_frobenius_factor_solves_equation():
    system = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows(
                [
                    [ExactComplex(Fraction(1, 2)), ExactComplex(Fraction(1, 3))],
                    [ExactComplex(0), ExactComplex(Fraction(5, 4))],
                ],
                True,
            ),
            CMatrix.from_rows(
                [
                    [ExactComplex(Fraction(3, 4)), ExactComplex(0)],
                    [ExactComplex(Fraction(1, 5)), ExactComplex(Fraction(7, 6))],
                ],
                True,
            ),
        ),
    )
    fund = frobenius_local(system, 1, order=40)
    assert fund.radius == pytest.approx(2.0)
    assert np.allclose(fund.series[0], np.eye(2))
    x = 1.05
    h = 1e-6
    deriv = (fund.w_local(x + h) - fund.w_local(x - h)) / (2 * h)
    b_total = np.zeros((2, 2), dtype=complex)
    for p, m in zip(system.poles, system.residues):
        b_total += m.to_numpy() / (x - complex(p))
    want = fund.w_local(x) @ b_total
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(deriv - want))) <= 1e-6 * scale


def test_frobenius_resonant_residue_rejected():
    system = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows(
                [
                    [ExactComplex(Fraction(1, 2)), ExactComplex(1)],
                    [ExactComplex(0), ExactComplex(Fraction(3, 2))],
                ],
                True,
            ),
            CMatrix.identity(2, True),
        ),
    )
    with pytest.raises(ResonanceError):
        frobenius_local(system, 0, order=5)


# ----------------------------------------------------------------------
# continuation
# ----------------------------------------------------------------------


def test_continue_w_scalar_closed_form():
    # commuting scalar case: W = (x+1)(x-1) = x^2 - 1 globally
    system = scalar_system(1, 1)
    start = (0.0, CMatrix.from_rows([[-1.0 + 0j]], False))
    got = continue_w(system, start, [0.0, 0.5])
    assert abs(got.entry(0, 0) - (-0.75)) <= 1e-8
    # a homotopic detour through the lower half plane gives the same value
    detour = continue_w(system, start, [0.0, -0.4j, 0.5 - 0.4j, 0.5])
    assert abs(detour.entry(0, 0) - (-0.75)) <= 1e-8


def test_continue_w_diagonal_closed_form_near_a_pole():
    # diagonal residues commute: W = prod_j (x - p_j)^{B_j} globally; the
    # path runs 1e-3 above pole 1 and crosses no branch cut
    b0 = (ExactComplex(Fraction(1, 3)), ExactComplex(Fraction(7, 10)))
    b1 = (ExactComplex(Fraction(1, 2), Fraction(1, 4)),
          ExactComplex(Fraction(6, 5)))
    system = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        tuple(
            CMatrix.from_rows(
                [[b[0], ExactComplex(0)], [ExactComplex(0), b[1]]], True)
            for b in (b0, b1)
        ),
    )

    def closed_form(x):
        return np.diag([
            (x + 1) ** complex(b0[k]) * (x - 1) ** complex(b1[k])
            for k in range(2)
        ])

    path = [0.3j, 1.0 + 1e-3j, 2.0 + 0.5j]
    start = (path[0], CMatrix.from_numpy(closed_form(path[0])))
    got = continue_w(system, start, path).to_numpy()
    want = closed_form(path[-1])
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_continue_w_path_meeting_a_pole_fails():
    system = scalar_system(1, 1)
    start = (0.0, CMatrix.from_rows([[-1.0 + 0j]], False))
    # a segment through pole 1, and a waypoint on it
    for path in ([0.0, 2.0], [0.0, 1.0], [0.0, 0.5j, 1.0, 2.0]):
        with pytest.raises(QuadratureError, match="meets pole 1"):
            continue_w(system, start, path)


def test_continue_w_rejects_mismatched_start():
    system = scalar_system(1, 1)
    start = (0.0, CMatrix.from_rows([[-1.0 + 0j]], False))
    with pytest.raises(ValueError):
        continue_w(system, start, [0.3, 0.5])


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------


def test_moment_scalar_oracle():
    # weight (x+1)(x-1) equals Q, so x^0 Q^{-1} W integrates to 2
    system = scalar_system(1, 1)
    blocks = moments(system, tol=1e-11)
    assert len(blocks) == 1 and len(blocks[0]) == 1
    assert abs(blocks[0][0].entry(0, 0) - 2.0) <= 1e-9


def test_rhs_moment_scalar_oracle():
    system = scalar_system(1, 1)
    xi = rhs_moment(system, monomial_rhs(2), tol=1e-11)
    assert len(xi) == 1
    assert abs(xi[0][0] - Fraction(2, 3)) <= 1e-9


def _reference_system():
    # the residues of test_frobenius_factor_solves_equation and a third,
    # non-commuting pole off the real axis: d = 2, S = 1
    def mat(rows):
        return CMatrix.from_rows(
            [[ExactComplex(v) for v in row] for row in rows], True)

    return FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1),
         ExactComplex(Fraction(1, 2), 1)),
        (
            mat([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(5, 4)]]),
            mat([[Fraction(3, 4), 0], [Fraction(1, 5), Fraction(7, 6)]]),
            mat([[Fraction(2, 3), Fraction(-1, 2)],
                 [Fraction(1, 4), Fraction(1, 3)]]),
        ),
    )


# Recorded with the adaptive DOP853 transport (scipy's solve_ivp, rtol
# 1e-12) that the Taylor-step transport replaced, at the default tol 1e-10.
REFERENCE_MOMENTS = [
    [
        [[3.1316612461594495+0.5875490911917864j,
          0.8275455959838569-0.11577423887004806j],
         [0.3845568341753263+2.250195649082763j,
          0.2585611006537237+1.707545898657523j]],
        [[-0.7090690624409796-0.2292361366549936j,
          0.739624953399699-0.3073823496348006j],
         [-0.1785776664027577-0.7805742620423132j,
          0.5880781289013121+0.5638115879250731j]],
    ],
    [
        [[2.47132549118001+0.6015042127124842j,
          1.33219631982536+4.11194013079114j],
         [0.9490285123074708+1.8439552573740754j,
          -4.096180761789303+3.4212697792601667j]],
        [[-0.8342279936623133-0.3546512958762623j,
          -2.016684646325977+2.5597828833194467j],
         [0.3777578656364433-0.3343625771906251j,
          -3.3380295403198077-1.4738806384691345j]],
    ],
]
REFERENCE_XI = [
    [4.410814217588829-0.0483232904766322j,
     1.5405854538434447+1.9737679318591959j],
    [-3.5956168799853137-0.6271419884591485j,
     -0.011847234310037535-5.835909070733592j],
]
REFERENCE_W = [
    [1.3106715093396448-0.8008737513087907j,
     0.4399113943906517+1.3422196553471335j],
    [-0.012149588998762034-0.5433134160524141j,
     2.069873276619865+0.3864262046866288j],
]


def test_transport_matches_recorded_reference():
    system = _reference_system()
    g = VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(-1)), (ExactComplex(0), ExactComplex(2)),
         (ExactComplex(Fraction(1, 2)), ExactComplex(0)),
         (ExactComplex(1), ExactComplex(1))],
        exact=True, dim=2,
    )

    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    close([[b.to_numpy() for b in row] for row in moments(system)],
          REFERENCE_MOMENTS)
    close(rhs_moment(system, g), REFERENCE_XI)
    w = continue_w(system, (0.0, CMatrix.identity(2, False)),
                   [0.0, 0.3 + 0.5j, -0.4 + 0.9j])
    close(w.to_numpy(), REFERENCE_W)


def test_moments_require_positive_spectra():
    system = scalar_system(Fraction(-1, 4), Fraction(-1, 4))
    with pytest.raises(AssumptionError):
        moments(system)


# ----------------------------------------------------------------------
# full analytic solves
# ----------------------------------------------------------------------


def test_solve_analytic_scalar_quadratic():
    system = scalar_system(1, 1)
    result = solve_analytic(system, monomial_rhs(2), tol=1e-11)
    assert abs(result.phi.coefficient(0)[0] - Fraction(1, 3)) <= 1e-9
    handle = result.y
    assert handle.certificate is not None and handle.certificate.passed
    value = handle.eval(0.5)
    assert abs(value[0] - 0.5 / 3) <= 1e-8
    series = handle.taylor_at_pole(1, order=12)
    assert abs(series.eval(0.9 + 0j)[0] - 0.3) <= 1e-7


def test_solve_analytic_ladder_case():
    # nonpositive spectra: one shift rung engages; the unique answer is
    # phi = 1 with y identically zero
    system = scalar_system(Fraction(-1, 4), Fraction(-1, 4))
    g = VecPoly.from_coeffs([(ExactComplex(1),)], exact=True)
    result = solve_analytic(system, g, tol=1e-10)
    assert abs(result.phi.coefficient(0)[0] - 1.0) <= 1e-8
    assert result.y.certificate.passed
    assert abs(result.y.eval(0.5)[0]) <= 1e-7
    series = result.y.taylor_at_pole(0, order=20)
    assert max(abs(c[0]) for c in series.coefficients) <= 1e-7


def test_route_agreement_random_systems():
    rng = random.Random(31)
    for _ in range(3):
        system = random_positive_system(rng)
        g = random_vecpoly(rng, system.size, rng.randint(system.s + 1, 6))
        direct = solve_polynomial(system, g)
        analytic = solve_analytic(system, g, tol=1e-11)
        scale = max(1.0, float(g.max_abs()))
        for i in range(system.s + 1):
            want = direct.phi.coefficient(i)
            got = analytic.phi.coefficient(i)
            for a, b in zip(want, got):
                assert abs(complex(a) - complex(b)) <= 1e-7 * scale


def test_path_homotopy_invariance():
    system = scalar_system(1, 1)
    g = monomial_rhs(2)
    tol = 1e-10
    base = solve_analytic(system, g, tol=tol)
    bowed = solve_analytic(
        system, g, tol=tol,
        paths={1: PathSpec((-1.0, -0.3 - 0.5j, 0.4 - 0.5j, 1.0))},
    )
    diff = abs(base.phi.coefficient(0)[0] - bowed.phi.coefficient(0)[0])
    assert diff <= 2 * tol * max(1.0, abs(base.phi.coefficient(0)[0]))


def test_resonant_frobenius_surfaces_during_solve():
    system = FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows(
                [
                    [ExactComplex(Fraction(1, 2)), ExactComplex(1)],
                    [ExactComplex(0), ExactComplex(Fraction(3, 2))],
                ],
                True,
            ),
            CMatrix.identity(2, True),
        ),
    )
    g = VecPoly.from_coeffs(
        [(ExactComplex(0), ExactComplex(0)), (ExactComplex(1), ExactComplex(1))],
        exact=True,
    )
    with pytest.raises(AssumptionError):
        solve_analytic(system, g)

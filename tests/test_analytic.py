"""Moment-condition route: paths, local series, continuation, full solves."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from fuchslin import analytic, correction
from fuchslin.analytic import (
    RHO,
    AnalyticSolutionHandle,
    PathSpec,
    QuadratureError,
    ResonanceError,
    continue_w,
    default_path,
    float_system,
    frobenius_local,
    moments,
    rhs_moment,
    solve_analytic,
    _Context,
    _endpoint_sum,
    _factor_rows,
    _lower_toeplitz,
    _pole_blocks,
    _solved_blocks,
)
from fuchslin.correction import solve_polynomial
from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix
from fuchslin.model import (AssumptionError, FuchsianSystem,
                            check_linear_assumption)
from fuchslin.poly import VecPoly, sp_taylor
from fuchslin.rodrigues import RodriguesFamily, shifted_system


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


def test_float_system_is_the_rounded_copy_bit_for_bit():
    # float_system builds the float copy from the exact set-up forms, each
    # pole and entry num / den rounded once: bit for bit the system of
    # complex() of each ExactComplex value, and the context's residue
    # stack is the copy's set-up.  Past the float range both overflow
    rng = random.Random(45)

    def value():
        return ExactComplex(Fraction(rng.randint(-10**30, 10**30),
                                     rng.randint(1, 10**20)),
                            Fraction(rng.randint(-7, 7), rng.randint(1, 9)))

    for d in (1, 2, 3):
        system = FuchsianSystem(
            [ExactComplex(-1), ExactComplex(Fraction(1, 3)), value()],
            [CMatrix.from_rows([[value() for _ in range(d)]
                                for _ in range(d)], True) for _ in range(3)])
        want = FuchsianSystem(
            [complex(p) for p in system.poles],
            [CMatrix.from_rows([[complex(v) for v in row] for row in m.rows])
             for m in system.residues])
        copy = float_system(system)
        assert not copy.exact and copy.poles == want.poles
        assert copy.residues == want.residues
        for key in ("residues", "binf", "q", "coeffs"):
            assert np.array_equal(copy._forms(key), want._forms(key)), key
        assert _Context(copy, 1e-10).res is copy._forms("residues")
    huge = FuchsianSystem(
        [ExactComplex(0), ExactComplex(10**400)],
        [CMatrix.from_rows([[1]], True)] * 2)
    with pytest.raises(OverflowError):
        float_system(huge)


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


def test_default_path_refuses_the_basepoint_as_target():
    system = scalar_system(1, 1)
    with pytest.raises(ValueError, match="path target coincides with the "
                                         "basepoint"):
        default_path(system, system.poles[0])


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
    # a PathSpec gives what its waypoint list gives
    spec = continue_w(system, start, PathSpec((0.0, -0.4j, 0.5 - 0.4j, 0.5)))
    assert spec.entry(0, 0) == detour.entry(0, 0)


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


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


def test_transport_matches_recorded_reference():
    system = _reference_system()
    g = VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(-1)), (ExactComplex(0), ExactComplex(2)),
         (ExactComplex(Fraction(1, 2)), ExactComplex(0)),
         (ExactComplex(1), ExactComplex(1))],
        exact=True, dim=2,
    )
    _close([[b.to_numpy() for b in row] for row in moments(system)],
           REFERENCE_MOMENTS)
    _close(rhs_moment(system, g), REFERENCE_XI)
    w = continue_w(system, (0.0, CMatrix.identity(2, False)),
                   [0.0, 0.3 + 0.5j, -0.4 + 0.9j])
    _close(w.to_numpy(), REFERENCE_W)


# Recorded with the Taylor-step transport before its steps were planned
# first and built in one stack, at the default tol 1e-10.
REFERENCE_W_AROUND_POLE_1 = [
    [-0.5118259426328083-1.8244675544523192j,
     -1.1982070326754286-1.2868847481197534j],
    [1.8542787783017392-0.047515182166685925j,
     1.9107569600254124-2.1660554524496765j],
]
REFERENCE_XI_DEGREE_5 = [
    [2.5143655389050807-0.2304142649514071j,
     1.0360525269309875+0.5339894815333825j],
    [-9.788380824619784-4.600386013393255j,
     1.8391708279476755-12.663821794741256j],
]


def test_step_planner_edge_cases():
    system = _reference_system()
    start = (0.0, CMatrix.identity(2, False))
    # a repeated waypoint is a zero-length segment: no step, same result
    plain = continue_w(system, start, [0.0, 0.3 + 0.5j, -0.4 + 0.9j])
    repeated = continue_w(system, start,
                          [0.0, 0.3 + 0.5j, 0.3 + 0.5j, -0.4 + 0.9j])
    assert np.array_equal(repeated.to_numpy(), plain.to_numpy())
    _close(repeated.to_numpy(), REFERENCE_W)
    # a path of one zero-length segment plans no step at all
    stay = continue_w(system, start, [0.0, 0.0])
    assert np.array_equal(stay.to_numpy(), np.eye(2))
    # no moments (n_x = 0) along a path that rounds pole 1 from below
    around = continue_w(system, start,
                        [0.0, 0.5 - 0.5j, 1.5 - 0.5j, 1.5 + 0.5j])
    _close(around.to_numpy(), REFERENCE_W_AROUND_POLE_1)
    # g of degree S + 4 = 5: the x-power count comes from g, not from the
    # S + 1 powers of the moment blocks
    g = VecPoly.from_coeffs(
        [tuple(ExactComplex(Fraction(v)) for v in row) for row in
         [(1, -1), (0, 2), ("1/2", 0), (1, 1), (-1, "1/3"), ("1/4", -2)]],
        exact=True, dim=2,
    )
    assert g.degree == system.s + 4
    _close(rhs_moment(system, g), REFERENCE_XI_DEGREE_5)


@pytest.mark.parametrize("scale", [1, 2, Fraction(1, 3)],
                         ids=["s=1", "s=2", "s=1/3"])
def test_lowered_rodrigues_family_is_multiply_orthogonal(scale):
    # the paper's multiple orthogonality: with the residues scaled by s,
    # every member P_n, n = S + 1 .. S + 7, of the lowered family
    # (residues B_j - I, shifted_system) has vanishing moments
    # int_{p_0}^{p_j} Q^{-1} W P_n v dx, j = 1 .. S + 1, against the
    # system's own weight W, for every unit vector v, relative to
    # max|P_n v|; the unlowered family's do not (the control: its largest
    # relative moment is of order one)
    base = _reference_system()
    system = FuchsianSystem(base.poles, tuple(
        r.scale(ExactComplex(scale)) for r in base.residues))
    s, d = system.s, system.size
    ratios = {}
    for name, family in (("lowered", RodriguesFamily(shifted_system(system))),
                         ("unlowered", RodriguesFamily(system))):
        for n in range(s + 1, s + 8):
            for i in range(d):
                v = tuple(ExactComplex(int(i == j)) for j in range(d))
                p = family.member_times_vector(n, v)
                xi = rhs_moment(system, p)
                ratios.setdefault(name, []).append(
                    max(abs(z) for vec in xi for z in vec) / p.max_abs())
    assert max(ratios["lowered"]) <= 1e-12
    assert max(ratios["unlowered"]) >= 0.1


def _factor_series(*args):
    """``_factor_rows`` as the (n, count, m, e) stack of the Phi_k."""
    return _factor_rows(*args)[::-1].transpose(1, 0, 2, 3)


def test_stacked_factor_series_matches_per_centre():
    ctx = _Context(_reference_system(), 1e-10)
    count = ctx.step_terms
    # three steps of length RHO * dist(c, poles) in different directions:
    # the pole ratios r_k = -h / (c - p_k) differ in size and phase
    centres = np.array([0.0, 0.3 + 0.5j, -0.4 - 0.9j])
    heads = np.array([1.0, 1j, -0.6 + 0.8j])
    dist = np.min(np.abs(centres[:, None] - ctx.pole_array), axis=1)
    ratios = -(RHO * dist * heads)[:, None] / (centres[:, None]
                                                - ctx.pole_array)
    assert len({tuple(np.round(np.abs(r), 6)) for r in ratios}) == 3
    stacked = _factor_series(ratios, ctx.step_res, ctx.step_start, count)
    assert stacked.shape == (3, count, 2, 3)
    for i in range(3):
        single = _factor_series(ratios[i:i + 1], ctx.step_res,
                                ctx.step_start, count)
        assert single.shape == (1, count, 2, 3)
        for k in range(count):
            want = single[0, k]
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(stacked[i, k] - want)) <= 1e-14 * scale


def test_stacked_frobenius_factors_match_per_pole():
    ctx = _Context(_reference_system(), 1e-10)
    count = ctx.series_count(0.2)
    ctx.build_frobenius({0, 1, 2}, count)
    for j in range(3):
        # pole j alone: its own residue, and the other poles' ratios
        ratios = np.zeros((1, 3), dtype=complex)
        others = np.arange(3) != j
        ratios[0, others] = -1.0 / (ctx.poles[j] - ctx.pole_array[others])
        single = _factor_series(ratios, ctx.res, np.eye(2), count,
                                ctx.res[j:j + 1])
        assert single.shape == (1, count, 2, 2)
        assert np.array_equal(ctx.frobenius(j, count), single[0])
        # a shorter request is the same factor, truncated
        assert np.array_equal(ctx.frobenius(j, 7), single[0, :7])


def _history_blocks(res, ratios, count):
    """C_l h^{l+1} = -sum_k r_k^{l+1} B_k, l < count, of sum_k B_k/(x - p_k)
    at the centres of ``ratios`` (one row each): (n, count, d, d).  The
    factor recursion's input before it kept running sums over the poles."""
    n, n_poles = ratios.shape
    powers = np.cumprod(
        np.broadcast_to(ratios[:, None], (n, count, n_poles)), axis=1)
    return np.tensordot(powers, -res, axes=1)


def _history_factor_series(c_blocks, residues=None):
    """k Phi_k + B Phi_k - Phi_k B = sum_{l<k} Phi_{k-1-l} C_l as one
    product of Phi's whole history with the C_l per k: the recursion the
    running sums replaced.  Returns (n, count, d, d)."""
    n, count, d, _ = c_blocks.shape
    c_rows = c_blocks.reshape(n, count * d, d)
    rev = np.zeros((n, d, count * d), dtype=complex)
    rev[:, :, (count - 1) * d:] = np.eye(d)
    if residues is not None:
        eye = np.eye(d, dtype=complex)
        sylvester = np.stack([np.kron(b, eye) - np.kron(eye, b.T)
                              for b in residues])
        shift = np.eye(d * d, dtype=complex)
    for k in range(1, count):
        rhs = rev[:, :, (count - k) * d:] @ c_rows[:, :k * d]
        if residues is None:
            rhs /= k
        else:
            rhs = np.linalg.solve(sylvester + k * shift,
                                  rhs.reshape(n, d * d, 1)).reshape(n, d, d)
        rev[:, :, (count - 1 - k) * d:(count - k) * d] = rhs
    return rev.reshape(n, d, count, d).transpose(0, 2, 1, 3)[:, ::-1]


def _cascade_over_q(ratios, scale, count):
    """scale * prod_k 1/(1 - r_k u) by dividing by one 1 - r_k u at a time:
    the series the steps took h / Q from before the recursion gave it."""
    s = np.zeros((len(ratios), count), dtype=complex)
    s[:, 0] = 1.0
    for r in ratios.T:
        for l in range(1, count):
            s[:, l] += r * s[:, l - 1]
    return s * scale[:, None]


def _assert_termwise_close(got, want, size, rtol):
    """Each term of ``got`` within ``rtol`` of ``want``'s, relative to
    ``size``'s: a bound on the terms of the sum that term adds up."""
    axes = tuple(range(2, want.ndim))
    gap = np.max(np.abs(got - want), axis=axes) if axes else abs(got - want)
    bound = np.max(size, axis=axes) if axes else size
    assert np.all(gap <= rtol * bound), np.max(gap / bound)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_running_sums_match_the_history_recursion(d, s):
    rng = np.random.default_rng(100 * d + s)
    n_poles = s + 2
    res = 0.4 * (rng.standard_normal((n_poles, d, d))
                 + 1j * rng.standard_normal((n_poles, d, d)))
    count = 48
    # ratios r_k = -h/(c - p_k) of five steps, the largest of each RHO
    ratios = rng.standard_normal((5, n_poles)) \
        * np.exp(2j * math.pi * rng.random((5, n_poles)))
    ratios *= RHO / np.max(np.abs(ratios), axis=1, keepdims=True)
    # the steps' form: one more diagonal entry -1, and the rows
    # [Phi | q e_0], with [0 | q] too at d = 1 (``_Context.step_start``)
    step_res = np.zeros((n_poles, d + 1, d + 1), dtype=complex)
    step_res[:, :d, :d] = res
    step_res[:, d, d] = -1.0
    m = max(d, 2)
    start = np.eye(m, d + 1) + np.eye(m, d + 1, d)
    got = _factor_series(ratios, step_res, start, count)

    # the same recursions on |r_k| and |B_k| bound every term each sum adds
    def size(ratios):
        return _history_factor_series(_history_blocks(
            -np.abs(res), np.abs(ratios), count)).real

    _assert_termwise_close(
        got[:, :, :d, :d],
        _history_factor_series(_history_blocks(res, ratios, count)),
        size(ratios), 1e-14)
    # the extra column is prod_k 1/(1 - r_k u) in row 0 (and in the extra
    # row at d = 1), zero in the other rows of Phi
    assert not np.any(got[:, :, 1:d, d]) and not np.any(got[:, :, d:, :d])
    for row in ([0, 1] if d == 1 else [0]):
        _assert_termwise_close(
            got[:, :, row, d], _cascade_over_q(ratios, np.ones(5), count),
            _cascade_over_q(np.abs(ratios), np.ones(5), count).real, 1e-14)
    # Frobenius factors: pole i's own ratio is zero and its residue enters
    # the Sylvester solve
    ratios[np.arange(n_poles), np.arange(n_poles)] = 0.0
    frob = ratios[:n_poles]
    _assert_termwise_close(
        _factor_series(frob, res, np.eye(d), count, res),
        _history_factor_series(_history_blocks(res, frob, count), res),
        size(frob), 1e-14)


@pytest.mark.parametrize("system", [_reference_system(),
                                    scalar_system("1/2", "-3/4")])
def test_step_factors_match_the_history_recursion(system):
    ctx = _Context(system, 1e-10)
    count, n_x = ctx.step_terms, 3
    centres = np.array([0.0, 0.3 + 0.5j, -0.4 - 0.9j])
    dist = np.min(np.abs(centres[:, None] - ctx.pole_array), axis=1)
    lengths = RHO * dist * np.array([1.0, 1j, -0.6 + 0.8j])
    delta = centres[:, None] - ctx.pole_array
    ratios = -lengths[:, None] / delta
    phi = _history_factor_series(_history_blocks(ctx.res, ratios, count))
    over_q = _cascade_over_q(ratios, lengths / np.prod(delta, axis=1), count)
    m = np.arange(count)
    got = analytic._step_factors(ctx, centres, lengths, n_x)
    for i in range(3):
        want = [phi[i].sum(axis=0)]
        for a in range(n_x):
            # x^a h / Q as a series in u, x = c + h u
            power = np.polynomial.polynomial.polypow(
                [centres[i], lengths[i]], a)
            s_a = np.convolve(over_q[i], power)[:count]
            weights = s_a @ (1.0 / (m[:, None] + m[None, :] + 1))
            want.append(np.einsum("m,mij->ij", weights, phi[i]))
        for got_block, want_block in zip(got[i], want):
            assert np.max(np.abs(got_block - want_block)) \
                <= 1e-14 * np.max(np.abs(want_block))


def test_transport_passes_match_one_pass_per_path():
    system = _reference_system()
    ctx = _Context(system, 1e-10)
    n_x = 3
    # the S + 1 default paths with a custom one to pole 1 that bulges
    # below the real axis among them; then the same shapes ending short
    # of the poles, as ``eval`` continues them
    bulged = (-1.0, -0.5 - 0.6j, 0.5 - 0.6j)
    to_poles = [default_path(system, 1.0), PathSpec(bulged + (1.0,)),
                default_path(system, 0.5 + 1j)]
    to_points = [default_path(system, 0.7), PathSpec(bulged + (0.7,)),
                 default_path(system, 0.4 + 0.8j)]
    for match_target, paths in ((True, to_poles), (False, to_points)):
        stacked = analytic._transport_passes(ctx, paths, n_x, match_target)
        for path, got in zip(paths, stacked):
            alone = analytic._transport_passes(_Context(system, 1e-10),
                                               [path], n_x, match_target)[0]
            for name in ("mats", "w_mid", "mats_mid", "w_start",
                         "mats_start"):
                assert np.array_equal(getattr(got, name),
                                      getattr(alone, name)), name
            assert got.mid_point == alone.mid_point


def _reference_pole_series(ctx, j, n_x, count):
    """The series of x^a / Q_j at p_j, a < n_x, built from the cofactor Q_j
    directly: its Taylor shift to p_j, the reciprocal of that series term
    by term, and the binomial series of (p_j + t)^a.  Returns the series
    and, per term, the sum of the sizes of the products it adds up."""
    p_j = ctx.poles[j]
    cof = [complex(c) for c in sp_taylor(ctx.system.cofactor(j), p_j)]
    inv_cof = [1.0 / cof[0]]
    for k in range(1, count):
        acc = sum(cof[l] * inv_cof[k - l]
                  for l in range(1, min(k, len(cof) - 1) + 1))
        inv_cof.append(-acc / cof[0])
    scalars = np.zeros((n_x, count), dtype=complex)
    sizes = np.zeros((n_x, count))
    for a in range(n_x):
        power = [math.comb(a, l) * p_j ** (a - l)
                 for l in range(min(a, count - 1) + 1)]
        scalars[a] = np.convolve(power, inv_cof)[:count]
        sizes[a] = np.convolve(np.abs(power), np.abs(inv_cof))[:count]
    return scalars, sizes


# float systems for the pole-side series: (poles, d); "close" puts two
# poles 1e-2 apart on a spread of about 3
POLE_SERIES_SYSTEMS = {
    "d1-S0": ((-1.0, 1.0), 1),
    "d2-S1": ((-1.0, 1.0, 0.5 + 1j), 2),
    "d3-S2": ((-1.5, 0.5, 1j, 1.5 - 0.5j), 3),
    "d1-S2-close": ((-1.0, 1.0, 1.01, 0.2 + 1.5j), 1),
    "d2-S1-close": ((-1.0, 1.0, 1.0 + 0.01j), 2),
    "d3-S0": ((0.25 - 1j, 2.0), 3),
    "d3-S1-close": ((-1.5, 1.5, 1.5 + 0.01j), 3),
}


@pytest.mark.parametrize("case", sorted(POLE_SERIES_SYSTEMS))
def test_pole_blocks_match_cofactor_reference(case):
    poles, d = POLE_SERIES_SYSTEMS[case]
    rng = np.random.default_rng(len(poles) * 10 + d)
    residues = []
    for _ in poles:
        b = 0.3 * (rng.standard_normal((d, d))
                   + 1j * rng.standard_normal((d, d)))
        b += np.diag(0.5 + 0.37 * np.arange(d))
        residues.append(CMatrix.from_numpy(b))
    ctx = _Context(FuchsianSystem(tuple(complex(p) for p in poles),
                                  tuple(residues)), 1e-10)
    count = ctx.series_count(0.2)
    n_x = len(poles) + 2
    # every pole at once, and pole 0 once more to fewer terms
    asked = [(j, count) for j in range(len(poles))] + [(0, count - 5)]
    blocks = _pole_blocks(ctx, asked, n_x)
    assert np.array_equal(blocks[-1], blocks[0][:, :count - 5])
    for j, got in enumerate(blocks[:-1]):
        phi = ctx.frobenius(j, count)
        scalars, sizes = _reference_pole_series(ctx, j, n_x, count)
        want = np.einsum("kla,lbc->akbc", _lower_toeplitz(scalars.T), phi)
        assert got.shape == want.shape == (n_x, count, d, d)
        # the terms grow like (1 / gap)^k, and both (p_j + t)^a / Q_j and
        # H^(a)_k = sum_l s^(a)_l Phi_{k-l} can cancel: compare each term
        # to the sum of the sizes of the products that make it up
        size = np.einsum("kla,lbc->akbc", _lower_toeplitz(sizes.T),
                         np.abs(phi))
        assert np.all(np.abs(got - want) <= 1e-13 * size), (j, case)


def test_frobenius_local_checks_only_the_pole_asked_for():
    # eigenvalues 1/2 and 3/2 of the residue at pole 0 differ by one
    resonant = CMatrix.from_rows(
        [[ExactComplex(Fraction(1, 2)), ExactComplex(1)],
         [ExactComplex(0), ExactComplex(Fraction(3, 2))]], True)
    system = FuchsianSystem((ExactComplex(-1), ExactComplex(1)),
                            (resonant, CMatrix.identity(2, True)))
    fund = frobenius_local(system, 1, order=10)
    assert np.allclose(fund.series[0], np.eye(2))
    with pytest.raises(ResonanceError, match="residue 0"):
        frobenius_local(system, 0, order=10)


def _loop_resonance(spectrum, tol):
    """The integer two of ``spectrum`` differ by within ``tol``, nonzero,
    from a loop over the ordered pairs, or None: the per-pair rule the
    Frobenius factor's check used before it asked ``singular_shifts``."""
    for a in spectrum:
        for b in spectrum:
            near = round((a - b).real)
            if near != 0 and abs(a - b - near) <= tol:
                return near
    return None


def test_resonance_check_matches_the_per_pair_loop():
    # random spectra of three poles, eigenvalues an integer apart up to a
    # perturbation below, at or above the tolerance, or not near at all:
    # the first pole the check refuses is the loop's, named in the message
    rng = random.Random("frobenius-resonance")

    class Spectra:
        def __init__(self, spectra):
            self.residue_spectrum = spectra.__getitem__

    counts = {True: 0, False: 0}
    for _ in range(4000):
        tol = rng.choice([1e-9, 1e-6, 0.25, 0.5])
        spectra = []
        for _ in range(3):
            base = complex(rng.uniform(-3, 3), rng.choice([0, 1]) *
                           rng.uniform(-3, 3))
            spectra.append([base + rng.randint(-3, 3) + rng.choice(
                [0, tol / 2, -tol, tol, 2 * tol, 1j * tol, 0.5,
                 rng.uniform(-1, 1)]) for _ in range(rng.randint(1, 4))])
        ctx = type("Ctx", (), {"system": Spectra(spectra),
                               "resonance_tol": tol})
        want = next((j for j, lam in enumerate(spectra)
                     if _loop_resonance(lam, tol) is not None), None)
        got = None
        for j in range(3):
            try:
                analytic._check_resonance(ctx, j)
            except ResonanceError as exc:
                got = j
                named = int(re.search(r"integer (-?\d+)", str(exc))[1])
                assert str(exc).startswith(f"residue {j}:") and named >= 1
                break
        assert got == want, (spectra, tol)
        counts[want is None] += 1
    assert min(counts.values()) >= 500, counts


def test_endpoint_sum_stacks_blocks_with_their_own_convergence_test():
    bj = np.array([[0.75, 0.5], [0.2, 1.25]], dtype=complex)
    t_end = 0.3 - 0.1j
    count = 30
    decay = (0.5 ** np.arange(count))[:, None, None]
    rng = np.random.default_rng(5)
    blocks = np.stack([decay * rng.standard_normal((count, 2, 2)),
                       1e6 * decay * rng.standard_normal((count, 2, 2))])
    mats = _endpoint_sum(_solved_blocks(bj, blocks), t_end, 1e-10)
    assert mats.shape == (2, 2, 2)
    # reference: sum_k t^k (B + k)^{-1} H_k, one solve per block and term
    for got, series in zip(mats, blocks):
        want = sum(t_end ** k
                   * np.linalg.solve(bj + k * np.eye(2), series[k])
                   for k in range(count))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # block 0's last term (~3e-7) fails against its own sum (order one),
    # although block 1's sum (~1e6) would have covered it
    blocks[0, -1] = 1e-5 / abs(t_end) ** (count - 1)
    with pytest.raises(QuadratureError, match="did not converge"):
        _endpoint_sum(_solved_blocks(bj, blocks), t_end, 1e-10)


def test_endpoint_sum_names_the_first_block_that_does_not_converge():
    bj = np.array([[0.75, 0.5], [0.2, 1.25]], dtype=complex)
    t_end = 0.3 - 0.1j
    count = 30
    decay = (0.5 ** np.arange(count))[:, None, None]
    rng = np.random.default_rng(7)
    blocks = decay * rng.standard_normal((3, count, 2, 2))

    def last_term(i):
        return float(np.max(np.abs(
            t_end ** (count - 1)
            * np.linalg.solve(bj + (count - 1) * np.eye(2), blocks[i, -1]))))

    # blocks 1 and 2 end on a large last term; block 1's is reported
    grow = abs(t_end) ** (1 - count)
    blocks[1, -1] = grow * np.array([[1e-3, 0.0], [2e-3, 0.0]])
    blocks[2, -1] = grow * np.array([[0.0, 5.0], [0.0, 1.0]])
    want = (f"endpoint series did not converge (last term "
            f"{last_term(1):.3e} after 30 terms)")
    with pytest.raises(QuadratureError) as err:
        _endpoint_sum(_solved_blocks(bj, blocks), t_end, 1e-10)
    assert str(err.value) == want
    assert want != (f"endpoint series did not converge (last term "
                    f"{last_term(2):.3e} after 30 terms)")


# ----------------------------------------------------------------------
# work done once and reused: bit for bit against the loops it replaced
# ----------------------------------------------------------------------


def _loop_factor_rows(ratios, res, start, count, residues=None):
    """``_factor_rows`` with its views taken anew on every k: the loop the
    prebuilt views replaced, kept as the reference for its bits."""
    n, n_poles = ratios.shape
    m, e = start.shape
    rev = np.empty((count, n, m, e), dtype=complex)
    rev[-1] = start
    sums = np.zeros((n, m, n_poles, e), dtype=complex)
    neg_res = -res.reshape(n_poles * e, e)
    if residues is not None:
        eye = np.eye(e, dtype=complex)
        sylvester = np.stack([np.kron(b, eye) - np.kron(eye, b.T)
                              for b in residues])
    for k in range(1, count):
        sums += rev[count - k, :, :, None]
        sums *= ratios[:, None, :, None]
        if residues is None:
            np.matmul(sums.reshape(n * m, n_poles * e), neg_res,
                      out=rev[count - 1 - k].reshape(n * m, e))
            rev[count - 1 - k] /= k
        else:
            rhs = sums.reshape(n, e, n_poles * e) @ neg_res
            rev[count - 1 - k] = np.linalg.solve(
                sylvester + k * np.eye(e * e),
                rhs.reshape(n, e * e, 1)).reshape(n, e, e)
    return rev


def _loop_endpoint_sum(bj, t_end, blocks, tol):
    """``_endpoint_sum`` on raw blocks, with their (B + k) solve inside
    every call: the sum before the blocks were kept solved."""
    n_blocks, count, d = blocks.shape[:3]
    cols = blocks.transpose(1, 2, 0, 3).reshape(count, d, n_blocks * d)
    k = np.arange(count)
    shifted = bj + k[:, None, None] * np.eye(d, dtype=complex)
    terms = np.linalg.solve(shifted, cols) * (t_end ** k)[:, None, None]
    acc = terms.sum(axis=0)
    tail, size = np.abs([terms[-1], acc]).reshape(2, d, -1, d).max(axis=(1, 3))
    failed = np.flatnonzero(tail > 50 * tol * np.maximum(size, 1.0))
    if failed.size:
        raise QuadratureError(
            f"endpoint series did not converge (last term "
            f"{tail[failed[0]]:.3e} after {count} terms)"
        )
    return acc.reshape(d, n_blocks, d).transpose(1, 0, 2)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("n", [1, 4, 72])
@pytest.mark.parametrize("n_poles", [2, 3, 4])
def test_factor_rows_match_the_loop_bit_for_bit(n, n_poles):
    rng = np.random.default_rng(100 * n + n_poles)
    count = 30
    for e in range(1, 5):
        res = 0.2 * (rng.standard_normal((n_poles, e, e))
                     + 1j * rng.standard_normal((n_poles, e, e)))
        ratios = RHO * rng.random((n, n_poles)) \
            * np.exp(2j * math.pi * rng.random((n, n_poles)))
        # the steps' rows [Phi | q e_0] (``_Context.step_start``)
        m = max(e - 1, 2)
        start = np.eye(m, e) + np.eye(m, e, e - 1)
        assert _same_bits(_factor_rows(ratios, res, start, count),
                          _loop_factor_rows(ratios, res, start, count)), e
        # Frobenius factors: start I and one residue per row
        residues = res[rng.integers(n_poles, size=n)]
        assert _same_bits(
            _factor_rows(ratios, res, np.eye(e), count, residues),
            _loop_factor_rows(ratios, res, np.eye(e), count, residues)), e


# (d, S, nonpositive residue at the basepoint) of seeded exact problems
SEEDED_PROBLEMS = [(1, 0, False), (1, 2, False), (2, 0, False),
                   (2, 1, False), (3, 2, False), (2, 2, True)]


def _seeded_problem(case):
    """An exact system with d and S of ``SEEDED_PROBLEMS[case]``, residues
    as in ``random_positive_system`` (residue 0 with the spectrum -1/8,
    -3/8, ... where nonpositive), and g of degree S + 1."""
    d, s, nonpositive = SEEDED_PROBLEMS[case]
    rng = random.Random(f"seeded-problem-{case}")
    poles = []
    while len(poles) < s + 2:
        c = ExactComplex(Fraction(rng.randint(-4, 4), 2),
                         Fraction(rng.randint(-1, 1), 3))
        if all(c != p for p in poles):
            poles.append(c)
    mats = []
    for j in range(s + 2):
        rows = [[ExactComplex(0)] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = ExactComplex(
                Fraction(-(2 * i + 1), 8) if nonpositive and j == 0
                else Fraction(3 * rng.randint(2, 8) + i + 1, 6))
            for k in range(i + 1, d):
                rows[i][k] = ExactComplex(Fraction(rng.randint(-1, 1), 2))
        mats.append(CMatrix.from_rows(rows, True))
    system = FuchsianSystem(tuple(poles), tuple(mats))
    return system, random_vecpoly(rng, d, s + 1)


# two points of ``eval`` off every pole of the seeded problems
EVAL_POINTS = (0.3 + 0.7j, -0.2 - 0.9j)


def _solve_and_eval(system, g, points):
    """phi, each certificate check's difference with phi_gap and cond, and
    y at ``points`` (in that order, on one handle), as arrays."""
    result = solve_analytic(system, g)
    cert = result.y.certificate
    return (np.array(result.phi.coeffs, dtype=complex),
            np.array([c.difference for c in cert.checks]
                     + [cert.phi_gap, cert.cond]),
            np.array([result.y.eval(x) for x in points]))


@pytest.mark.parametrize("case", range(len(SEEDED_PROBLEMS)))
def test_solve_and_eval_match_the_loops_bit_for_bit(case, monkeypatch):
    # the route with the loops above patched in, then as shipped: the
    # shipped one solves each endpoint block once per context and builds
    # the recursion's views once per call, with the same numpy calls
    system, g = _seeded_problem(case)
    with monkeypatch.context() as patch:
        patch.setattr(analytic, "_factor_rows", _loop_factor_rows)
        patch.setattr(analytic, "_solved_blocks",
                      lambda bj, blocks: (bj, blocks))
        patch.setattr(analytic, "_endpoint_sum",
                      lambda raw, t_end, tol: _loop_endpoint_sum(
                          raw[0], t_end, raw[1], tol))
        want = _solve_and_eval(system, g, EVAL_POINTS)
    got = _solve_and_eval(system, g, EVAL_POINTS)
    for name, a, b in zip(("phi", "certificate", "y"), got, want):
        assert _same_bits(a, b), name
    # the steps' residues with one more diagonal entry -1, as np.pad built
    ctx = _Context(system, 1e-10)
    padded = np.pad(ctx.res, ((0, 0), (0, 1), (0, 1)))
    padded[:, -1, -1] = -1
    assert _same_bits(ctx.step_res, padded)


def test_cached_work_does_not_depend_on_the_order_it_is_asked_in():
    system, g = _seeded_problem(3)
    # eval at x1 then x2 on one handle, against x2 then x1 on a fresh one
    first = solve_analytic(system, g).y
    in_order = [first.eval(x) for x in EVAL_POINTS]
    second = solve_analytic(system, g).y
    reversed_order = [second.eval(x) for x in EVAL_POINTS[::-1]][::-1]
    assert _same_bits(in_order, reversed_order)
    # endpoint blocks asked all at once, in reverse, or a few at a time
    n_x = 3
    asked = [(0, 40), (1, 30), (2, 50), (0, 25), (1, 45)]
    whole = _Context(system, 1e-10).pole_blocks(asked, n_x)
    for parts in ([asked[::-1]], [asked[2:3], asked[:2], asked[3:]],
                  [[key] for key in asked[::-1]]):
        ctx = _Context(system, 1e-10)
        for part in parts:
            for key, solved in ctx.pole_blocks(part, n_x).items():
                assert _same_bits(solved, whole[key]), key
    # the float copy takes the finite poles' spectra the exact system has,
    # the same bits as computed anew, but not B_inf's
    rng = random.Random("shared-spectra")
    for d in (1, 2, 3):
        exact = FuchsianSystem(
            [ExactComplex(-1), ExactComplex(Fraction(1, 3), 1),
             ExactComplex(2)],
            [CMatrix.from_rows(
                [[ExactComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                  for _ in range(d)] for _ in range(d)], True)
             for _ in range(3)])
        fresh = float_system(exact)
        exact.all_spectra()
        shared = float_system(exact)
        assert ("spec", "inf") not in shared._cache
        for j in range(3):
            assert ("spec", j) in shared._cache
            assert _same_bits(shared.residue_spectrum(j),
                              fresh.residue_spectrum(j)), (d, j)


# the benchmark's analytic-route jobs with the largest share of the
# 10 * tol certificate allowance, written out as literals: poles,
# residues and the rows of g (ascending powers).  Both have one
# nonpositive residue, so the basepoint's endpoint integrals are continued
# past the right half plane.
TIGHTEST_CERTIFICATE_JOBS = {
    # seed 4, round 4, job 17 (d = 3, S = 2)
    "seed4-r4-j17": (
        ("-5/2", "-1/2", 3, 2),
        ([["-1/8", 0, "-1/2"], [0, "-1/4", 0], [0, 0, "-7/8"]],
         [["13/6", "1/2", "-1/2"], [0, "5/6", 0], [0, 0, "3/2"]],
         [["5/3", "-1/2", "-1/2"], [0, "7/3", "1/2"], [0, 0, "5/2"]],
         [["2/3", "-1/2", "1/2"], [0, "11/6", "1/2"], [0, 0, "3/2"]]),
        [(-1, 0, 1), (0, 0, "1/2"), (1, "-1/2", "-1/2"), ("3/2", 1, "1/2"),
         (1, 1, -1), ("1/2", -1, 0), ("3/2", "-3/2", "1/2")],
    ),
    # seed 1009, round 5, job 11 (d = 2, S = 2)
    "seed1009-r5-j11": (
        (3, "-1/2", -2, "1/2"),
        ([["-5/8", "1/2"], [0, "-5/4"]],
         [["13/6", "1/2"], [0, "7/3"]],
         [["5/3", "-1/2"], [0, "11/6"]],
         [["2/3", "-1/2"], [0, "4/3"]]),
        [(-1, "3/2"), ("1/2", 1), (-1, 1), ("-3/2", 1)],
    ),
}


@pytest.mark.parametrize("job", sorted(TIGHTEST_CERTIFICATE_JOBS))
def test_tightest_known_certificate_still_passes(job):
    poles, residues, g_rows = TIGHTEST_CERTIFICATE_JOBS[job]

    def exact(v):
        return ExactComplex(Fraction(v))

    system = FuchsianSystem(
        tuple(exact(p) for p in poles),
        tuple(CMatrix.from_rows([[exact(v) for v in row] for row in m], True)
              for m in residues),
    )
    g = VecPoly.from_coeffs([tuple(exact(v) for v in row) for row in g_rows],
                            exact=True, dim=system.size)
    result = solve_analytic(system, g)
    certificate = result.y.certificate
    assert certificate.passed
    # the continued value is one contraction of the moments with
    # g - phi, so roundoff leaves at least half the allowance unused
    for check in certificate.checks:
        allowance = 10 * certificate.tol * max(1.0, check.scale)
        assert check.difference <= 0.5 * allowance
    direct = solve_polynomial(system, g)
    scale = max(1.0, max(abs(complex(v)) for row in direct.phi.coeffs
                         for v in row))
    for i in range(system.s + 1):
        for a, b in zip(direct.phi.coefficient(i),
                        result.phi.coefficient(i)):
            assert abs(complex(a) - complex(b)) <= 1e-7 * scale


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
    # nonpositive spectra, solved with no shift ladder; the unique answer
    # is phi = 1 with y identically zero
    system = scalar_system(Fraction(-1, 4), Fraction(-1, 4))
    g = VecPoly.from_coeffs([(ExactComplex(1),)], exact=True)
    result = solve_analytic(system, g, tol=1e-10)
    assert abs(result.phi.coefficient(0)[0] - 1.0) <= 1e-8
    assert result.y.certificate.passed
    assert abs(result.y.eval(0.5)[0]) <= 1e-7
    series = result.y.taylor_at_pole(0, order=20)
    assert max(abs(c[0]) for c in series.coefficients) <= 1e-7


def test_solve_analytic_refuses_paths_given_as_a_list():
    with pytest.raises(ValueError, match="paths must map target pole "
                                         "indices to paths"):
        solve_analytic(scalar_system(1, 1), monomial_rhs(2),
                       paths=[[-1.0, 1.0]])


def test_eval_refuses_a_path_that_does_not_start_at_pole_0():
    # the path ends at x = 0.5 but starts at 0.2i, not at pole 0 (-1)
    y = solve_analytic(scalar_system(1, 1), monomial_rhs(2)).y
    with pytest.raises(ValueError, match="path must start at the basepoint "
                                         "pole"):
        y.eval(0.5, [0.2j, 0.5])


def three_pole_system(residues):
    return FuchsianSystem(
        tuple(ExactComplex(p) for p in (-1, 1, 3)),
        tuple(CMatrix.from_rows([[ExactComplex(Fraction(b))]], True)
              for b in residues),
    )


def test_zero_rhs_contracts_to_zero():
    # g = 0 reaches every contraction with no coefficients at all; the
    # residue -3/2 is outside the right half plane
    system = three_pole_system(("1/2", "3/4", "-3/2"))
    zero = VecPoly.zero(1, exact=True)
    result = solve_analytic(system, zero)
    assert result.phi.max_abs() == 0.0
    assert result.y.certificate.passed
    # 1 + 0.05j lies within 0.05 * gap of pole 1 (local-series branch);
    # 0.2 + 0.7j is continued along a path from the basepoint
    for x in (1 + 0.05j, 0.2 + 0.7j):
        assert result.y.eval(x) == (0j,)
    positive = three_pole_system(("1/2", "3/4", "3/2"))
    assert rhs_moment(positive, zero) == [(0j,), (0j,)]


def test_certificate_checks_the_continued_value(monkeypatch):
    # the local series solves the corrected problem at each pole, so a
    # continued value that is off fails the certificate; with spectra
    # -1/4 the endpoint integrals are continued past the right half plane
    system = scalar_system(Fraction(-1, 4), Fraction(-1, 4))
    g = monomial_rhs(2)
    assert solve_analytic(system, g, tol=1e-10).y.certificate.passed
    continued = AnalyticSolutionHandle._continued

    def off_continued(self, w, mats):
        return tuple(v + 1e-3 for v in continued(self, w, mats))

    monkeypatch.setattr(AnalyticSolutionHandle, "_continued", off_continued)
    with pytest.raises(QuadratureError, match="certificate failed"):
        solve_analytic(system, g, tol=1e-10)


def test_certificate_checks_phi_against_the_recursion(monkeypatch):
    # the reference phi comes from the recursion at infinity; one that
    # differs from the route's by more than 10 * tol fails the
    # certificate even when the continued solution matches
    system, g = _scaled_reference(Fraction(1))
    certificate = solve_analytic(system, g).y.certificate
    assert certificate.passed and certificate.phi_gap <= 1e-14
    solve = analytic.solve_polynomial

    def off_phi(*args, **kwargs):
        ref = solve(*args, **kwargs)
        return correction.CorrectionResult(phi=ref.phi + 1e-8, y=ref.y)

    monkeypatch.setattr(analytic, "solve_polynomial", off_phi)
    with pytest.raises(QuadratureError, match=r"certificate failed: against "
                       r"the polynomial solution, phi is off by \d\.\d+e-09 "
                       r"and the continued solution by \d\.\d+e-1[4-6]"):
        solve_analytic(system, g)


def test_nonpositive_spectra_build_no_shifted_system(monkeypatch):
    # the solve and eval run on the given system: no shift ladder
    system = three_pole_system(("1/2", "-1/4", "-3/2"))
    g = monomial_rhs(2)
    reference = solve_polynomial(system, g)

    def refuse(*args, **kwargs):
        raise AssertionError("the shift ladder ran")

    monkeypatch.setattr(FuchsianSystem, "shift", refuse)
    monkeypatch.setattr(correction, "shift_up", refuse)
    monkeypatch.setattr(correction, "pull_back_correction", refuse)
    result = solve_analytic(system, g)
    assert result.y.certificate.passed
    assert abs(result.phi.coefficient(0)[0]
               - complex(reference.phi.coefficient(0)[0])) <= 1e-8
    # 0.2 + 0.7j is continued from the basepoint, 1.05 takes pole 1's series
    for x in (0.2 + 0.7j, 1.05):
        want = complex(reference.y.eval(
            ExactComplex(Fraction(x.real), Fraction(x.imag)))[0])
        assert abs(result.y.eval(x)[0] - want) <= 1e-8 * max(1.0, abs(want))


@pytest.mark.parametrize("s, bound", [
    (Fraction(-19, 10), 1e-10),
    (Fraction(-29, 10), None),
    (Fraction(-37, 10), None),
])
def test_strongly_negative_spectra_match_the_exact_correction(s, bound):
    # _reference_system with every residue times s: the least real part is
    # -1.9 * 1/3 down to -3.7 * 7/6, and phi's error grows with cond(M)
    # (measured 2.2e-11, 4.4e-9 and 2.3e-7 relative to max|phi|; the bound
    # is at least 4x that).  At s = -2.9 and -3.7 the error exceeds
    # 10 * tol, so the certificate refuses phi there.
    system, g = _scaled_reference(s)
    if bound is None:
        with pytest.raises(QuadratureError, match="certificate failed"):
            solve_analytic(system, g)
        return
    result = solve_analytic(system, g)
    assert result.y.certificate.passed
    want = solve_polynomial(system, g).phi
    assert _phi_error(system, result.phi, want) <= bound


# s from -47/10 to -13/10 in steps of 1/10, and four positive values
CONTRACT_SWEEP = [Fraction(-k, 10) for k in range(47, 12, -1)] \
    + [Fraction(v) for v in (1, 5, 7, 10)]


@pytest.mark.parametrize("s", CONTRACT_SWEEP, ids=str)
def test_a_certified_phi_is_within_ten_tol_of_the_exact_correction(s):
    # the route's error contract on _reference_system times s: either the
    # certificate passes and phi is within 10 * tol of the exact
    # correction relative to max(1, max|phi|), or the solve refuses with
    # QuadratureError; where some k + B_j is singular (s = -4, -16/5,
    # -12/5, -2, -8/5) the problem has no unique answer and the solve
    # refuses it with AssumptionError before any transport
    system, g = _scaled_reference(s)
    if not check_linear_assumption(system).passed:
        with pytest.raises(AssumptionError, match="singular"):
            solve_analytic(system, g)
        return
    try:
        result = solve_analytic(system, g)
    except QuadratureError:
        return
    certificate = result.y.certificate
    assert certificate.passed
    want = solve_polynomial(system, g).phi
    assert _phi_error(system, result.phi, want) <= 10 * certificate.tol


def _scaled_reference(s):
    """``_reference_system`` with every residue times s, and its g."""
    base = _reference_system()
    system = FuchsianSystem(base.poles, tuple(
        CMatrix.from_rows([[ExactComplex(s) * v for v in row]
                           for row in m.rows], True)
        for m in base.residues))
    g = VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(-1)),
         (ExactComplex(0), ExactComplex(2)),
         (ExactComplex(Fraction(1, 2)), ExactComplex(0))],
        exact=True, dim=2,
    )
    return system, g


def _phi_error(system, phi, want):
    """max |phi - want| over the coefficients, over max(1, max |want|)."""
    scale = max(1.0, max(abs(complex(v)) for row in want.coeffs
                         for v in row))
    return max(abs(complex(a) - complex(b))
               for i in range(system.s + 1)
               for a, b in zip(phi.coefficient(i), want.coefficient(i))
               ) / scale


def test_solve_and_eval_run_no_matrix_exponential(monkeypatch):
    # each path works in its own frame: no anchor K_0 and no t^B at
    # either end, so neither the solve nor eval calls expm (imported from
    # scipy.linalg where it is used)
    system, g = _scaled_reference(Fraction(1))
    reference = solve_polynomial(system, g)

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix exponential ran")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    monkeypatch.setattr(_Context, "anchor", refuse)
    result = solve_analytic(system, g)
    assert result.y.certificate.passed
    assert _phi_error(system, result.phi, reference.phi) <= 1e-12
    # 0.2 + 0.7j is continued from the basepoint, 1.03 takes pole 1's series
    for x in (0.2 + 0.7j, 1.03):
        want = [complex(v) for v in reference.y.eval(
            ExactComplex(Fraction(x.real), Fraction(x.imag)))]
        got = result.y.eval(x)
        size = max([1.0] + [abs(v) for v in want])
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * size


@pytest.mark.parametrize("s", [5, 7, 10])
def test_large_positive_residues_certify_accurately(s):
    # in each path's own frame M stays well conditioned as the residues
    # grow (measured errors 1.3e-15, 4.9e-15 and 8.5e-14)
    system, g = _scaled_reference(Fraction(s))
    result = solve_analytic(system, g)
    certificate = result.y.certificate
    assert certificate.passed
    assert 1.0 <= certificate.cond <= 1e3 * certificate.tol \
        / analytic.UNIT_ROUNDOFF
    want = solve_polynomial(system, g).phi
    assert _phi_error(system, result.phi, want) <= 1e-12


@pytest.mark.parametrize("s", [Fraction(-5), Fraction(-21, 4),
                               Fraction(-11, 2)])
def test_ill_conditioned_moment_system_is_refused(s):
    # cond(M) u is 1.3e-6, 3.1e-5 and 8.9e-6 here, above 1e3 * tol
    system, g = _scaled_reference(s)
    with pytest.raises(QuadratureError, match="too ill-conditioned"):
        solve_analytic(system, g)


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


# each maps one key to a path that is not a path to that target pole of
# _reference_system (poles -1, 1 and 1/2 + i)
BAD_PATHS = {
    "key-past-the-last-pole": {3: (-1.0, 1.0)},
    "key-of-the-basepoint": {0: (-1.0, 1.0)},
    "key-not-an-integer": {"1": (-1.0, 1.0)},
    "one-waypoint": {1: (-1.0,)},
    "start-off-pole-0": {1: (-1j, 1.0)},
    "end-off-every-pole": {1: (-1.0, 0.5 + 0.5j)},
    "end-at-another-pole": {1: PathSpec((-1.0, 0.5 + 1j))},
}


@pytest.mark.parametrize("case", sorted(BAD_PATHS))
def test_bad_path_raises_value_error_naming_its_key(case):
    system = _reference_system()
    g = VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(-1)),
         (ExactComplex(0), ExactComplex(2))],
        exact=True, dim=2,
    )
    paths = BAD_PATHS[case]
    named = re.escape(f"paths[{next(iter(paths))!r}]")
    with pytest.raises(ValueError, match=named):
        solve_analytic(system, g, paths=paths)
    with pytest.raises(ValueError, match=named):
        moments(system, paths=paths)
    with pytest.raises(ValueError, match=named):
        rhs_moment(system, g, paths=paths)


def test_repeated_end_waypoint_changes_nothing():
    system = _reference_system()
    g = VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(-1)),
         (ExactComplex(0), ExactComplex(2))],
        exact=True, dim=2,
    )
    p0, w, p1 = -1.0, -0.3 - 0.6j, 1.0
    plain = {1: (p0, w, p1)}
    want = solve_analytic(system, g, paths=plain)
    x = 0.4 + 0.3j
    for paths in ({1: (p0, p0, w, p1)}, {1: (p0, w, p1, p1)}):
        got = solve_analytic(system, g, paths=paths)
        assert got.phi.coeffs == want.phi.coeffs
        assert rhs_moment(system, g, paths=paths) \
            == rhs_moment(system, g, paths=plain)
        for a, b in zip(moments(system, paths=paths),
                        moments(system, paths=plain)):
            assert all(np.array_equal(m.to_numpy(), n.to_numpy())
                       for m, n in zip(a, b))
    assert want.y.eval(x, (p0, p0, w, x)) == want.y.eval(x, (p0, w, x))
    assert want.y.eval(x, (p0, w, x, x)) == want.y.eval(x, (p0, w, x))


def test_waypoint_within_an_end_tolerance_merges_into_it():
    # next to an end and within its tolerance (1e-12 at p_0, 1e-9 at the
    # target pole, 1e-12 at eval's x), a waypoint merges into that end
    system = _reference_system()
    g = VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(-1)),
         (ExactComplex(0), ExactComplex(2))],
        exact=True, dim=2,
    )
    p0, w, p1 = -1.0, -0.3 - 0.6j, 1.0
    want = solve_analytic(system, g, paths={1: (p0, w, p1)})
    for path in ((p0, p0 + 1e-13, w, p1), (p0, w, p1 - 1e-13, p1),
                 (p0, w, p1 + 5e-10j, p1)):
        got = solve_analytic(system, g, paths={1: path})
        for a, b in zip(got.phi.coeffs, want.phi.coeffs):
            for u, v in zip(a, b):
                assert abs(u - v) <= 1e-12 * max(1.0, abs(v)), path
    x = 0.4 + 0.3j
    plain = want.y.eval(x, (p0, w, x))
    for path in ((p0, p0 + 1e-13, w, x), (p0, w, x - 1e-13, x)):
        got = want.y.eval(x, path)
        assert max(abs(u - v) for u, v in zip(got, plain)) \
            <= 1e-12 * max(1.0, *map(abs, plain)), path


def ladder_system(rng, d, s, negative):
    """Exact system with upper triangular residues and poles at least 1
    apart; with ``negative`` one residue's spectrum is negative, so that
    pole's endpoint integrals are continued past the right half plane.
    Every k + B_inf is invertible."""
    poles = []
    while len(poles) < s + 2:
        c = Fraction(rng.randint(-6, 6), 2)
        if all(abs(c - p) >= 1 for p in poles):
            poles.append(c)
    low = rng.randrange(s + 2) if negative else None
    while True:
        mats = []
        for j in range(s + 2):
            rows = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                rows[i][i] = (-Fraction(4 * rng.randint(0, 2) + i + 1, 8)
                              if j == low else
                              Fraction(3 * rng.randint(1, 4) + i + 1, 6))
                for k in range(i + 1, d):
                    rows[i][k] = Fraction(rng.randint(-1, 1), 2)
            mats.append(rows)
        if all(sum(m[i][i] for m in mats).denominator != 1
               for i in range(d)):
            break
    return FuchsianSystem(
        tuple(ExactComplex(p) for p in poles),
        tuple(CMatrix.from_rows([[ExactComplex(v) for v in row]
                                 for row in m], True) for m in mats))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_eval_near_a_pole_matches_the_exact_solution(d):
    # 0.02 gap from a pole and at the pole itself, eval takes the pole's
    # local series; it must agree with the exact polynomial solution within
    # 1e-6 max(1, |y|)
    rng = random.Random(f"eval-near-pole-{d}")
    for s in range(3):
        for negative in (False, True):
            system = ladder_system(rng, d, s, negative)
            g = random_vecpoly(rng, d, rng.randint(s + 1, s + 4))
            y = solve_analytic(system, g).y
            least = min(ev.real for j in range(system.n_poles)
                        for ev in system.residue_spectrum(j))
            assert (least <= 0) == negative
            reference = solve_polynomial(system, g).y
            poles = [complex(p) for p in system.poles]
            series_at = []
            taylor_at_pole = y.taylor_at_pole
            y.taylor_at_pole = lambda j, order=30: (
                series_at.append(j) or taylor_at_pole(j, order))
            for j, p in enumerate(poles):
                gap = min(abs(p - q) for q in poles if q != p)
                near = p + 0.02 * gap * complex(math.cos(j + 0.7),
                                                math.sin(j + 0.7))
                for x in (near, p):
                    got = y.eval(x)
                    want = [complex(v) for v in reference.eval(
                        ExactComplex(Fraction(x.real), Fraction(x.imag)))]
                    size = max([1.0] + [abs(v) for v in want])
                    assert max(abs(a - b) for a, b in zip(got, want)) \
                        <= 1e-6 * size, (s, negative, j, x)
            assert series_at == [j for j in range(s + 2) for _ in range(2)]


def test_solve_analytic_follows_a_translation_and_a_scaling():
    # x = xi + nu moves the poles to p_j - nu (off the real axis), keeps
    # the residues and turns g(x) into g(xi + nu): phi is the old one
    # Taylor-shifted by nu and y(x) is the new solution at x - nu; eps g
    # gives eps phi and eps y.  Each within 10 tol of max(1, |old|).
    nu = ExactComplex(Fraction(3, 7), Fraction(-1, 5))
    eps = ExactComplex(Fraction(2, 3 * 10**6), Fraction(-1, 3 * 10**6))
    x, tol = 0.25 + 0.8j, 1e-10
    rng = random.Random("analytic-symmetry")
    for d in (1, 2, 3):
        for s in range(3):
            for negative in (False, True):
                system = ladder_system(rng, d, s, negative)
                g = random_vecpoly(rng, d, rng.randint(s + 1, s + 4))
                want = solve_analytic(system, g, tol)
                moved = solve_analytic(
                    FuchsianSystem(tuple(p - nu for p in system.poles),
                                   system.residues),
                    VecPoly.from_coeffs(g.taylor_at(nu), exact=True, dim=d),
                    tol)
                scaled = solve_analytic(system, g.scale(eps), tol)
                phi = want.phi.taylor_at(complex(nu))
                y = want.y.eval(x)
                for law, old, new in (
                        ("translated phi", phi, moved.phi.coeffs),
                        ("translated y", [y], [moved.y.eval(x - complex(nu))]),
                        ("scaled phi", want.phi.coeffs, [
                            [v / complex(eps) for v in c]
                            for c in scaled.phi.coeffs]),
                        ("scaled y", [y], [[v / complex(eps)
                                            for v in scaled.y.eval(x)]])):
                    assert len(old) == len(new), law
                    size = max([1.0] + [abs(v) for c in old for v in c])
                    err = max(abs(a - b) for ca, cb in zip(old, new)
                              for a, b in zip(ca, cb))
                    assert err <= 10 * tol * size, (d, s, negative, law)


def test_eval_rejects_a_path_that_ends_elsewhere():
    system = scalar_system(1, 1)
    y = solve_analytic(system, monomial_rhs(2)).y
    x = 0.3 + 0.5j
    want = y.eval(x)
    got = y.eval(x, (-1.0, -0.2 + 0.6j, x))
    assert abs(got[0] - want[0]) <= 1e-9 * max(1.0, abs(want[0]))
    with pytest.raises(ValueError, match="not at x"):
        y.eval(x, (-1.0, 1.1 + 0.7j))
    # the local-series branch near a pole checks the path too
    with pytest.raises(ValueError, match="not at x"):
        y.eval(1.01, PathSpec((-1.0, 0.5j, 1.02)))

"""Polynomial correction solver, local series, and the shift ladder."""

from __future__ import annotations

import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuchslin import correction
from fuchslin.analytic import float_system, float_vecpoly
from fuchslin.correction import (
    local_taylor,
    pull_back_correction,
    shift_up,
    solution_uniqueness_check,
    solve_polynomial,
)
from fuchslin.exact import ExactComplex
from fuchslin.matrices import (
    CMatrix,
    SingularMatrixError,
    SparseMatrix,
    first_failed_solve,
    solve_array,
)
from fuchslin.model import AssumptionError, FuchsianSystem, singular_shifts
from fuchslin.pnspace import (
    PnBasis,
    conjugation_matrix,
    _term_poly,
    _term_rows,
    devectorize,
    induced_system,
    vectorize,
)
from fuchslin.poly import MatPoly, VecPoly
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


def random_gaussian_system(rng, d, s, kind):
    """Exact system whose recursion runs in one of its three layouts.

    ``real``: real poles and residues, so a complex right-hand side is two
    real columns; ``complex-poles``: real residues at nonreal poles, so Q
    and QB are nonreal; ``complex``: nonreal poles and residues.  The
    residues are upper triangular with real parts of the diagonal in
    [1/2, 3], so no k + B_inf is singular on any block.
    """
    def entry(re_range, im_range):
        return ExactComplex(Fraction(rng.randint(*re_range), 2),
                            Fraction(rng.randint(*im_range), 3))

    poles = []
    while len(poles) < s + 2:
        c = entry((-6, 6), (0, 0) if kind == "real" else (-3, 3))
        if all(c != p for p in poles):
            poles.append(c)
    mats = []
    for _ in range(s + 2):
        rows = [[ExactComplex(0)] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = entry((1, 6), (-2, 2) if kind == "complex" else (0, 0))
            for j in range(i + 1, d):
                rows[i][j] = entry((-2, 2), (-2, 2) if kind == "complex"
                                   else (0, 0))
        mats.append(CMatrix.from_rows(rows, True))
    return FuchsianSystem(tuple(poles), tuple(mats))


def complex_vecpoly(rng, d, degree):
    return VecPoly.from_coeffs(
        [tuple(ExactComplex(Fraction(rng.randint(-5, 5), rng.choice([1, 2])),
                            Fraction(rng.randint(-3, 3), rng.choice([1, 3])))
               for _ in range(d)) for _ in range(degree)]
        + [(ExactComplex(1, 1),) * d], exact=True, dim=d)


@pytest.mark.parametrize("kind", ["real", "complex-poles", "complex"])
def test_exact_recursion_on_gaussian_rational_systems(kind):
    # the real recursion (two columns) and the 2N embedding against the
    # paper's Rodrigues expansion, with the cleared equation
    # Q y' + (QB) y = g - phi checked exactly
    rng = random.Random(f"gaussian-{kind}")
    for _ in range(12):
        system = random_gaussian_system(rng, rng.randint(1, 3),
                                        rng.randint(0, 2), kind)
        s = system.s
        g = complex_vecpoly(rng, system.size, rng.randint(s + 1, s + 4))
        coeffs = RodriguesFamily(shifted_system(system)).expand(g)
        base = RodriguesFamily(system)
        y = VecPoly.zero(system.size, True)
        for n in range(s + 1, len(coeffs)):
            y = y + base.member_times_vector(n - s - 1, coeffs[n])
        assert correction._exact_operators(system)[0].embedded \
            == (kind != "real")
        result = solve_polynomial(system, g)
        phi = VecPoly.from_coeffs(coeffs[: s + 1], True, dim=system.size)
        assert (result.phi - phi).is_zero()
        assert (result.y - y).is_zero()
        assert cleared_residual(system, g, result.phi, result.y).is_zero()
        assert result.y.degree == g.degree - s - 1


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_exact_split_rhs_with_zero_top_degrees(kind):
    # integer rows of a right-hand side whose numerators end in zeros, over
    # a denominator six times too large: (phi, y) are those of the trimmed
    # g, and come back as canonical rows, trimmed and reduced
    rng = random.Random(f"zero-tops-{kind}")
    for _ in range(4):
        system = random_gaussian_system(rng, rng.randint(1, 2),
                                        rng.randint(0, 1), kind)
        g = complex_vecpoly(rng, system.size, system.s + rng.randint(1, 3))
        padded = [None if row is None else (
            6 * row[0], *(part and tuple(6 * v for v in part) + (0, 0)
                          for part in row[1:]))
            for row in _term_rows(g, True)]
        want = solve_polynomial(system, g)
        got = solve_polynomial(system, padded)
        assert max(len(row[1]) for row in got.y if row) \
            == len(want.y.coeffs)
        assert _term_poly(got.phi, True).coeffs == want.phi.coeffs
        assert _term_poly(got.y, True).coeffs == want.y.coeffs
        assert got.phi == list(_term_rows(want.phi, True))
        assert got.y == list(_term_rows(want.y, True))


def block_residual(system, block, basis, g, phi, y):
    """Q y' + (QB)_block y - (g - phi) for an induced block, with its QB
    from the dense conjugation matrices of the system's QB coefficients
    and of B_inf (the x^(S+1) coefficient)."""
    qb = system.qb_poly()
    dense = MatPoly.from_coeffs(
        [conjugation_matrix(qb.coefficient(i), basis)
         for i in range(system.s + 1)]
        + [conjugation_matrix(system.b_infinity(), basis)], True)
    lhs = y.derivative().mul_sp(block.q_poly()) + dense.mul_vec(y)
    return lhs - (g - phi)


@pytest.mark.parametrize("kind", ["real", "complex-poles", "complex"])
def test_exact_recursion_on_gaussian_rational_blocks(kind):
    # the same on induced blocks, where J_{B_inf} and QB are sparse: the
    # identity holds exactly, the row form (one integer row over one
    # positive denominator per component) gives what the VecPoly form
    # gives, and the float recursion agrees
    rng = random.Random(f"gaussian-block-{kind}")
    solved = 0
    while solved < 6:
        system = random_gaussian_system(rng, rng.randint(1, 3),
                                        rng.randint(0, 1), kind)
        block, basis = induced_system(system, rng.randint(2, 3))
        if correction._singular_ks(
                block, "inf", 1e-12, correction._exact_operators(block)[0]):
            continue    # a value <lambda, m> - lambda_i is a negative int
        solved += 1
        assert correction._exact_operators(block)[0].embedded \
            == (kind != "real")
        g = complex_vecpoly(rng, block.size, rng.randint(1, 4) + block.s)
        result = solve_polynomial(block, g)
        assert block_residual(system, block, basis, g, result.phi,
                              result.y).is_zero()
        split = solve_polynomial(block, _term_rows(g, True))
        for part in (split.phi, split.y):
            assert len(part) == block.size
            live = [row for row in part if row is not None]
            assert all(type(d) is int and d > 0 for d, _, _ in live)
            assert all(type(v) is int and (im is None or len(im) == len(re))
                       for _, re, im in live for v in re + (im or ()))
        assert _term_poly(split.phi, True).coeffs == result.phi.coeffs
        assert _term_poly(split.y, True).coeffs == result.y.coeffs
        float_block, _ = induced_system(float_system(system), basis.n)
        got = solve_polynomial(float_block, float_vecpoly(g))
        scale = max(1.0, float_vecpoly(result.y).max_abs(),
                    float_vecpoly(g).max_abs())
        assert (got.y - float_vecpoly(result.y)).max_abs() <= 1e-10 * scale


_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
                 "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
                 "__abs__")


def test_exact_block_solve_does_fraction_arithmetic_only_in_the_elimination(
        monkeypatch):
    # induced_system -> vectorize -> solve_polynomial -> devectorize on the
    # store rows of a Gaussian-rational block (the 2N embedding) and of a
    # real one, each with a complex right-hand side: with the system's
    # set-up cached (QB's coefficients and the spectrum at infinity, as
    # the assumption checks leave them), every Fraction operation of the
    # block's construction and solve is made inside SparseMatrix.solve,
    # the elimination of k + J, and the integer rows read what the VecPoly
    # form gives
    rng = random.Random("integer-rows")
    exact_solve = SparseMatrix.solve
    calls, solves, depth = [], [], [0]

    def eliminating(self, cols, shift=0):
        solves.append(shift)
        depth[0] += 1
        try:
            return exact_solve(self, cols, shift)
        finally:
            depth[0] -= 1

    def counted(name, op):
        def wrapper(*args):
            if not depth[0]:
                calls.append(name)
            return op(*args)
        return wrapper

    for kind in ("complex", "real"):
        system = random_gaussian_system(rng, 2, 1, kind)
        system.qb_coefficients()
        system.residue_spectrum("inf")
        block, basis = induced_system(system, 3)
        assert correction._exact_operators(block)[0].embedded \
            == (kind == "complex")
        g = complex_vecpoly(rng, block.size, block.s + 3)
        rows = devectorize(_term_rows(g, True), basis, exact=True)
        want = solve_polynomial(block, g)
        solves.clear()
        with monkeypatch.context() as patch:
            patch.setattr(SparseMatrix, "solve", eliminating)
            for name in _FRACTION_OPS:
                patch.setattr(Fraction, name,
                              counted(name, getattr(Fraction, name)))
            Fraction(1, 2) + Fraction(1, 3)   # the counter counts
            assert calls == ["__add__"]
            calls.clear()
            block, _ = induced_system(system, 3)
            result = solve_polynomial(block, vectorize(rows, basis, True))
            phi, y = (devectorize(part, basis, True)
                      for part in (result.phi, result.y))
            assert calls == []
        assert solves == list(range(g.degree - block.s - 1, -1, -1))
        for got, part in ((phi, want.phi), (y, want.y)):
            assert _term_poly(vectorize(got, basis, True), True).coeffs \
                == part.coeffs


_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_gaussian = st.builds(ExactComplex, _fraction,
                      st.one_of(st.just(Fraction(0)), _fraction))


@st.composite
def _gaussian_block_problems(draw):
    """A Gaussian-rational system (d <= 2, S <= 1), its order-n block
    (n = 2, 3) in a shuffled basis and a right-hand side of degree
    S + 1 .. S + 3."""
    d, s = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    poles = draw(st.lists(_gaussian, min_size=s + 2, max_size=s + 2,
                          unique=True))
    residues = [CMatrix.from_rows([[draw(_gaussian) for _ in range(d)]
                                   for _ in range(d)], True)
                for _ in range(s + 2)]
    n = draw(st.integers(2, 3))
    order = draw(st.permutations(PnBasis(d, n).items))
    degree = draw(st.integers(s + 1, s + 3))
    size = len(order)
    g = VecPoly.from_coeffs([[draw(_gaussian) for _ in range(size)]
                             for _ in range(degree + 1)], True, dim=size)
    return FuchsianSystem(poles, residues), n, order, g


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(problem=_gaussian_block_problems())
def test_exact_block_recursion_properties(problem):
    # on Gaussian-rational blocks in any basis order: the exact (phi, y)
    # satisfy the cleared identity exactly, the float recursion agrees
    # within 1e-10 relative, and the store rows of g and of the solution
    # come through vectorize / devectorize unchanged, the same in the
    # shuffled basis as in the canonical one
    system, n, order, g = problem
    basis = PnBasis(system.size, n, order)
    block, _ = induced_system(system, n, basis)
    assume(not correction._singular_ks(
        block, "inf", 1e-12, correction._exact_operators(block)[0]))
    result = solve_polynomial(block, g)
    assert block_residual(system, block, basis, g, result.phi,
                          result.y).is_zero()

    float_block, _ = induced_system(float_system(system), n, basis)
    got = solve_polynomial(float_block, float_vecpoly(g))
    for part, want in ((got.phi, result.phi), (got.y, result.y)):
        want = float_vecpoly(want)
        scale = max(1.0, want.max_abs(), float_vecpoly(g).max_abs())
        assert (part - want).max_abs() <= 1e-10 * scale

    canonical = PnBasis(system.size, n)
    rows = devectorize(_term_rows(g, True), basis, exact=True)
    assert devectorize(vectorize(rows, basis, True), basis, True) == rows
    plain, _ = induced_system(system, n, canonical)
    other = solve_polynomial(plain, vectorize(rows, canonical, True))
    for shuffled, canon in ((result.phi, other.phi), (result.y, other.y)):
        back = devectorize(_term_rows(shuffled, True), basis, True)
        assert back == devectorize(canon, canonical, True)
        assert devectorize(vectorize(back, basis, True), basis, True) == back


def test_exact_recursion_singular_shift_raises():
    # B_inf = [[-2, i], [0, 1 + i]] is singular at k = 2, both through the
    # shift check and, with that check reporting nothing, inside the
    # recursion's own elimination
    half_i = ExactComplex(0, Fraction(1, 2))
    residue = CMatrix.from_rows(
        [[ExactComplex(-1), half_i],
         [ExactComplex(0), ExactComplex(Fraction(1, 2), Fraction(1, 2))]],
        True)
    system = FuchsianSystem((ExactComplex(0, 1), ExactComplex(1)),
                            (residue, residue))
    g = VecPoly.from_coeffs(
        [(ExactComplex(0), ExactComplex(0))] * 3
        + [(ExactComplex(1), ExactComplex(0, 2))] * 2, True, dim=2)
    with pytest.raises(AssumptionError, match=re.escape(
            "k + B_inf singular at k=2")):
        solve_polynomial(system, g)
    # on the degree-2 block J_{B_inf} has the value 2 (-2) - (-2) = -2
    block, _ = induced_system(system, 2)
    with pytest.raises(AssumptionError, match=re.escape(
            "k + B_inf singular at k=2")):
        solve_polynomial(block, complex_vecpoly(random.Random(5),
                                                block.size, 4))
    unchecked = pytest.MonkeyPatch()
    unchecked.setattr(correction, "singular_shifts",
                      lambda mat, values, tol: [np.zeros(0, bool)] * 3)
    try:
        with pytest.raises(AssumptionError, match=re.escape(
                "k + B_inf singular at k=2: exact pivot vanished")):
            solve_polynomial(system, g)
    finally:
        unchecked.undo()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_uniqueness_check_on_blocks_names_the_shift_the_solve_raises_on(
        exact):
    # solution_uniqueness_check and solve_polynomial read one shift test
    # off the block's top coefficient J_{B_inf}: the check returns True
    # where the solve runs, and otherwise warns with the k the solve
    # raises on
    rng = random.Random(f"unique-{exact}")
    half_i = ExactComplex(0, Fraction(1, 2))
    residue = CMatrix.from_rows(
        [[ExactComplex(-1), half_i],
         [ExactComplex(0), ExactComplex(Fraction(1, 2), Fraction(1, 2))]],
        True)
    systems = [FuchsianSystem((ExactComplex(0, 1), ExactComplex(1)),
                              (residue, residue))]
    systems += [random_gaussian_system(rng, rng.randint(1, 3),
                                       rng.randint(0, 1), kind)
                for kind in ("real", "complex") for _ in range(4)]
    verdicts = []
    for system in systems:
        if not exact:
            system = float_system(system)
        block, _ = induced_system(system, rng.randint(2, 3))
        g = complex_vecpoly(rng, block.size, block.s + 4)
        if not exact:
            g = float_vecpoly(g)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verdict = solution_uniqueness_check(block)
        verdicts.append(verdict)
        if verdict:
            assert not caught
            solve_polynomial(block, g)
            continue
        assert verdict is None and len(caught) == 1
        k = re.search(r"singular at k=(\d+)$", str(caught[0].message))[1]
        with pytest.raises(AssumptionError, match=re.escape(
                f"k + B_inf singular at k={k}: (phi, y) not unique")):
            solve_polynomial(block, g)
    assert True in verdicts and None in verdicts


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
    k, margin, singular = singular_shifts(
        system.b_infinity(), system.residue_spectrum("inf"), 1e-12)
    assert (k.tolist(), margin.tolist(), singular.tolist()) \
        == ([2], [pytest.approx(1e-10, rel=1e-4)], [False])
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
    assert not singular_shifts(block.qb_coefficients()[-1],
                               block.residue_spectrum("inf"), 1e-12)[2].any()
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
    # an induced block's rows reach the float solve as an (N, deg + 1)
    # array of store rows: phi and y must come out bit for bit as from the
    # VecPoly, with the same top coefficients dropped; here the top
    # coefficient's entries are 0, tol or -tol / 2, and both forms drop it
    # only when it is exactly zero: a coefficient of size tol is a term
    rng = random.Random(23)
    tol = 1e-12
    for _ in range(8):
        system = float_system(random_positive_system(rng, d_max=3))
        block, _ = induced_system(system, rng.randint(2, 3))
        g = float_vecpoly(random_vecpoly(rng, block.size,
                                         rng.randint(1, 5) + block.s))
        small = tuple(complex(rng.choice([0.0, tol, -tol / 2]), 0.0)
                      for _ in range(block.size))
        coeffs = np.array(g.coeffs + (small,), complex)
        want = solve_polynomial(block, VecPoly.from_coeffs(
            coeffs.tolist(), False, dim=block.size), tol)
        got = solve_polynomial(block, coeffs.T, tol)
        for rows, poly in ((got.phi, want.phi), (got.y, want.y)):
            assert rows.shape[0] == block.size
            expect = np.array(poly.coeffs, complex).reshape(-1, block.size)
            assert rows.T[:len(expect)].tobytes() == expect.tobytes()
            assert not rows.T[len(expect):].any()
        assert got.y.shape[1] == g.degree + any(small) - block.s
        # a non-finite coefficient y reads is a numeric failure in both forms
        coeffs[-2, -1] = complex("inf")
        for form in (coeffs.T, VecPoly.from_coeffs(coeffs.tolist(), False,
                                                   dim=block.size)):
            with pytest.raises(ArithmeticError, match="non-finite"):
                solve_polynomial(block, form, tol)


def test_float_solve_array_overflow_raises_singular_matrix_error():
    # the solution overflows to inf; the residual then reads inf or nan,
    # which must raise SingularMatrixError, not numpy's RuntimeWarning
    # (an error under the suite's warning filter)
    with pytest.raises(SingularMatrixError, match="solve residual"):
        solve_array(np.array([[1e-10]], complex), np.array([1e300], complex))


def test_first_failed_solve_reports_the_first_failure_in_the_order_given():
    # (2 + k) x = rhs for k = 0 .. 3: a wrong x at k = 1 fails its
    # residual and the right-hand side at k = 3 is not finite, so the
    # ascending order meets k = 1 first and the descending order k = 3
    mat = np.array([[2.0 + 0j]])
    rhs = np.array([[1], [1], [1], [np.inf]], complex)
    xs = np.array([[1 / 2], [5], [1 / 4], [np.inf]], complex)
    k, error = first_failed_solve(mat, [0, 1, 2, 3], xs, rhs)
    assert k == 1 and isinstance(error, SingularMatrixError)
    assert str(error) == ("solve residual 1.400e+01 exceeds tolerance "
                          "(near-singular matrix)")
    k, error = first_failed_solve(mat, [3, 2, 1, 0], xs[::-1], rhs[::-1])
    assert k == 3 and isinstance(error, ArithmeticError)
    assert first_failed_solve(mat, [0, 2], xs[[0, 2]], rhs[[0, 2]]) is None
    # one solution short: the solve at the last k raised LinAlgError, which
    # fails there unless a solve before it fails, or its own right-hand
    # side is not finite
    k, error = first_failed_solve(mat, [2, 0], xs[[2]], rhs[[2, 0]])
    assert k == 0 and str(error) == "Singular matrix"
    k, error = first_failed_solve(mat, [1, 3], xs[[1]], rhs[[1, 3]])
    assert k == 1 and isinstance(error, SingularMatrixError)
    k, error = first_failed_solve(mat, [0, 3], xs[[0]], rhs[[0, 3]])
    assert k == 3 and isinstance(error, ArithmeticError)


def test_single_solve_keeps_the_stacked_rule():
    # one solve keeps the stacked rule: for each case the verdict on k
    # alone equals the stacked one on the same solve taken twice, and a
    # near-singular solve through solve_array is refused
    mat = np.array([[2.0 + 1j, 0.5], [0.25, -1j]])
    big = np.array([[1e10, 0], [0, 1]], complex)
    good = np.linalg.solve(mat + 3 * np.eye(2), [1, 2j])
    cases = [(mat, 3, [good], [1, 2j]),            # accepted
             (mat, 3, [good * 1.1], [1, 2j]),      # residual too large
             (mat, 0, [good], [np.inf, 1]),        # non-finite right side
             (mat, 1, [], [1, 1]),                 # LinAlgError: no x
             (mat, 2, [[np.inf, 0]], [1, 1]),      # x overflowed
             (mat, 0, [[np.nan, 1]], [1, 1]),      # nan bound and residual
             (big, 0, [[1e300, 0]], [1, 1])]       # inf residual, inf bound
    verdicts = []
    for mat, k, xs, rhs in cases:
        xs = np.array(xs, complex).reshape(-1, 2)
        rhs = np.array([rhs], complex)
        one = first_failed_solve(mat, [k], xs, rhs)
        two = first_failed_solve(mat, [k, k], np.concatenate([xs, xs]),
                                 np.concatenate([rhs, rhs]))
        assert (one is None) == (two is None)
        if one is not None:
            assert one[0] == two[0] == k
            assert type(one[1]) is type(two[1])
            assert str(one[1]) == str(two[1])
        verdicts.append(None if one is None else type(one[1]).__name__)
    assert verdicts == [None, "SingularMatrixError", "ArithmeticError",
                        "SingularMatrixError", "SingularMatrixError",
                        "SingularMatrixError", "SingularMatrixError"]
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -40]], complex)
    with pytest.raises(SingularMatrixError, match="solve residual"):
        solve_array(near, np.array([0, 1e300], complex))


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
        if not any(singular_shifts(system.residues[j],
                                   system.residue_spectrum(j), 0.0)[2].any()
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


# x = xi + NU moves the poles to p_j - NU, keeps the residues and turns
# g(x) into g(xi + NU); EPS scales the right-hand side
NU = ExactComplex(Fraction(3, 7), Fraction(-1, 5))
EPS = ExactComplex(Fraction(2, 3 * 10**6), Fraction(-1, 3 * 10**6))


def translated(system, g):
    """The system and right-hand side in xi = x - NU."""
    return (FuchsianSystem(tuple(p - NU for p in system.poles),
                           system.residues), shifted_by_nu(g))


def shifted_by_nu(p):
    return VecPoly.from_coeffs(p.taylor_at(NU), exact=True, dim=p.dim)


def test_solve_polynomial_follows_a_translation_and_a_scaling():
    # by uniqueness phi and y are the old ones Taylor-shifted by NU, and
    # EPS g gives EPS phi and EPS y, exactly
    rng = random.Random(43)
    draws = 0
    while draws < 20:
        system = random_full_system(rng)
        if singular_shifts(system.residue_matrix("inf"),
                           system.residue_spectrum("inf"), 0.0)[2].any():
            continue
        draws += 1
        g = complex_vecpoly(rng, system.size, rng.randint(0, system.s + 4))
        want = solve_polynomial(system, g)
        got = solve_polynomial(*translated(system, g))
        assert got.phi.coeffs == shifted_by_nu(want.phi).coeffs
        assert got.y.coeffs == shifted_by_nu(want.y).coeffs
        got = solve_polynomial(system, g.scale(EPS))
        assert got.phi.coeffs == want.phi.scale(EPS).coeffs
        assert got.y.coeffs == want.y.scale(EPS).coeffs


# x = MU xi moves the poles to p_j / MU and keeps the residues
MU = ExactComplex(Fraction(5, 3), Fraction(-1, 2))


def dilated_by_mu(p, factor):
    """factor * p(MU xi) as a polynomial in xi."""
    return VecPoly.from_coeffs(
        [tuple(v * factor * MU ** k for v in c)
         for k, c in enumerate(p.coeffs)], exact=True, dim=p.dim)


def test_solve_polynomial_follows_a_dilation():
    # Q(MU xi) = MU^(S+2) Q~(xi) and (QB)(MU xi) = MU^(S+1) (Q~B~)(xi), so
    # Q y' + (QB) y = g - phi in x is MU^(S+1) times the same equation in
    # xi for y~(xi) = y(MU xi) and g~(xi) = MU^-(S+1) g(MU xi); by
    # uniqueness phi~(xi) = MU^-(S+1) phi(MU xi), exactly
    rng = random.Random(53)
    draws = 0
    while draws < 20:
        system = random_full_system(rng)
        if singular_shifts(system.residue_matrix("inf"),
                           system.residue_spectrum("inf"), 0.0)[2].any():
            continue
        draws += 1
        g = complex_vecpoly(rng, system.size, rng.randint(0, system.s + 4))
        shrink = ExactComplex(1) / MU ** (system.s + 1)
        want = solve_polynomial(system, g)
        got = solve_polynomial(
            FuchsianSystem(tuple(p / MU for p in system.poles),
                           system.residues), dilated_by_mu(g, shrink))
        assert got.phi.coeffs == dilated_by_mu(want.phi, shrink).coeffs
        assert got.y.coeffs == dilated_by_mu(want.y, ExactComplex(1)).coeffs

def test_local_taylor_follows_a_translation_and_a_scaling():
    # the series at p_j - NU of the translated problem has the old
    # coefficients, and EPS g scales them by EPS: exactly in exact mode,
    # and in float mode within 1e-12 of exact, scaled by the gap to the
    # nearest other pole as in test_local_taylor_float_matches_exact
    rng = random.Random(47)
    order, eps = 8, complex(EPS)
    for _ in range(20):
        system = random_full_system(rng)
        g = complex_vecpoly(rng, system.size, rng.randint(0, system.s + 3))
        moved, moved_g = translated(system, g)
        for j, center in enumerate(system.poles):
            want = local_taylor(system, j, g, order).coefficients
            assert local_taylor(moved, j, moved_g, order).coefficients == want
            assert local_taylor(system, j, g.scale(EPS), order).coefficients \
                == [tuple(EPS * v for v in c) for c in want]
            gap = min(abs(complex(center - p)) for p in system.poles
                      if p != center)
            want = [[complex(v) for v in c] for c in want]
            scale = max([1.0] + [gap ** k * abs(v)
                                 for k, c in enumerate(want) for v in c])
            for got in (
                    local_taylor(float_system(moved), j,
                                 float_vecpoly(moved_g), order).coefficients,
                    [[v / eps for v in c] for c in local_taylor(
                        float_system(system), j,
                        float_vecpoly(g).scale(eps), order).coefficients]):
                err = max(gap ** k * abs(a - b)
                          for k, (ca, cb) in enumerate(zip(got, want))
                          for a, b in zip(ca, cb))
                assert err <= 1e-12 * scale, (j, err / scale)


def exact_system(poles, residues):
    """Exact system from (re, im) pairs: poles, and rows of residues."""
    def z(v):
        return ExactComplex(*map(Fraction, v))
    return FuchsianSystem(
        tuple(map(z, poles)),
        tuple(CMatrix.from_rows([[z(v) for v in row] for row in rows], True)
              for rows in residues))


def test_local_taylor_exact_runs_on_the_sparse_elimination(monkeypatch):
    # a nonreal pole and dense Gaussian-rational residues put the exact
    # series in the real 2N embedding: each k is one SparseMatrix.solve,
    # no generic solve runs, and the series solves the cleared equation
    # exactly through t^order
    system = exact_system(
        [("1/2", "1/2"), (-1, 0), (2, 0)],
        [[[(1, "1/2"), ("1/3", 0)], [("-1/2", 0), ("3/2", -1)]],
         [[(2, 0), (0, 1)], [("1/2", 0), (1, 0)]],
         [[("1/2", 0), (-1, "1/3")], [("1/4", 0), ("5/2", 0)]]])
    g = complex_vecpoly(random.Random(3), 2, 3)
    order = 8
    assert correction._exact_operators(system, 0)[0].embedded

    def refuse(*args, **kwargs):
        raise AssertionError("solve_linear called")

    solves, exact_solve = [], SparseMatrix.solve

    def counted(self, cols, shift=0):
        solves.append(shift)
        return exact_solve(self, cols, shift)

    monkeypatch.setattr(correction, "solve_linear", refuse)
    monkeypatch.setattr(SparseMatrix, "solve", counted)
    sol = local_taylor(system, 0, g, order)
    assert solves == list(range(order + 1))
    center = system.poles[0]
    y = VecPoly.from_coeffs(sol.coefficients, exact=True, dim=2)
    y = VecPoly.from_coeffs(y.taylor_at(-center), exact=True, dim=2)
    resid = cleared_residual(system, g, VecPoly.zero(2, exact=True), y)
    assert all(not v for c in resid.taylor_at(center)[: order + 1] for v in c)


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
    # solution analytic at -1, while one through t^1 still does; the same
    # for the nonreal B_0 with eigenvalues -2 and 1/2 + i.  Both rings
    # refuse before any solve, with one message.
    scalar = (scalar_system(-2, Fraction(1, 2)),
              VecPoly.from_coeffs([(ExactComplex(1),), (ExactComplex(3),)],
                                  exact=True))
    nonreal = (exact_system(
        [(-1, 0), (1, 0)],
        [[[(-2, 0), (0, 1)], [(0, 0), ("1/2", 1)]],
         [[("1/2", 0), (0, 0)], [(1, 0), (1, 1)]]]),
        complex_vecpoly(random.Random(5), 2, 2))
    for system, g in (scalar, nonreal):
        messages = []
        for sys_, rhs in ((system, g),
                          (float_system(system), float_vecpoly(g))):
            with pytest.raises(AssumptionError, match="k=2") as err:
                local_taylor(sys_, 0, rhs, order=5)
            messages.append(str(err.value))
            assert len(local_taylor(sys_, 0, rhs, order=1).coefficients) == 2
            assert len(local_taylor(sys_, 1, rhs, order=5).coefficients) == 6
        assert messages == ["k + B_0 singular at k=2"] * 2


def test_local_taylor_float_rejects_non_finite_rhs():
    system = float_system(scalar_system(1, 1))
    rhs = VecPoly.from_coeffs([(1 + 0j,), (complex("inf"),)], exact=False)
    with pytest.raises(ArithmeticError, match="non-finite"):
        local_taylor(system, 0, rhs, order=4)


def test_local_taylor_float_refuses_the_first_failing_shift():
    # B_0 = -2 + 1e-10 has float margin 1e-10 at k = 2, above tol, and the
    # solve there turns 1e300 into inf: that shift is refused, not the
    # non-finite right-hand sides the overflow then leaves at k > 2
    system, g = float_problem((-1, 1), ([[-2 + 1e-10]], [[0.5]]),
                              [(0,), (0,), (1e300,)])
    with pytest.raises(AssumptionError, match=re.escape(
            "k + B_0 singular at k=2: solve residual inf exceeds tolerance "
            "(near-singular matrix)")):
        local_taylor(system, 0, g, 4)


# B = [[-2, 1], [-1, 0]] is a Jordan block at -1 whose float eigenvalues
# are -1 +- 1.5e-8i: the float shift test passes k = 1, and LAPACK's exact
# zero pivot in 1 + B then ends the solve there
JORDAN = ([[-2.0, 1.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])


def test_float_jordan_block_stops_at_lapacks_zero_pivot():
    system, g = float_problem((-1, 1), JORDAN, [(1, 0), (0, 1), (1, 1)])
    for label in ("inf", 0):
        k, _, singular = singular_shifts(
            None, system.residue_spectrum(label), 1e-12)
        assert (k.tolist(), singular.tolist()) == ([1, 1], [False, False])
    with pytest.raises(AssumptionError) as err:
        solve_polynomial(system, g)
    assert str(err.value) == "k + B_inf singular at k=1: Singular matrix"
    with pytest.raises(AssumptionError) as err:
        local_taylor(system, 0, g, 3)
    assert str(err.value) == "k + B_0 singular at k=1: Singular matrix"


# ----------------------------------------------------------------------
# the shift ladder
# ----------------------------------------------------------------------


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_shift_up_refuses_a_singular_residue(exact):
    system = scalar_system(0, 1)
    g = VecPoly.from_coeffs([(ExactComplex(1),)], exact=True)
    reason = "exact pivot vanished after 0 pivots"
    if not exact:
        system, g, reason = float_system(system), float_vecpoly(g), \
            "Singular matrix"
    with pytest.raises(AssumptionError) as err:
        shift_up(system, g)
    assert str(err.value) \
        == f"residue B_0 singular; ladder step undefined: {reason}"


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_shift_up_refuses_a_right_hand_side_of_the_wrong_dimension(exact):
    system = scalar_system(1, 1)
    g = VecPoly.from_coeffs([(ExactComplex(1), ExactComplex(2))],
                            exact=True)
    if not exact:
        system, g = float_system(system), float_vecpoly(g)
    with pytest.raises(ValueError, match="right-hand side dimension"):
        shift_up(system, g)


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

"""Iterated-operator polynomial family against independent symbolic oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp

from fuchslin.analytic import float_system, float_vecpoly
from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix
from fuchslin.model import FuchsianSystem
from fuchslin.poly import VecPoly
from fuchslin.rodrigues import RodriguesFamily, shifted_system

X = sp.Symbol("x")


def scalar_system(bs, poles=None):
    k = len(bs)
    if poles is None:
        poles = [-1, 1, 3, -3][:k]
    return FuchsianSystem(
        tuple(ExactComplex.parse(p) for p in poles),
        tuple(CMatrix.from_rows([[ExactComplex.parse(b)]], True) for b in bs),
    )


def member_sympy_coeffs(family, n):
    """Exact sympy row of coefficients (ascending) of the scalar member."""
    p = family.member(n)
    out = []
    for k in range(p.degree + 1):
        v = p.coefficient(k).entry(0, 0)
        out.append(sp.Rational(v.re.numerator, v.re.denominator))
    return out


def rodrigues_symbolic(bs, poles, n):
    """W^{-1} d^m [x^i Q^m W] computed by sympy, coefficients ascending.

    Uses d[g W] = (g' + g W'/W) W so everything stays in exact
    rational-function arithmetic; no fractional powers ever appear.
    """
    s = len(bs) - 2
    m, i = divmod(n, s + 1)
    logd = sum(sp.Rational(b) / (X - sp.Rational(p))
               for b, p in zip(bs, poles))
    q = sp.Integer(1)
    for p in poles:
        q *= X - sp.Rational(p)
    f = X**i * q**m
    for _ in range(m):
        f = sp.cancel(sp.diff(f, X) + logd * f)
    poly = sp.Poly(sp.expand(f), X)
    return list(reversed(poly.all_coeffs()))


def test_frozen_scalar_oracle():
    family = RodriguesFamily(scalar_system([1, 1]))
    p1 = family.member(1)
    assert p1.degree == 1
    assert p1.coefficient(1).entry(0, 0) == ExactComplex(4)
    assert p1.coefficient(0).entry(0, 0) == ExactComplex(0)
    p2 = family.member(2)
    assert p2.coefficient(2).entry(0, 0) == ExactComplex(30)
    assert p2.coefficient(0).entry(0, 0) == ExactComplex(-6)
    assert family.leading_coeff(1).entry(0, 0) == ExactComplex(4)
    assert family.leading_coeff(2).entry(0, 0) == ExactComplex(30)


def test_symbolic_derivative_oracle_two_poles():
    rng = random.Random(42)
    for _ in range(6):
        bs = [Fraction(rng.randint(1, 7), rng.choice([1, 2, 3]))
              for _ in range(2)]
        family = RodriguesFamily(scalar_system(bs))
        for n in range(0, 5):
            mine = member_sympy_coeffs(family, n)
            ref = rodrigues_symbolic(bs, [-1, 1], n)
            assert mine == ref, (bs, n, mine, ref)


def test_symbolic_derivative_oracle_three_poles():
    # S = 1: members interleave i = 0 and i = 1 seeds
    rng = random.Random(43)
    for _ in range(4):
        bs = [Fraction(rng.randint(1, 5), rng.choice([1, 2]))
              for _ in range(3)]
        poles = [-1, 1, 2]
        family = RodriguesFamily(scalar_system(bs, poles))
        for n in range(0, 6):
            mine = member_sympy_coeffs(family, n)
            ref = rodrigues_symbolic(bs, poles, n)
            assert mine == ref, (bs, n)


def test_classical_jacobi_match():
    """Two-pole scalar members are classical Jacobi polynomials (monic)."""
    rng = random.Random(44)
    for _ in range(5):
        b0 = Fraction(rng.randint(1, 6), rng.choice([1, 2]))
        b1 = Fraction(rng.randint(1, 6), rng.choice([1, 2]))
        family = RodriguesFamily(scalar_system([b0, b1]))
        # weight (x+1)^b0 (x-1)^b1 against Jacobi weight (1-x)^a (1+x)^b:
        # exponents pair as a = b1, b = b0 (shifted by the classical -1/2
        # free choice is absent here: the factors match directly)
        a = sp.Rational(b1)
        b = sp.Rational(b0)
        for n in range(1, 5):
            mine = member_sympy_coeffs(family, n)
            mine_poly = sum(c * X**k for k, c in enumerate(mine))
            mine_monic = sp.expand(mine_poly / mine[-1])
            jac = sp.expand(sp.jacobi(n, a, b, X))
            jac_monic = sp.expand(jac / sp.LC(sp.Poly(jac, X)))
            assert sp.expand(mine_monic - jac_monic) == 0, (b0, b1, n)


def test_matrix_chain_against_sympy_matrices():
    """Re-run the operator chain in sympy matrix arithmetic and compare."""
    rng = random.Random(45)
    for _ in range(3):
        rows0 = [[sp.Rational(rng.randint(1, 4), rng.choice([1, 2])),
                  sp.Rational(rng.randint(-2, 2))],
                 [sp.Integer(0),
                  sp.Rational(rng.randint(1, 4), rng.choice([1, 2]))]]
        rows1 = [[sp.Rational(rng.randint(1, 4)), sp.Integer(0)],
                 [sp.Rational(rng.randint(-2, 2), 3),
                  sp.Rational(rng.randint(1, 4))]]
        b0 = sp.Matrix(rows0)
        b1 = sp.Matrix(rows1)
        q = sp.expand((X + 1) * (X - 1))
        qb = sp.expand((X - 1) * b0 + (X + 1) * b1)

        def op(k, mat_poly):
            return sp.expand(
                k * sp.diff(q, X) * mat_poly
                + qb * mat_poly
                + q * sp.diff(mat_poly, X)
            )

        def chain(n):
            m, i = divmod(n, 1)
            cur = X**i * sp.eye(2)
            for k in range(m, 0, -1):
                cur = op(k, cur)
            return cur

        def to_exact(rat):
            return ExactComplex(Fraction(int(sp.numer(rat)),
                                         int(sp.denom(rat))))

        lin = FuchsianSystem(
            (ExactComplex(-1), ExactComplex(1)),
            (
                CMatrix.from_rows(
                    [[to_exact(rows0[r][c]) for c in range(2)]
                     for r in range(2)], True),
                CMatrix.from_rows(
                    [[to_exact(rows1[r][c]) for c in range(2)]
                     for r in range(2)], True),
            ),
        )
        family = RodriguesFamily(lin)
        for n in range(0, 5):
            ref = chain(n)
            mine = family.member(n)
            for r in range(2):
                for c in range(2):
                    entry = mine.entry(r, c)
                    got = sum(
                        (sp.Rational(v.re.numerator, v.re.denominator)
                         * X**k for k, v in enumerate(entry)),
                        sp.Integer(0),
                    )
                    assert sp.expand(got - ref[r, c]) == 0, (n, r, c)


def test_prototype_identity_exact():
    """Q P_n' + (QB) P_n equals the lowered-family member n + S + 1."""
    rng = random.Random(46)
    for _ in range(5):
        s = rng.randint(0, 1)
        bs = [Fraction(rng.randint(1, 5), rng.choice([1, 2]))
              for _ in range(s + 2)]
        system = scalar_system(bs, [-1, 1, 2][: s + 2])
        base = RodriguesFamily(system)
        lowered = RodriguesFamily(shifted_system(system))
        q = system.q_poly()
        qb = system.qb_poly()
        for n in range(0, 4):
            p = base.member(n)
            resid = (
                p.derivative().mul_sp(q)
                + qb.mul_mat(p)
                - lowered.member(n + s + 1)
            )
            assert resid.is_zero(), (bs, n)


def test_degree_and_leading_law():
    rng = random.Random(47)
    for _ in range(8):
        s = rng.randint(0, 1)
        d = rng.randint(1, 2)
        mats = []
        for _ in range(s + 2):
            rows = [[ExactComplex(0)] * d for _ in range(d)]
            for r in range(d):
                rows[r][r] = ExactComplex(
                    Fraction(rng.randint(1, 5), rng.choice([1, 2]))
                )
                for c in range(r + 1, d):
                    rows[r][c] = ExactComplex(rng.randint(-2, 2))
            mats.append(CMatrix.from_rows(rows, True))
        system = FuchsianSystem(
            tuple(ExactComplex(p) for p in [-1, 1, 2][: s + 2]), mats
        )
        family = RodriguesFamily(system)
        for n in range(0, 6):
            p = family.member(n)
            assert p.degree == n
            assert (p.lead() - family.leading_coeff(n)).is_zero()


def test_expand_synthesize_roundtrip():
    rng = random.Random(48)
    system = scalar_system([Fraction(3, 2), 1])
    family = RodriguesFamily(system)
    for _ in range(5):
        deg = rng.randint(0, 5)
        g = VecPoly.from_coeffs(
            [(ExactComplex(Fraction(rng.randint(-6, 6),
                                    rng.choice([1, 2, 3]))),)
             for _ in range(deg + 1)],
            exact=True,
        )
        coeffs = family.expand(g)
        assert len(coeffs) == max(deg + 1, 1) or g.is_zero()
        back = VecPoly.zero(1, True)
        for n, vec in enumerate(coeffs):
            back = back + family.member_times_vector(n, vec)
        assert (back - g).is_zero()


def two_by_two_system():
    """A 2 x 2 rational system whose residue sum has eigenvalues
    3 +- 6^(-1/2), so no leading coefficient is singular."""
    return FuchsianSystem(
        (ExactComplex(-1), ExactComplex(1)),
        (
            CMatrix.from_rows([[1, ExactComplex(Fraction(1, 2))], [0, 2]],
                              True),
            CMatrix.from_rows([[2, 0], [ExactComplex(Fraction(1, 3)), 1]],
                              True),
        ),
    )


def test_member_vector_route_matches_matrix_route():
    rng = random.Random(49)
    lin = two_by_two_system()
    family = RodriguesFamily(lin)
    for n in range(0, 6):
        vec = (ExactComplex(rng.randint(-3, 3)),
               ExactComplex(rng.randint(-3, 3)))
        via_chain = family.member_times_vector(n, vec)
        via_matrix = family.member(n).mul_const_vec(vec)
        assert (via_chain - via_matrix).is_zero(), n


def test_expand_rejects_singular_leading():
    # b_inf = -3: leading factor 1 + n + b_inf vanishes at n = 2
    system = scalar_system([Fraction(-3, 2), Fraction(-3, 2)])
    family = RodriguesFamily(system)
    g = VecPoly.from_coeffs([(ExactComplex(0),), (ExactComplex(0),),
                             (ExactComplex(1),)], exact=True)
    from fuchslin.model import AssumptionError

    with pytest.raises(AssumptionError):
        family.expand(g)


def test_float_expand_matches_the_exact_expansion():
    # expand's float branch (trim, the scaled zero test, the overshoot
    # check) on the float copy of a rational system: sum_n P_n g_n gives g
    # back, and every g_n is the exact expansion's, both to rounding
    rng = random.Random(50)
    lin = two_by_two_system()
    exact_family = RodriguesFamily(lin)
    float_family = RodriguesFamily(float_system(lin))
    for degree in range(6):
        g = VecPoly.from_coeffs(
            [(ExactComplex(rng.randint(-9, 9), rng.randint(-9, 9)),
              ExactComplex(rng.randint(-9, 9))) for _ in range(degree)]
            + [(ExactComplex(1), ExactComplex(0, -2))], exact=True)
        want = exact_family.expand(g)
        got = float_family.expand(float_vecpoly(g))
        assert len(got) == len(want) == degree + 1
        scale = max(abs(complex(v)) for vec in want for v in vec)
        for vec_got, vec_want in zip(got, want):
            for a, b in zip(vec_got, vec_want):
                assert abs(a - complex(b)) <= 1e-12 * scale, (degree, a, b)
        back = VecPoly.zero(2, False)
        for n, vec in enumerate(got):
            back = back + float_family.member_times_vector(n, vec)
        gf = float_vecpoly(g)
        assert back.degree == degree
        assert (back - gf).max_abs() <= 1e-10 * gf.max_abs(), degree

"""Exact scalars, matrices, and polynomial arithmetic."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchslin.exact import (
    ExactComplex,
    clear_denominators,
    coerce_scalar,
    from_int,
)
from fuchslin.matrices import (
    CMatrix,
    ShapeError,
    SingularMatrixError,
    SparseMatrix,
    mat_eigenvalues,
    solve_linear,
    vec_zero,
)
from fuchslin.poly import (
    MatPoly,
    VecPoly,
    sp_diff,
    sp_divmod,
    sp_eval,
    sp_from_roots,
    sp_mul,
    sp_taylor,
    sp_trim,
)


def test_exact_complex_field_ops():
    a = ExactComplex(Fraction(1, 2), Fraction(3))
    b = ExactComplex(Fraction(-2), Fraction(1, 3))
    assert (a + b) - b == a
    assert a * b == b * a
    prod = a * b
    assert prod.re == Fraction(1, 2) * -2 - 3 * Fraction(1, 3)
    assert (a / b) * b == a
    assert a ** 0 == ExactComplex(1)
    assert a ** 3 == a * a * a
    assert -a + a == ExactComplex(0)


# Parts drawn zero or nonzero on purpose, so every combination of real and
# non-real operands occurs in every few examples.
_part = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-40, max_value=40, max_denominator=12))
_gaussian = st.builds(ExactComplex, _part, _part)
_ring = settings(max_examples=200, deadline=None, derandomize=True,
                 database=None)


def _parts(v):
    if isinstance(v, ExactComplex):
        return v.re, v.im
    return Fraction(v), Fraction(0)


def _general_formula(op, a, b):
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    if op == "add":
        return ar + br, ai + bi
    if op == "sub":
        return ar - br, ai - bi
    if op == "mul":
        return ar * br - ai * bi, ar * bi + ai * br
    den = br * br + bi * bi
    return (ar * br + ai * bi) / den, (ai * br - ar * bi) / den


def _check_ring_value(z, parts):
    assert isinstance(z, ExactComplex)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == parts
    if z.im == 0:
        assert z == z.re and hash(z) == hash(z.re)


@_ring
@given(a=_gaussian, b=_gaussian, k=st.integers(-9, 9), q=_part)
def test_ring_ops_match_general_formula(a, b, k, q):
    # b, then an int and a Fraction, on either side of a
    for x, y in ((a, b), (b, a), (a, k), (k, a), (a, q), (q, a)):
        for op in ("add", "sub", "mul", "truediv"):
            if op == "truediv" and _parts(y) == (0, 0):
                with pytest.raises(ZeroDivisionError,
                                   match="division by exact zero"):
                    x / y
                continue
            _check_ring_value(getattr(operator, op)(x, y),
                              _general_formula(op, x, y))


@_ring
@given(z=_gaussian)
def test_negation_matches_general_formula(z):
    _check_ring_value(-z, (-z.re, -z.im))
    _check_ring_value(z ** 2, _general_formula("mul", z, z))


def test_exact_complex_parse_and_refusals():
    assert ExactComplex.parse("3/4") == ExactComplex(Fraction(3, 4))
    assert ExactComplex.parse(5) == ExactComplex(5)
    assert ExactComplex.parse([1, "1/2"]) == ExactComplex(1, Fraction(1, 2))
    with pytest.raises((TypeError, ValueError)):
        ExactComplex.parse(0.5)
    with pytest.raises(TypeError):
        ExactComplex(1) + 0.25
    with pytest.raises((ValueError, ZeroDivisionError)):
        ExactComplex(1) / ExactComplex(0)


def test_coerce_scalar_mode_discipline():
    assert coerce_scalar(3, exact=True) == ExactComplex(3)
    assert coerce_scalar(3, exact=False) == 3.0 + 0.0j
    with pytest.raises(TypeError):
        coerce_scalar(0.5, exact=True)
    z = coerce_scalar(ExactComplex(Fraction(1, 3)), exact=False)
    assert abs(z - (1.0 / 3.0)) < 1e-15


def test_matrix_shapes_and_ops():
    a = CMatrix.from_rows([[1, 2], [3, 4]], exact=True)
    b = CMatrix.identity(2, exact=True)
    assert (a @ b).rows == a.rows
    assert (a - a).is_zero()
    with pytest.raises(ShapeError):
        CMatrix.from_rows([[1, 2], [3]], exact=True)
    with pytest.raises(ShapeError):
        a @ CMatrix.identity(3, exact=True)
    shifted = a.add_scaled_identity(2)
    assert shifted.entry(0, 0) == ExactComplex(3)
    assert shifted.entry(0, 1) == ExactComplex(2)


def _random_exact_system(rng, kind):
    """An exact matrix, diagonal shifted by 7, and a right-hand side.

    dense: every entry drawn; sparse: mostly exact zeros, rows shuffled so
    pivots need row swaps; upper: upper triangular; complex: entries and
    right-hand side with nonzero imaginary parts.
    """
    def rat():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    n = rng.randint(1, 4) if kind == "dense" else rng.randint(1, 7)
    rows = [[ExactComplex(rat()) for _ in range(n)] for _ in range(n)]
    if kind == "complex":
        rows = [[ExactComplex(v.re, rat()) for v in r] for r in rows]
    for i in range(n):
        for j in range(n):
            if (kind == "sparse" and rng.random() < 0.7
                    or kind == "upper" and j < i):
                rows[i][j] = ExactComplex(0)
        rows[i][i] = rows[i][i] + ExactComplex(7)  # diagonally dominant
    rhs = [ExactComplex(rng.randint(-5, 5)) for _ in range(n)]
    if kind == "complex":
        rhs = [ExactComplex(v.re, rng.randint(-5, 5)) for v in rhs]
    if kind == "sparse":
        rhs = [v if rng.random() < 0.5 else ExactComplex(0) for v in rhs]
        order = list(range(n))
        rng.shuffle(order)
        rows = [rows[i] for i in order]
        rhs = [rhs[i] for i in order]
    return CMatrix.from_rows(rows, exact=True), tuple(rhs)


def test_exact_solve_and_inverse_random():
    rng = random.Random(20260823)
    for kind in ("dense", "sparse", "upper", "complex"):
        for _ in range(25):
            mat, rhs = _random_exact_system(rng, kind)
            sol = solve_linear(mat, rhs)
            assert mat.matvec(sol) == rhs, kind


def test_singular_matrix_raises():
    mat = CMatrix.from_rows([[1, 2], [2, 4]], exact=True)
    with pytest.raises(SingularMatrixError):
        solve_linear(mat, (ExactComplex(1), ExactComplex(0)))
    assert SparseMatrix(2, mat.entries()).singular()
    # sparse and structurally singular: a zero column, and two equal rows
    # whose dependence shows only after elimination
    for rows in ([[1, 0, 2, 0], [0, 0, 3, 0], [0, 0, 0, 1], [4, 0, 0, 5]],
                 [[0, 1, 0], [2, 0, "1/3"], [2, 0, "1/3"]]):
        sparse = CMatrix.from_rows(
            [[ExactComplex.parse(v) for v in r] for r in rows], exact=True
        )
        with pytest.raises(SingularMatrixError):
            solve_linear(sparse, vec_zero(sparse.n_rows, True))
        assert SparseMatrix(sparse.n_rows, sparse.entries()).singular()
    matf = CMatrix.from_rows([[1.0, 2.0], [2.0, 4.0]], exact=False)
    with pytest.raises(SingularMatrixError):
        solve_linear(matf, (1.0 + 0j, 0.0 + 0j))


def test_exact_solve_dense_gaussian_rationals():
    # dense Gaussian-rational matrices over mixed denominators, with
    # nonzero imaginary parts: the solution satisfies A x == b exactly;
    # a zero column, or a row that is a Gaussian-rational combination of
    # two others, is still found singular
    rng = random.Random(20261018)

    def entry():
        return ExactComplex(
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12))),
            Fraction(rng.randint(-9, 9), rng.choice((1, 4, 9, 11))))

    for n in range(1, 8):
        for _ in range(3):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            mat = CMatrix.from_rows(rows, exact=True)
            rhs = tuple(entry() for _ in range(n))
            assert any(v.im for v in mat.matvec(rhs))
            assert mat.matvec(solve_linear(mat, rhs)) == rhs
            if n < 3:
                continue
            c, e = entry(), entry()
            dependent = [row[:] for row in rows]
            dependent[-1] = [c * u + e * v for u, v in zip(rows[0], rows[1])]
            column = [row[:] for row in rows]
            for row in column:
                row[n // 2] = ExactComplex(0)
            for singular in (dependent, column):
                with pytest.raises(SingularMatrixError):
                    solve_linear(CMatrix.from_rows(singular, exact=True), rhs)


@pytest.mark.parametrize("embed", [False, True], ids=["real", "embedded"])
def test_sparse_solve_columns_shifts_and_embedding(embed):
    # SparseMatrix.solve: several real columns at once, given and returned
    # as integers over one denominator (the least one on the way out),
    # shifted by k I, on a real matrix or on the 2n embedding of a
    # Gaussian-rational one; the complex reading of an embedded solution
    # solves the complex system
    rng = random.Random(f"sparse-{embed}")

    def value():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7)))

    for n in range(1, 8):
        for _ in range(4):
            parts = [(r, c, value(), value() if embed else Fraction(0))
                     for r in range(n) for c in range(n)
                     if r == c or rng.random() < 0.3]
            parts = [e for e in parts if e[2] or e[3]]
            den, nums = clear_denominators(
                [v for *_, re, im in parts for v in (re, im)])
            entries = den, [(r, c, a, b) for (r, c, *_), a, b
                            in zip(parts, nums[::2], nums[1::2])]
            op = SparseMatrix(n, entries)
            assert op.embedded == (embed and any(im for *_, im in parts))
            rows = [[ExactComplex(0)] * n for _ in range(n)]
            for r, c, re, im in parts:
                rows[r][c] = ExactComplex(re, im)
            # CMatrix.entries: the same integers over the least common
            # denominator, row by row
            assert CMatrix.from_rows(rows, True).entries() == entries
            assert op.max_abs() == CMatrix.from_rows(rows, True).max_abs()
            for shift in range(3):
                shifted = CMatrix.from_rows(rows, True).add_scaled_identity(
                    shift)
                cols = [[value() for _ in range(op.size)] for _ in range(3)]
                den, nums = clear_denominators([v for c in cols for v in c])
                nums = [nums[j * op.size:(j + 1) * op.size] for j in range(3)]
                try:
                    den_x, xs = op.solve((den, nums), shift)
                except SingularMatrixError:
                    assert SparseMatrix(n, shifted.entries()).singular()
                    assert op.singular(shift)
                    continue
                assert not op.singular(shift)
                assert len(xs) == 3 and all(len(x) == op.size for x in xs)
                assert den_x > 0 and all(type(v) is int for x in xs for v in x)
                assert math.gcd(den_x, *(v for x in xs for v in x)) == 1
                xs = [[Fraction(v, den_x) for v in x] for x in xs]
                for c, x in zip(cols, xs):
                    if op.embedded:
                        z = tuple(map(ExactComplex, x[:n], x[n:]))
                        assert shifted.matvec(z) == tuple(
                            map(ExactComplex, c[:n], c[n:]))
                    else:
                        assert shifted.matvec(tuple(map(ExactComplex, x))) \
                            == tuple(map(ExactComplex, c))
    # -2 on the diagonal: singular exactly at the shift 2
    op = SparseMatrix(2, (1, [(0, 0, -2, 0), (0, 1, 1, 0), (1, 1, 3, 1)]),
                      embed)
    assert [op.singular(k) for k in range(4)] == [False, False, True, False]


@pytest.mark.parametrize("embed", [False, True], ids=["real", "embedded"])
def test_sparse_solve_one_by_one_matches_the_elimination(embed):
    # a 1 x 1 solve, of a real a or of the 2 x 2 embedding of a + ib, must
    # give the same (den, x) as the same solve padded to diag(a + ib, 1)
    # and, at a shift where a + k vanishes, raise the same message
    rng = random.Random(f"one-by-one-{embed}")

    def value():
        return Fraction(rng.randint(-9, 9),
                        rng.choice((1, 2, 3, 7, 10 ** 30 + 1)))

    singular = 0
    for case in range(80):
        re = -Fraction(rng.randint(0, 3)) if case % 4 == 0 else value()
        im = value() if embed and case % 8 else Fraction(0)
        den_a, parts = clear_denominators([re, im])
        entries = [(0, 0, *parts)] if re or im else []
        op, padded = SparseMatrix(1, (den_a, entries), embed), \
            SparseMatrix(2, (den_a, entries + [(1, 1, den_a, 0)]), embed)
        assert op.size == (2 if embed else 1) and padded.size == 2 * op.size
        for shift in range(4):
            cols = [[rng.randint(-20, 20) for _ in range(op.size)]
                    for _ in range(rng.randint(0, 3))]
            den = rng.choice((1, 6, 10 ** 20))
            # the padded vector: real parts, then imaginary parts
            wide = [[c[0], 0] + ([c[1], 0] if embed else []) for c in cols]
            try:
                want = padded.solve((den, wide), shift)
            except SingularMatrixError as err:
                with pytest.raises(SingularMatrixError) as got:
                    op.solve((den, cols), shift)
                assert str(got.value) == str(err)
                singular += 1
                continue
            den_x, xs = op.solve((den, cols), shift)
            assert den_x == want[0]
            assert [[x[0], 0] + ([x[1], 0] if embed else []) for x in xs] \
                == want[1]
    assert singular >= 4


def test_exact_pivot_never_goes_through_a_float():
    # 10^-400 is 0.0 as a float and 10^400 overflows; the exact solve
    # must see the first as a nonzero pivot and never convert the second.
    tiny = ExactComplex(Fraction(1, 10**400))
    huge = ExactComplex(10**400)
    one = ExactComplex(1)
    zero = ExactComplex(0)
    for rows in ([[zero, one], [tiny, zero]], [[huge, one], [one, zero]]):
        mat = CMatrix.from_rows(rows, exact=True)
        rhs = (ExactComplex(3), ExactComplex(5))
        x = solve_linear(mat, rhs)
        assert mat.matvec(x) == rhs
        assert not SparseMatrix(2, mat.entries()).singular()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 complex(1.0, math.inf)])
def test_eigenvalues_of_a_non_finite_matrix_raise_arithmetic_error(bad):
    # a float residue sum that overflowed reaches the spectrum as an inf;
    # numpy would raise its own LinAlgError, which no caller maps
    m = CMatrix.from_rows([[1.0, 0.0], [bad, 2.0]], False)
    with pytest.raises(ArithmeticError, match="non-finite"):
        mat_eigenvalues(m)
    finite = CMatrix.from_rows([[1.0, 0.0], [3.0, 2.0]], False)
    assert sorted(mat_eigenvalues(finite), key=abs) == [1.0, 2.0]


def test_float_solve_accuracy():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        mat = CMatrix.from_rows(
            [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              + (3.0 if i == j else 0.0)
              for j in range(n)] for i in range(n)],
            exact=False,
        )
        rhs = tuple(complex(rng.uniform(-1, 1)) for _ in range(n))
        sol = solve_linear(mat, rhs)
        back = mat.matvec(sol)
        assert max(abs(x - y) for x, y in zip(back, rhs)) < 1e-10


def test_scalar_poly_helpers():
    # (x-1)(x+1) = x^2 - 1, exact
    q = sp_from_roots([ExactComplex(1), ExactComplex(-1)], exact=True)
    assert len(q) - 1 == 2
    assert q[0] == ExactComplex(-1) and q[2] == ExactComplex(1)
    assert sp_eval(q, ExactComplex(3)) == ExactComplex(8)
    dq = sp_diff(q)
    assert dq == (ExactComplex(0), ExactComplex(2))
    prod = sp_mul(q, dq, exact=True)
    assert len(prod) - 1 == 3
    quo, rem = sp_divmod(prod, q, exact=True)
    assert quo == dq and sp_trim(rem) == ()


def test_taylor_shift_is_exact_recentering():
    rng = random.Random(11)
    for _ in range(10):
        coeffs = tuple(ExactComplex(rng.randint(-4, 4)) for _ in range(5))
        center = ExactComplex(rng.randint(-3, 3))
        shifted = sp_taylor(coeffs, center)
        # evaluate both representations at a random point
        x = ExactComplex(Fraction(rng.randint(-9, 9), 4))
        direct = sp_eval(coeffs, x)
        via = sp_eval(shifted, x - center)
        assert direct == via


def test_vecpoly_arithmetic_and_division():
    p = VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(0)),
         (ExactComplex(0), ExactComplex(2))],
        exact=True,
    )
    assert p.degree == 1
    assert (p - p).is_zero()
    q = sp_from_roots([ExactComplex(2)], exact=True)
    prod = p.mul_sp(q)
    assert prod.degree == 2
    back = prod.div_exact_sp(q)
    assert (back - p).is_zero()
    with pytest.raises(ValueError):
        # p is not divisible by (x-2)
        p.div_exact_sp(q)


def test_matpoly_vector_action_consistency():
    rng = random.Random(3)
    mats = []
    for _ in range(3):
        mats.append(CMatrix.from_rows(
            [[ExactComplex(rng.randint(-3, 3)) for _ in range(2)]
             for _ in range(2)],
            exact=True,
        ))
    mp = MatPoly.from_coeffs(mats, exact=True)
    vec = VecPoly.from_coeffs(
        [(ExactComplex(1), ExactComplex(-1)),
         (ExactComplex(2), ExactComplex(5))],
        exact=True,
    )
    full = mp.mul_vec(vec)
    x = ExactComplex(Fraction(3, 2))
    lhs = full.eval(x)
    # compare against evaluating the factors separately
    mval = [[sum((mats[k].entry(i, j) * x ** k for k in range(3)),
                 start=ExactComplex(0)) for j in range(2)] for i in range(2)]
    vval = vec.eval(x)
    rhs = [sum((mval[i][j] * vval[j] for j in range(2)), start=ExactComplex(0))
           for i in range(2)]
    assert all(a == b for a, b in zip(lhs, rhs))


def test_zero_degree_sentinel():
    z = VecPoly.zero(3, exact=True)
    assert z.degree == -1
    assert z.is_zero()
    assert from_int(0, True) == ExactComplex(0)
    assert complex(ExactComplex(Fraction(1, 4))) == 0.25 + 0j

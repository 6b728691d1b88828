"""Homogeneous polynomial spaces and the conjugation operator."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fuchslin.exact import ExactComplex
from fuchslin.matrices import CMatrix, mat_eigenvalues
from fuchslin.model import FuchsianSystem
from fuchslin.pnspace import (
    PnBasis,
    _int_row,
    conjugation_arrays,
    conjugation_entries,
    conjugation_matrix,
    conjugation_spectrum,
    devectorize,
    induced_system,
    multiindices,
    pn_dimension,
    vectorize,
)
from fuchslin.poly import sp_trim


def test_multiindex_enumeration():
    assert multiindices(1, 4) == [(4,)]
    assert multiindices(2, 2) == [(0, 2), (1, 1), (2, 0)]
    got = multiindices(3, 3)
    assert got == sorted(got)
    assert len(got) == math.comb(3 + 3 - 1, 3 - 1)
    for d in range(1, 4):
        for n in range(0, 5):
            assert pn_dimension(d, n) == d * len(multiindices(d, n))


def test_basis_ordering_component_major():
    basis = PnBasis(2, 2)
    assert basis.items == (
        ((0, 2), 0), ((1, 1), 0), ((2, 0), 0),
        ((0, 2), 1), ((1, 1), 1), ((2, 0), 1),
    )
    assert basis.index((1, 1), 1) == 4
    assert basis.size == pn_dimension(2, 2)


def test_basis_permutation_guard():
    basis = PnBasis(2, 2)
    items = list(basis.items)
    items[0], items[-1] = items[-1], items[0]
    permuted = PnBasis(2, 2, order=items)
    assert permuted.items[0] == ((2, 0), 1)
    with pytest.raises(ValueError):
        PnBasis(2, 2, order=items[:-1])
    with pytest.raises(ValueError):
        PnBasis(2, 2, order=items[:-1] + [items[0]])


def _matvec_through_action(mat, basis, coeffs, w):
    """Evaluate (d_w q) M w - M q at the point w for q given by coeffs."""
    d = basis.d
    q_val = np.zeros(d, dtype=complex)
    grad = np.zeros((d, d), dtype=complex)  # grad[i][j] = d q_i / d w_j
    for pos, (m, i) in enumerate(basis.items):
        c = coeffs[pos]
        mono = np.prod([w[j] ** m[j] for j in range(d)])
        q_val[i] += c * mono
        for j in range(d):
            if m[j] == 0:
                continue
            dm = list(m)
            dm[j] -= 1
            grad[i][j] += c * m[j] * np.prod(
                [w[t] ** dm[t] for t in range(d)]
            )
    mw = np.array([[complex(mat.entry(i, j)) for j in range(d)]
                   for i in range(d)])
    return grad @ (mw @ w) - mw @ q_val


def test_conjugation_matrix_matches_pointwise_action():
    rng = random.Random(101)
    for _ in range(12):
        d = rng.randint(1, 3)
        n = rng.randint(2, 4)
        basis = PnBasis(d, n)
        mat = CMatrix.from_rows(
            [[complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
              for _ in range(d)] for _ in range(d)],
            exact=False,
        )
        op = conjugation_matrix(mat, basis)
        coeffs = np.array([complex(rng.uniform(-1, 1)) for _ in
                           range(basis.size)])
        opn = np.array([[complex(op.entry(i, j)) for j in range(basis.size)]
                        for i in range(basis.size)])
        out = opn @ coeffs
        # compare at several random points: the image coefficients must
        # reproduce the pointwise derivative expression
        for _ in range(3):
            w = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(d)])
            direct = _matvec_through_action(mat, basis, coeffs, w)
            # build the image value from the output coefficients
            val = np.zeros(d, dtype=complex)
            for pos, (m, i) in enumerate(basis.items):
                val[i] += out[pos] * np.prod(
                    [w[j] ** m[j] for j in range(d)]
                )
            assert np.max(np.abs(val - direct)) < 1e-10


def test_spectrum_prediction_random():
    rng = random.Random(77)
    for _ in range(20):
        d = rng.randint(1, 3)
        n = rng.randint(2, 4)
        basis = PnBasis(d, n)
        mat = CMatrix.from_rows(
            [[complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
              for _ in range(d)] for _ in range(d)],
            exact=False,
        )
        op = conjugation_matrix(mat, basis)
        predicted = conjugation_spectrum(mat, basis)
        actual = mat_eigenvalues(op)
        cost = np.abs(
            np.array(predicted)[:, None] - np.array(actual)[None, :]
        )
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-8


def _bits(values):
    return [(type(z), z.real.hex(), z.imag.hex()) for z in values]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_spectrum_on_permuted_bases_is_the_canonical_list_reordered(exact):
    """On a shuffled basis the spectrum is the canonical one reordered
    slot by slot, and the canonical one is <lambda, m> - lambda_i summed
    per slot by Python's sum(), both bit for bit."""
    rng = random.Random(f"spectrum-permuted-{exact}")
    for trial in range(30):
        d, n = rng.randint(1, 3), rng.randint(0, 4)
        if exact:
            rows = [[ExactComplex(Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 4)),
                                  Fraction(rng.randint(-3, 3), 5))
                     for _ in range(d)] for _ in range(d)]
        else:
            rows = [[complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                     for _ in range(d)] for _ in range(d)]
        mat = CMatrix.from_rows(rows, exact)
        lam = mat_eigenvalues(mat)
        canonical = PnBasis(d, n)
        want = [sum(mj * lj for mj, lj in zip(m, lam)) - lam[i]
                for m, i in canonical.items]
        assert _bits(conjugation_spectrum(mat, canonical)) == _bits(want)
        items = list(canonical.items)
        rng.shuffle(items)
        basis = PnBasis(d, n, order=items)
        by_slot = dict(zip(canonical.items, want))
        assert _bits(conjugation_spectrum(mat, basis, lam)) == \
            _bits([by_slot[item] for item in basis.items]), trial


def test_upper_triangular_preserved():
    mat = CMatrix.from_rows(
        [[2, 1, 0], [0, 3, 5], [0, 0, 4]], exact=True
    )
    basis = PnBasis(3, 2)
    op = conjugation_matrix(mat, basis)
    for i in range(basis.size):
        for j in range(i):
            assert op.entry(i, j) == ExactComplex(0)
    # diagonal = <lambda, m> - lambda_i with diagonal eigenvalues in order
    lam = (2, 3, 4)
    for pos, (m, i) in enumerate(basis.items):
        expected = sum(mj * lj for mj, lj in zip(m, lam)) - lam[i]
        assert op.entry(pos, pos) == ExactComplex(expected)


def _values(form):
    """{(row, col): ExactComplex} of an exact entry form
    (den, [(row, col, re, im), ...]), checked to be one: int parts of
    distinct nonzero entries over their least positive denominator."""
    den, entries = form
    nums = [v for *_, re, im in entries for v in (re, im)]
    assert type(den) is int and den > 0 and math.gcd(den, *nums) == 1
    assert all(type(v) is int for v in nums)
    assert all(re or im for *_, re, im in entries)
    values = {(row, col): ExactComplex(Fraction(re, den), Fraction(im, den))
              for row, col, re, im in entries}
    assert len(values) == len(entries)
    return values


def _random_exact_matrix(rng, d, shape):
    """Rational d x d matrix: 'upper' / 'lower' triangular or 'full'."""
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            if i == j:
                v = Fraction(rng.randint(5, 25), rng.choice([2, 3, 5]))
            elif (shape == "upper" and j < i) or (shape == "lower" and j > i):
                v = 0
            else:
                v = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            row.append(ExactComplex(v))
        rows.append(row)
    return CMatrix.from_rows(rows, True)


@pytest.mark.parametrize("shape", ["upper", "lower", "full"])
def test_induced_block_matches_dense_reference(shape):
    rng = random.Random(f"block-{shape}")
    for draw in range(6):
        d = 1 + draw % 3
        n = rng.randint(2, 4)
        s = rng.randint(0, 1)
        poles = [ExactComplex(v) for v in rng.sample(range(-4, 5), s + 2)]
        mats = [_random_exact_matrix(rng, d, shape) for _ in range(s + 2)]
        lin = FuchsianSystem(tuple(poles), tuple(mats))
        block, basis = induced_system(lin, n)
        assert block.size == basis.size == pn_dimension(d, n)
        assert block.s == s and block.exact
        assert block.q_coefficients() == lin.q_coefficients()

        # J of QB's x^i coefficients, J_{B_inf} on top, against dense:
        # the same nonzero entries, and the same product with a vector
        v = tuple(ExactComplex(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                  for _ in range(basis.size))
        coeffs = block.qb_coefficients()
        total = conjugation_matrix(lin.b_infinity(), basis)
        denses = [conjugation_matrix(lin.qb_poly().coefficient(i), basis)
                  for i in range(s + 1)] + [total]
        assert len(coeffs) == len(denses) == s + 2
        for form, dense in zip(coeffs, denses):
            entries = _values(form)
            assert entries == _values(dense.entries())
            out = [ExactComplex(0)] * basis.size
            for (row, col), z in entries.items():
                out[row] = out[row] + z * v[col]
            assert tuple(out) == dense.matvec(v)
        assert _values(coeffs[-1]) == _values(total.entries())

        # J is linear in M: what the matrix-free QB relies on
        cs = [ExactComplex(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
              for _ in mats]
        combo = mats[0].scale(cs[0])
        for c, m in zip(cs[1:], mats[1:]):
            combo = combo + m.scale(c)
        acc = conjugation_matrix(mats[0], basis).scale(cs[0])
        for c, m in zip(cs[1:], mats[1:]):
            acc = acc + conjugation_matrix(m, basis).scale(c)
        assert (conjugation_matrix(combo, basis) - acc).is_zero()

        # predicted spectrum of J_{B_inf} against the dense eigenvalues
        predicted = np.array(block.residue_spectrum("inf"))
        actual = np.array(mat_eigenvalues(total))
        cost = np.abs(predicted[:, None] - actual[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-9


def _reference_columns(mat, basis):
    """J_M's columns built item by item, as before the cached plan: the
    reference the plan must reproduce, term order included."""
    d = basis.d
    cols = [dict() for _ in range(basis.size)]

    def add(col, row, value):
        cols[col][row] = cols[col].get(row, 0) + value

    for pos, (m, i) in enumerate(basis.items):
        for j in range(d):
            if m[j] == 0:
                continue
            for k in range(d):
                target = list(m)
                target[j] -= 1
                target[k] += 1
                row = basis.index(tuple(target), i)
                add(pos, row, m[j] * mat.entry(j, k))
        for k in range(d):
            row = basis.index(m, k)
            add(pos, row, -mat.entry(k, i))
    return [{row: value for row, value in col.items() if value}
            for col in cols]


def _reference_array(mat, basis):
    out = np.zeros((basis.size, basis.size), complex)
    for col, entries in enumerate(_reference_columns(mat, basis)):
        for row, value in entries.items():
            out[row, col] = value
    return out


def _random_float_matrix(rng, d, shape):
    """Complex d x d matrix of mixed magnitudes, zero outside ``shape``."""
    return CMatrix.from_rows(
        [[0j if (shape == "upper" and j < i) or (shape == "lower" and j > i)
          else complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
          * 10.0 ** rng.randint(-3, 3)
          for j in range(d)] for i in range(d)],
        False,
    )


def _bases(rng, d, n):
    """The canonical basis and a shuffled one."""
    items = list(PnBasis(d, n).items)
    rng.shuffle(items)
    return PnBasis(d, n), PnBasis(d, n, order=items)


@pytest.mark.parametrize("shape", ["upper", "lower", "full"])
def test_conjugation_plan_matches_per_item_reference(shape):
    rng = random.Random(f"plan-{shape}")
    for d in range(1, 5):
        for n in range(2, 6):
            mat = _random_exact_matrix(rng, d, shape)
            fmat = _random_float_matrix(rng, d, shape)
            for basis in _bases(rng, d, n):
                want = _reference_columns(mat, basis)
                dense = conjugation_matrix(mat, basis)
                assert [{row: dense.entry(row, col)
                         for row in range(basis.size) if dense.entry(row, col)}
                        for col in range(basis.size)] == want
                assert _values(conjugation_entries(mat.entries(),
                                                   basis)) == \
                    {(row, col): v for col, entries in enumerate(want)
                     for row, v in entries.items()}
                want = _reference_array(fmat, basis)
                assert np.array_equal(
                    conjugation_arrays([fmat.to_numpy()], basis)[0], want)
                assert np.array_equal(
                    conjugation_matrix(fmat, basis).to_numpy(), want)


@pytest.mark.parametrize("shape", ["upper", "full"])
def test_float_block_arrays_match_per_item_reference(shape):
    rng = random.Random(f"float-block-{shape}")
    for d in range(1, 5):
        s = d % 3
        poles = tuple(complex(p) for p in rng.sample(range(-4, 5), s + 2))
        lin = FuchsianSystem(poles, tuple(_random_float_matrix(rng, d, shape)
                                          for _ in range(s + 2)))
        for n in range(2, 5):
            for basis in _bases(rng, d, n):
                block, _ = induced_system(lin, n, basis=basis)
                coeffs = block.qb_coefficients()
                assert coeffs.shape == (s + 2, basis.size, basis.size)
                assert np.array_equal(
                    coeffs[-1], _reference_array(lin.b_infinity(), basis))
                assert np.array_equal(coeffs[:-1], [
                    _reference_array(lin.qb_poly().coefficient(i), basis)
                    for i in range(s + 1)])
                assert np.array_equal(coeffs[-1], conjugation_matrix(
                    lin.b_infinity(), basis).to_numpy())


def _random_system(rng, d, s, exact, kind):
    """A FuchsianSystem of size d with S = s: exact residues from
    ``_random_exact_matrix``, with imaginary parts in thirds when ``kind``
    is "gaussian", or their float images."""
    poles = [ExactComplex(v) for v in rng.sample(range(-4, 5), s + 2)]
    mats = []
    for _ in range(s + 2):
        mat = _random_exact_matrix(rng, d, "full")
        if kind == "gaussian":
            mat = CMatrix.from_rows(
                [[ExactComplex(v.re, Fraction(rng.randint(-3, 3), 3))
                  for v in row] for row in mat.rows], True)
        mats.append(mat if exact else CMatrix.from_numpy(mat.to_numpy()))
    if not exact:
        poles = [complex(p) for p in poles]
    return FuchsianSystem(tuple(poles), tuple(mats))


@pytest.mark.parametrize("kind", ["real", "gaussian"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_block_operator_is_j_of_each_qb_coefficient(exact, kind):
    # the block's one operator form: S + 2 coefficients, the x^i one J of
    # QB's x^i coefficient, the top one J_{B_inf}, in the canonical and in
    # a shuffled basis, equal to conjugation_matrix and to the per-item
    # reference
    rng = random.Random(f"operator-{exact}-{kind}")
    for d in range(1, 5):
        s = d % 3
        lin = _random_system(rng, d, s, exact, kind)
        qb = lin.qb_poly()
        mats = [qb.coefficient(i) for i in range(s + 1)] + [lin.b_infinity()]
        for n in range(2, 5):
            for basis in _bases(rng, d, n):
                block, _ = induced_system(lin, n, basis=basis)
                coeffs = block.qb_coefficients()
                assert len(coeffs) == s + 2
                for got, mat in zip(coeffs, mats):
                    dense = conjugation_matrix(mat, basis)
                    if exact:
                        assert _values(got) == _values(dense.entries())
                    else:
                        assert np.array_equal(got, dense.to_numpy())
                        assert np.array_equal(got,
                                              _reference_array(mat, basis))


def test_exact_block_is_built_without_exact_complex_arithmetic(monkeypatch):
    # J is applied to the real and imaginary parts of QB's coefficients
    # apart, as integers over one denominator: with the system's QB and
    # spectrum at infinity cached (as the assumption checks leave them),
    # building an exact block calls no ExactComplex operator
    calls = []

    def counted(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)
        return wrapper

    rng = random.Random("no-exact-complex")
    for d, s, n in ((1, 0, 3), (2, 1, 2), (3, 1, 3), (4, 0, 2)):
        lin = _random_system(rng, d, s, True, "gaussian")
        lin.qb_poly()
        lin.residue_spectrum("inf")
        with monkeypatch.context() as patch:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__truediv__",
                         "__rtruediv__", "__pow__", "__neg__"):
                patch.setattr(ExactComplex, name,
                              counted(name, getattr(ExactComplex, name)))
            ExactComplex(1) + ExactComplex(2)   # the counter counts
            assert calls == ["__add__"]
            calls.clear()
            block, basis = induced_system(lin, n)
            assert calls == []
        assert _values(block.qb_coefficients()[-1]) == _values(
            conjugation_matrix(lin.b_infinity(), basis).entries())


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_store_rows_roundtrip(exact):
    # store rows (row mu * d + i: component i of the monomial at position
    # mu of multiindices(d, n)) -> basis order -> store rows
    rng = random.Random(f"rows-{exact}")
    for d in range(1, 4):
        for n in range(0, 5):
            monomials = multiindices(d, n)
            width = rng.randint(1, 3)
            rows = [sp_trim(tuple(
                ExactComplex(Fraction(rng.randint(-3, 3), 2),
                             rng.randint(-1, 1))
                for _ in range(rng.choice([0, width]))))
                for _ in range(len(monomials) * d)]
            for basis in _bases(rng, d, n):
                if exact:
                    # integer rows over one denominator, None when empty,
                    # to the same integer rows in basis order, each over
                    # one positive denominator
                    store = [_int_row(r) for r in rows]
                    stacked = vectorize(store, basis, exact=True)
                    assert len(stacked) == basis.size
                    live = [row for row in stacked if row is not None]
                    assert all(type(d) is int and d > 0
                               and len(re) <= width
                               and (im is None or len(im) == len(re))
                               for d, re, im in live)
                    assert all(type(v) is int for _, re, im in live
                               for v in re + (im or ()))

                    def coeff(k, stacked=stacked):
                        return [0 if row is None or k >= len(row[1])
                                else ExactComplex(
                                    Fraction(row[1][k], row[0]),
                                    Fraction(row[2][k] if row[2] else 0,
                                             row[0]))
                                for row in stacked]
                else:
                    store = np.zeros((len(rows), width), complex)
                    for r, row in enumerate(rows):
                        store[r, :len(row)] = [complex(c) for c in row]
                    stacked = vectorize(store, basis)
                    assert stacked.shape == (basis.size, width)

                    def coeff(k, stacked=stacked):
                        return stacked[:, k]
                for pos, (m, i) in enumerate(basis.items):
                    row = rows[monomials.index(m) * d + i]
                    for k in range(width):
                        want = row[k] if k < len(row) else 0
                        assert coeff(k)[pos] == (want if exact
                                                 else complex(want))
                back = devectorize(stacked, basis, exact=exact)
                if exact:
                    assert back == store
                else:
                    assert np.array_equal(back, store)

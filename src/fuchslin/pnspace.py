"""Vector-valued homogeneous polynomials in the state variable.

Degree-n homogeneous maps w -> P(w) in d components form a space of
dimension N = d * (n+d-1)! / (n! (d-1)!).  The canonical basis consists of
the maps w^m e_i; basis elements are ordered component-major (all i = 0
first), multi-indices lexicographically ascending within a component.  That
ordering makes the conjugation operator

    (J_M q)(w) = (d_w q)(w) M w - M q(w)

upper triangular whenever M is upper triangular, with diagonal
<lambda, m> - lambda_i -- which is why its spectrum can be predicted
straight from the spectrum of M.

J_M is linear in M, and which entry of M adds into which entry of J_M,
with which integer coefficient, depends only on (d, n).  Those
O(N (d^2 + d)) terms are listed once per (d, n), in the canonical basis,
and cached as a sparse plan in the form each mode reads: exact mode adds
each nonzero entry of M, times each of its coefficients once, into sparse
columns; float mode builds J of a whole stack of matrices as complex128
arrays, one gather and one scatter-add per rank of a term within its
entry.  A custom basis permutes the rows and columns of the canonical
result.

Substituting the residues A_j for M gives the size-N system each
homogeneous block of the conjugacy equation satisfies; ``induced_system``
keeps J_{B_inf} and J of QB's coefficients as sparse (row, col, value)
entries in exact mode, with no dense N x N matrix unless one is asked
for, and as complex128 arrays in float mode.  ``vectorize`` /
``devectorize`` translate between basis order and the engine's store rows
(row mu * d + i: component i of the monomial at position mu of
``multiindices(d, n)``): complex128 arrays, or in exact mode integer rows
(numerator tuples over one denominator) and the per-degree Fraction lists
of a ``SplitPoly``, with no ``ExactComplex`` in between.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
import numpy as np

from .exact import ExactComplex, from_int
from .matrices import CMatrix, ShapeError, mat_eigenvalues
from .poly import SplitPoly

_ZERO = Fraction(0)


def multiindices(d, n):
    """All m in N^d with |m| = n, lexicographically ascending."""
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in multiindices(d - 1, n - first):
            out.append((first,) + rest)
    return out


def pn_dimension(d, n):
    return d * math.comb(n + d - 1, d - 1)


class PnBasis:
    """Ordered canonical basis of the degree-n homogeneous maps."""

    __slots__ = ("d", "n", "items", "positions", "_index")

    def __init__(self, d, n, order=None):
        if d < 1:
            raise ShapeError("need d >= 1")
        if n < 0:
            raise ValueError("need n >= 0")
        self.d = d
        self.n = n
        monomials = multiindices(d, n)
        canonical = tuple((m, i) for i in range(d) for m in monomials)
        if order is None:
            self.items = canonical
        else:
            # Any enumeration order is legal as long as it is a permutation
            # of the canonical slots; solutions must not depend on it.
            items = tuple((tuple(m), i) for m, i in order)
            if sorted(items) != sorted(canonical):
                raise ValueError("order is not a permutation of the basis")
            self.items = items
        self._index = {item: pos for pos, item in enumerate(self.items)}
        # position of each canonical slot in this basis; None when canonical
        self.positions = None if self.items == canonical else np.array(
            [self._index[item] for item in canonical], dtype=np.intp)

    @property
    def size(self):
        return len(self.items)

    def index(self, m, i):
        return self._index[(tuple(m), i)]

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return f"PnBasis(d={self.d}, n={self.n}, size={self.size})"


def _conjugation_terms(d, n):
    """J_M in the canonical basis as its terms: entry e = j d + k of M,
    times an integer coefficient, adds into J_M[row, col].

    Returns arrays (row N + col, e, coefficient), sorted by target with a
    stable sort, so each target keeps the order the defining loop adds its
    terms in, and each term's rank among its target's terms.
    """
    basis = PnBasis(d, n)
    size = basis.size
    terms = []
    for col, (m, i) in enumerate(basis.items):
        for j in range(d):
            if m[j] == 0:
                continue
            for k in range(d):
                target = list(m)
                target[j] -= 1
                target[k] += 1
                terms.append((basis.index(target, i) * size + col,
                              j * d + k, m[j]))
        for k in range(d):
            terms.append((basis.index(m, k) * size + col, k * d + i, -1))
    target, entry, coef = np.array(terms, np.intp).T
    order = np.argsort(target, kind="stable")
    target, entry, coef = target[order], entry[order], coef[order]
    starts = np.flatnonzero(np.concatenate(([True],
                                            target[1:] != target[:-1])))
    rank = np.arange(target.size) - np.repeat(
        starts, np.diff(np.append(starts, target.size)))
    return target, entry, coef, rank


@functools.lru_cache(maxsize=None)
def _float_layers(d, n):
    """Layer t: (target, e, coefficient) of the rank-t term of every entry
    of J that has one; a layer's targets are distinct."""
    target, entry, coef, rank = _conjugation_terms(d, n)
    return tuple((target[rank == t], entry[rank == t],
                  coef[rank == t].astype(complex))
                 for t in range(rank.max() + 1))


@functools.lru_cache(maxsize=None)
def _exact_feeds(d, n):
    """Per entry e: (coefficient, ((col, row), ...)) for each coefficient
    it enters J with."""
    target, entry, coef, _ = _conjugation_terms(d, n)
    row, col = np.divmod(target, pn_dimension(d, n))
    return tuple(
        tuple((int(c), tuple(zip(col[sel].tolist(), row[sel].tolist())))
              for c in np.unique(coef[entry == e])
              for sel in [(entry == e) & (coef == c)])
        for e in range(d * d))


def conjugation_arrays(mats, basis):
    """J of each matrix of a (K, d, d) complex stack, as (K, N, N) complex128
    in ``basis``.

    Layer t of the plan adds the t-th term of every entry at once, so each
    entry sums its terms one after another in the defining order, as
    ``conjugation_columns`` does (``np.add.reduceat`` groups the terms of a
    run pairwise, which rounds differently).
    """
    d, size = basis.d, basis.size
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[1:] != (d, d):
        raise ShapeError(f"matrices must be {d}x{d} for this basis")
    flat = mats.reshape(len(mats), d * d)
    out = np.zeros((len(mats), size * size), complex)
    for target, entry, coef in _float_layers(d, basis.n):
        out[:, target] += flat[:, entry] * coef
    out = out.reshape(len(mats), size, size)
    if basis.positions is None:
        return out
    slot = np.argsort(basis.positions)    # canonical slot at each position
    return out[:, slot[:, None], slot]


def conjugation_columns(mat, basis):
    """Columns {row: value} of q -> (d_w q) M w - M q in ``basis``.

    Linear in M; each of at most d^2 + d entries is a sum of entries of M.
    Only nonzero entries are kept: a zero entry of M, or a sum that
    cancels, stores nothing.  Exact mode multiplies each nonzero entry of
    M once per coefficient and adds the product into the entries it feeds;
    float mode reads the nonzero entries of ``conjugation_arrays``.
    """
    d = basis.d
    if mat.shape != (d, d):
        raise ShapeError(f"matrix must be {d}x{d} for this basis")
    if not mat.exact:
        op = conjugation_arrays([mat.to_numpy()], basis)[0]
        return [{int(r): complex(op[r, c]) for r in np.flatnonzero(op[:, c])}
                for c in range(basis.size)]
    cols = [{} for _ in range(basis.size)]
    values = (v for row in mat.rows for v in row)
    for value, feeds in zip(values, _exact_feeds(d, basis.n)):
        if not value:
            continue
        for coef, slots in feeds:
            scaled = value * coef
            for col, row in slots:
                entries = cols[col]
                entries[row] = entries[row] + scaled if row in entries \
                    else scaled
    if basis.positions is None:
        return [{row: v for row, v in col.items() if v} for col in cols]
    pos = basis.positions.tolist()
    out = [None] * basis.size
    for col, entries in enumerate(cols):
        out[pos[col]] = {pos[row]: v for row, v in entries.items() if v}
    return out


def conjugation_matrix(mat, basis):
    """The dense N x N form of ``conjugation_columns``."""
    return _dense(conjugation_entries(mat, basis), basis.size, mat.exact)


def conjugation_entries(mat, basis):
    """(row, col, value) of the nonzero entries of J_mat in ``basis``."""
    return [(row, col, value)
            for col, entries in enumerate(conjugation_columns(mat, basis))
            for row, value in entries.items()]


def _dense(entries, size, exact):
    """The size x size CMatrix with the given nonzero entries."""
    rows = [[from_int(0, exact)] * size for _ in range(size)]
    for row, col, value in entries:
        rows[row][col] = value
    return CMatrix(tuple(map(tuple, rows)), exact)


def conjugation_spectrum(mat, basis, eigenvalues=None):
    """Predicted eigenvalue for each basis slot: <lambda, m> - lambda_i.

    Pairs the i-th float eigenvalue of ``mat`` (``eigenvalues`` when
    given, e.g. a cached spectrum) with component i, so the returned list
    is exact as a multiset; the per-slot pairing is canonical only when
    ``mat`` is triangular with its diagonal in order.
    """
    lam = mat_eigenvalues(mat) if eigenvalues is None else eigenvalues
    out = []
    for m, i in basis.items:
        out.append(sum(mj * lj for mj, lj in zip(m, lam)) - lam[i])
    return out


class InducedBlock:
    """The degree-n block of a Fuchsian system.

    J is linear in M.  Exact mode keeps J of B_inf and of the x^i
    coefficients of the d x d QB as (row, col, value) lists of their
    nonzero entries (``sparse_parts``), read from ``conjugation_columns``;
    the exact recursion of ``solve_polynomial`` runs on them, and the dense
    ``b_infinity`` is built only when asked for.  Float mode keeps only
    ``float_arrays``, J of QB's coefficients and of B_inf built in one
    ``conjugation_arrays`` call; its ``b_infinity`` is made from them when
    asked for.
    """

    __slots__ = ("size", "s", "exact", "q_poly", "_binf", "_spec",
                 "_sparse", "_arrays")

    def __init__(self, linear, basis):
        self.size, self.s, self.exact = basis.size, linear.s, linear.exact
        self.q_poly = linear.q_poly
        self._spec = conjugation_spectrum(linear.b_infinity(), basis,
                                          linear.residue_spectrum("inf"))
        self._binf = self._sparse = self._arrays = None
        if self.exact:
            qb = linear.qb_poly()
            self._sparse = (conjugation_entries(linear.b_infinity(), basis), [
                conjugation_entries(qb.coefficient(i), basis)
                for i in range(self.s + 1)])
        else:
            binf, qb = linear.float_arrays()
            stack = conjugation_arrays(np.concatenate([qb, binf[None]]),
                                       basis)
            self._arrays = stack[-1], stack[:-1]

    def b_infinity(self):
        """J_{B_inf} as a CMatrix, built on first use."""
        if self._binf is None:
            self._binf = (_dense(self._sparse[0], self.size, True) if self.exact
                          else CMatrix.from_numpy(self._arrays[0]))
        return self._binf

    def residue_spectrum(self, j):
        """Eigenvalues of J_{B_inf} from those of B_inf (j is 'inf')."""
        return self._spec

    def sparse_parts(self):
        """Exact mode: J_{B_inf} and J of the x^i coefficients of QB,
        i = 0 .. S, as (row, col, value) lists of their nonzero entries."""
        return self._sparse

    def float_arrays(self):
        """J_{B_inf} as a complex128 matrix and the x^i coefficients of QB,
        i = 0 .. S, as one (S + 1, N, N) array; for an exact block, built
        on first use."""
        if self._arrays is None:
            binf, qb = self._sparse
            arrays = np.zeros((self.s + 2, self.size, self.size), complex)
            for i, entries in enumerate([*qb, binf]):
                for row, col, value in entries:
                    arrays[i, row, col] = complex(value)
            self._arrays = arrays[-1], arrays[:-1]
        return self._arrays


def induced_system(linear, n, basis=None):
    """The size-N Fuchsian system governing the degree-n homogeneous block.

    Accepts a FuchsianSystem or anything with a ``linear`` attribute holding
    one, and returns ``(InducedBlock, basis)``.  A custom ``basis`` (e.g. a
    permuted enumeration) may be supplied; results of downstream solves are
    enumeration-independent.
    """
    if hasattr(linear, "linear"):
        linear = linear.linear
    if basis is None:
        basis = PnBasis(linear.size, n)
    elif basis.d != linear.size or basis.n != n:
        raise ShapeError("basis does not match system size / order")
    return InducedBlock(linear, basis), basis


def _int_row(coeffs):
    """Integer row of a trimmed tuple of ExactComplex, None if empty."""
    return _parts_row([c.re for c in coeffs], [c.im for c in coeffs])


def _parts_row(re, im):
    """Integer row of the Fractions ``re`` and ``im`` (None: all zero) of
    one component's coefficients, with its zero top degrees trimmed; None
    if nothing is left."""
    n = len(re)
    while n and not (re[n - 1] or im and im[n - 1]):
        n -= 1
    if not n:
        return None
    parts = [re[:n]] + ([im[:n]] if im and any(im[:n]) else [])
    den = math.lcm(*(v.denominator for part in parts for v in part))
    re, im = [tuple(v.numerator * (den // v.denominator) for v in part)
              for part in parts] + [None] * (2 - len(parts))
    return den, re, im


def _scalars(row):
    """Tuple of ExactComplex of an integer row."""
    if row is None:
        return ()
    den, re, im = row
    if im is None:
        return tuple(ExactComplex(Fraction(v, den)) for v in re)
    return tuple(ExactComplex(Fraction(v, den), Fraction(w, den))
                 for v, w in zip(re, im))


def _slots(basis):
    """Basis position of each store row (see the module docstring)."""
    slots = np.arange(basis.size).reshape(basis.d, -1).T.ravel()
    return slots if basis.positions is None else basis.positions[slots]


def vectorize(rows, basis, exact=False):
    """Store rows in basis order: a (deg + 1, N) array from (N, deg + 1)
    complex rows, or in exact mode a SplitPoly from N integer rows."""
    if len(rows) != basis.size:
        raise ShapeError("row count does not match basis size")
    if not exact:
        return rows[np.argsort(_slots(basis))].T
    size = basis.size
    width = max((len(row[1]) for row in rows if row is not None), default=0)
    re = [[_ZERO] * size for _ in range(width)]
    im = None
    for pos, row in zip(_slots(basis).tolist(), rows):
        if row is None:
            continue
        den, nums_re, nums_im = row
        for k, v in enumerate(nums_re):
            if v:
                re[k][pos] = Fraction(v, den)
        if nums_im is not None:
            if im is None:
                im = [[_ZERO] * size for _ in range(width)]
            for k, v in enumerate(nums_im):
                if v:
                    im[k][pos] = Fraction(v, den)
    return SplitPoly(size, re, im)


def devectorize(stacked, basis, exact=False):
    """Inverse of vectorize: the store rows of a stacked array or, in exact
    mode, of a SplitPoly."""
    if (stacked.dim if exact else stacked.shape[1]) != basis.size:
        raise ShapeError("stacked vector length does not match basis size")
    if not exact:
        return stacked[:, _slots(basis)].T
    re, im = stacked.re, stacked.im
    return [_parts_row([v[pos] for v in re],
                       im and [v[pos] for v in im])
            for pos in _slots(basis).tolist()]

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

Substituting the residues A_j for M gives the size-N system each
homogeneous block of the conjugacy equation satisfies; ``induced_system``
applies it matrix-free, and only J_{B_inf} is formed densely.  ``vectorize``
/ ``devectorize`` translate between per-monomial coefficient tables and the
stacked length-N polynomial the solvers consume.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import from_int
from .matrices import CMatrix, ShapeError, mat_eigenvalues, vec_zero
from .poly import VecPoly


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

    __slots__ = ("d", "n", "items", "_index")

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

    @property
    def size(self):
        return len(self.items)

    def index(self, m, i):
        return self._index[(tuple(m), i)]

    def monomials(self):
        return multiindices(self.d, self.n)

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return f"PnBasis(d={self.d}, n={self.n}, size={self.size})"


def conjugation_columns(mat, basis):
    """Columns {row: value} of q -> (d_w q) M w - M q in ``basis``.

    Linear in M; each of at most d^2 + d entries is a sum of entries of M.
    Only nonzero entries are kept: a zero entry of M, or a sum that
    cancels, stores nothing.
    """
    d = basis.d
    if mat.shape != (d, d):
        raise ShapeError(f"matrix must be {d}x{d} for this basis")
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


def conjugation_matrix(mat, basis):
    """The dense N x N form of ``conjugation_columns``."""
    rows = [[from_int(0, mat.exact)] * basis.size for _ in range(basis.size)]
    for col, entries in enumerate(conjugation_columns(mat, basis)):
        for row, value in entries.items():
            rows[row][col] = value
    return CMatrix(tuple(map(tuple, rows)), mat.exact)


def conjugation_spectrum(mat, basis):
    """Predicted eigenvalue for each basis slot: <lambda, m> - lambda_i.

    Pairs the i-th float eigenvalue of ``mat`` with component i, so the
    returned list is exact as a multiset; the per-slot pairing is canonical
    only when ``mat`` is triangular with its diagonal in order.
    """
    lam = mat_eigenvalues(mat)
    out = []
    for m, i in basis.items:
        out.append(sum(mj * lj for mj, lj in zip(m, lam)) - lam[i])
    return out


class InducedBlock:
    """The degree-n block of a Fuchsian system, applied matrix-free.

    J is linear in M, so ``qb_matvec`` applies J of the x^i coefficient of
    the d x d QB.  The one N x N matrix is J_{B_inf}, for the k-shifts.
    """

    __slots__ = ("size", "s", "exact", "q_poly", "_binf", "_spec", "_qb",
                 "_arrays")

    def __init__(self, linear, basis):
        self.size, self.s, self.exact = basis.size, linear.s, linear.exact
        self.q_poly = linear.q_poly
        self._binf = conjugation_matrix(linear.b_infinity(), basis)
        self._spec = conjugation_spectrum(linear.b_infinity(), basis)
        qb = linear.qb_poly()
        self._qb = [conjugation_columns(qb.coefficient(i), basis)
                    for i in range(self.s + 1)]
        self._arrays = None

    def b_infinity(self):
        return self._binf

    def residue_spectrum(self, j):
        """Eigenvalues of J_{B_inf} from those of B_inf (j is 'inf')."""
        return self._spec

    def float_arrays(self):
        """J_{B_inf} as a complex128 matrix and the x^i coefficients of QB,
        i = 0 .. S, as one (S + 1, N, N) array; built on first use."""
        if self._arrays is None:
            qb = np.zeros((self.s + 1, self.size, self.size), complex)
            for i, cols in enumerate(self._qb):
                for col, entries in enumerate(cols):
                    for row, value in entries.items():
                        qb[i, row, col] = complex(value)
            self._arrays = self._binf.to_numpy(), qb
        return self._arrays

    def qb_matvec(self, i, v):
        """(x^i coefficient of the block's QB) applied to v."""
        out = list(vec_zero(self.size, self.exact))
        for vc, col in zip(v, self._qb[i]):
            for row, value in col.items():
                out[row] = out[row] + value * vc
        return tuple(out)


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


def vectorize(table, basis, exact=False):
    """Stack a {monomial: VecPoly(d)} table into one VecPoly of length N."""
    deg = -1
    for m, p in table.items():
        if sum(m) != basis.n:
            raise ShapeError(
                f"monomial {m} has order {sum(m)}, basis expects {basis.n}"
            )
        if p.dim != basis.d:
            raise ShapeError("table entry dimension mismatch")
        deg = max(deg, p.degree)
    coeffs = []
    for k in range(deg + 1):
        row = []
        for m, i in basis.items:
            p = table.get(m)
            if p is None:
                row.append(from_int(0, exact))
            else:
                row.append(p.coefficient(k)[i])
        coeffs.append(tuple(row))
    return VecPoly.from_coeffs(coeffs, exact, dim=basis.size)


def devectorize(stacked, basis, exact=False):
    """Inverse of vectorize; drops identically-zero monomial entries."""
    if stacked.dim != basis.size:
        raise ShapeError("stacked vector length does not match basis size")
    out = {}
    for m in basis.monomials():
        coeffs = []
        for k in range(stacked.degree + 1):
            vk = stacked.coefficient(k)
            coeffs.append(tuple(vk[basis.index(m, i)] for i in range(basis.d)))
        p = VecPoly.from_coeffs(coeffs, exact, dim=basis.d)
        if not p.is_zero():
            out[m] = p
    return out


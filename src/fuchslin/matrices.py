"""Small dense matrices over either scalar ring.

Matrices here are tiny (a system of size d induces blocks of size
d*(n+d-1)!/(n!(d-1)!), a few dozen at most), so these are plain tuples of
tuples with straightforward O(n^3) algorithms.  Float-mode solves and all
eigenvalues go through numpy; exact-mode solves do Gauss-Jordan elimination
in the Gaussian rationals, pivoting on the first exactly nonzero entry (never
on a float magnitude, which can underflow to zero or overflow) and skipping
the products with the exact zeros that fill the sparse induced blocks.
"""

from __future__ import annotations

import numpy as np

from .exact import ExactComplex, coerce_scalar, from_int, scalar_is_zero


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class SingularMatrixError(ValueError):
    """A matrix that needed inverting is (numerically) singular."""


class CMatrix:
    """Immutable dense matrix with entries in one scalar ring."""

    __slots__ = ("rows", "n_rows", "n_cols", "exact")

    def __init__(self, rows, exact):
        self.rows = rows          # tuple of tuples, already coerced
        self.n_rows = len(rows)
        self.n_cols = len(rows[0]) if rows else 0
        self.exact = exact

    @classmethod
    def from_rows(cls, rows, exact=False):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        data = tuple(
            tuple(coerce_scalar(v, exact) for v in r) for r in rows
        )
        return cls(data, exact)

    @classmethod
    def identity(cls, n, exact=False):
        one = from_int(1, exact)
        zero = from_int(0, exact)
        return cls(
            tuple(
                tuple(one if i == j else zero for j in range(n))
                for i in range(n)
            ),
            exact,
        )

    @classmethod
    def zeros(cls, n_rows, n_cols, exact=False):
        zero = from_int(0, exact)
        return cls(tuple((zero,) * n_cols for _ in range(n_rows)), exact)

    @classmethod
    def from_numpy(cls, arr):
        return cls(tuple(tuple(complex(v) for v in row) for row in arr), False)

    # -- basic access ----------------------------------------------------

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def is_square(self):
        return self.n_rows == self.n_cols

    def entry(self, i, j):
        return self.rows[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def to_numpy(self):
        return np.array(
            [[complex(v) for v in row] for row in self.rows], dtype=complex
        )

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"CMatrix({self.n_rows}x{self.n_cols}, {kind})"

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    # -- arithmetic ------------------------------------------------------

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return CMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.exact,
        )

    def __sub__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return CMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.exact,
        )

    def scale(self, s):
        return CMatrix(
            tuple(tuple(s * a for a in r) for r in self.rows), self.exact
        )

    def __matmul__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        if self.n_cols != other.n_rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        cols = tuple(zip(*other.rows))
        return CMatrix(
            tuple(
                tuple(_dot(r, c) for c in cols) for r in self.rows
            ),
            self.exact,
        )

    def matvec(self, v):
        if len(v) != self.n_cols:
            raise ShapeError(f"matvec: {self.shape} with length-{len(v)} vector")
        return tuple(_dot(r, v) for r in self.rows)

    def add_scaled_identity(self, s):
        """self + s*I, with s an int or a ring scalar."""
        if not self.is_square:
            raise ShapeError("add_scaled_identity needs a square matrix")
        if isinstance(s, int):
            s = from_int(s, self.exact)
        return CMatrix(
            tuple(
                tuple(
                    a + s if i == j else a
                    for j, a in enumerate(r)
                )
                for i, r in enumerate(self.rows)
            ),
            self.exact,
        )

    # -- predicates ------------------------------------------------------

    def max_abs(self):
        return max((abs(v) for r in self.rows for v in r if v), default=0.0)

    def is_zero(self, tol=0.0):
        return all(scalar_is_zero(v, tol) for r in self.rows for v in r)


def _dot(a, b):
    it = zip(a, b)
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


# -- vectors (plain tuples) ---------------------------------------------


def vec_zero(n, exact=False):
    return (from_int(0, exact),) * n


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(s, v):
    return tuple(s * x for x in v)


def vec_max_abs(v):
    return max(abs(x) for x in v) if v else 0.0


def vec_is_zero(v, tol=0.0):
    return all(scalar_is_zero(x, tol) for x in v)


# -- eigenvalues / solving ----------------------------------------------


def mat_eigenvalues(m):
    """Eigenvalues as a list of python complex, always via floating point.

    Exact matrices are converted to complex first, so in exact mode a
    spectrum only proposes: ``model.singular_shifts`` confirms each nearby
    integer shift by exact elimination before it rejects an input.
    """
    if not m.is_square:
        raise ShapeError("eigenvalues need a square matrix")
    return [complex(z) for z in np.linalg.eigvals(m.to_numpy())]


def solve_linear(a, b, tol=1e-12):
    """Solve a x = b for a vector (tuple) or matrix right-hand side.

    Exact mode eliminates in the Gaussian rationals and raises
    SingularMatrixError on a structurally singular pivot.  Float mode uses
    numpy and validates the residual so near-singular systems fail loudly
    instead of returning noise; a non-finite right-hand side raises
    ArithmeticError, since no matrix could make its residual small.
    """
    if not a.is_square:
        raise ShapeError("solve needs a square matrix")
    mat_rhs = isinstance(b, CMatrix)
    if mat_rhs:
        if b.n_rows != a.n_rows:
            raise ShapeError("rhs height mismatch")
        cols = [b.col(j) for j in range(b.n_cols)]
    else:
        if len(b) != a.n_rows:
            raise ShapeError("rhs length mismatch")
        cols = [tuple(b)]

    if a.exact:
        sol_cols = _solve_exact(a, cols)
    else:
        sol_cols = _solve_float(a, cols, tol)

    if mat_rhs:
        return CMatrix(tuple(zip(*sol_cols)), a.exact)
    return sol_cols[0]


def mat_inverse(a, tol=1e-12):
    return solve_linear(a, CMatrix.identity(a.n_rows, a.exact), tol)


def is_invertible(a, tol=1e-12):
    try:
        mat_inverse(a, tol)
        return True
    except SingularMatrixError:
        return False


def _solve_float(a, cols, tol):
    x = solve_array(a.to_numpy(), np.array(cols, dtype=complex).T, tol)
    return [tuple(complex(v) for v in x[:, j]) for j in range(x.shape[1])]


def solve_array(an, rhs, tol=1e-12):
    """Solve ``an @ x = rhs`` for complex128 arrays, checked as
    ``solve_linear`` checks a float solve: a non-finite right-hand side
    raises ArithmeticError, a singular matrix or a residual above the
    bound SingularMatrixError."""
    if not np.isfinite(rhs).all():
        raise ArithmeticError("non-finite right-hand side in a float solve")
    try:
        x = np.linalg.solve(an, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(str(err)) from None
    scale = max(1.0, float(np.max(np.abs(an))) * float(np.max(np.abs(x), initial=0.0)))
    with np.errstate(over="ignore", invalid="ignore"):  # x may overflow
        resid = np.max(np.abs(an @ x - rhs), initial=0.0)
    if not np.isfinite(resid) or resid > scale * max(tol, 1e-12) * 1e4:
        raise SingularMatrixError(
            f"solve residual {resid:.3e} exceeds tolerance (near-singular matrix)"
        )
    return x


def _solve_exact(a, cols):
    n = a.n_rows
    work = [list(r) + [c[i] for c in cols] for i, r in enumerate(a.rows)]
    width = n + len(cols)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if work[r][k]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"exact pivot vanished at column {k}")
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
        # columns < k of the pivot row are already zero; only its nonzero
        # columns enter the other rows
        row_k = work[k]
        inv = ExactComplex(1) / row_k[k]
        pivot = [(j, row_k[j] * inv) for j in range(k, width) if row_k[j]]
        for j, v in pivot:
            row_k[j] = v
        for r in range(n):
            row = work[r]
            f = row[k]
            if r != k and f:
                for j, v in pivot:
                    row[j] = row[j] - f * v
    return [
        tuple(work[i][n + j] for i in range(n)) for j in range(width - n)
    ]

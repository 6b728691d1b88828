"""Small dense matrices over either scalar ring, and the exact elimination.

Matrices here are tiny (a system of size d induces blocks of size
d*(n+d-1)!/(n!(d-1)!), a few dozen at most), so these are plain tuples of
tuples with straightforward O(n^3) algorithms.  Float-mode solves and all
eigenvalues go through numpy.  One rule, ``first_failed_solve``, accepts
the float solves of ``solve_linear`` (``solve_array``) and of the
correction's recursions (all shifts k + M at once): a finite right-hand
side and a residual within a bound scaled by the matrix and the
solution.  The analytic route's certificate checks its own.  Every exact
solve is one routine, ``SparseMatrix.solve``: sparse Gauss-Jordan over
the rationals on rows {col: Fraction}, built from a
matrix's one exact entry form (``CMatrix.entries``),
(den, [(row, col, re, im), ...]) with integer parts over one
denominator, a real matrix as itself and a Gaussian-rational one as its
real 2n embedding [[A, -B], [B, A]].  Its right-hand sides and solutions
are integer columns over one positive denominator, (den, columns), the
solution's the least one.  Only the elimination turns the matrix's
integers into Fractions, whose entries are small, and it is the one
place where Fraction arithmetic happens.  It pivots on exactly nonzero
entries only (never on a float magnitude, which can underflow to zero or
overflow), takes a live row with the fewest entries next (a triangular
matrix in any order is then back-substitution) and never multiplies by
an exact zero.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

import numpy as np

from .exact import (ExactComplex, clear_denominators, coerce_scalar, from_int,
                    scalar_is_zero)


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

    def entries(self):
        """The nonzero entries of an exact matrix as (den, [(row, col, re,
        im), ...]), row by row: their real and imaginary parts integers
        over their least common denominator."""
        live = [(r, c, v) for r, row in enumerate(self.rows)
                for c, v in enumerate(row) if v]
        den, nums = clear_denominators([x for *_, v in live
                                        for x in (v.re, v.im)])
        return den, [(r, c, re, im) for (r, c, _), re, im
                     in zip(live, nums[::2], nums[1::2])]

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

    __rmul__ = scale   # s * M, as in a Taylor shift of matrix coefficients

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
    spectrum only proposes: ``model.singular_shifts`` decides each nearby
    shift exactly.  A non-finite entry raises ArithmeticError.
    """
    if not m.is_square:
        raise ShapeError("eigenvalues need a square matrix")
    a = m.to_numpy()
    if not np.isfinite(a).all():
        raise ArithmeticError("eigenvalues of a non-finite matrix")
    return [complex(z) for z in np.linalg.eigvals(a)]


def solve_linear(a, b, tol=1e-12):
    """Solve a x = b for a vector (tuple) b.

    Exact mode eliminates in the Gaussian rationals and raises
    SingularMatrixError on a structurally singular pivot.  Float mode is
    ``solve_array``, which checks the solve so near-singular systems fail
    loudly instead of returning noise.
    """
    if not a.is_square:
        raise ShapeError("solve needs a square matrix")
    if len(b) != a.n_rows:
        raise ShapeError("rhs length mismatch")
    if a.exact:
        return _solve_exact(a, b)
    x = solve_array(a.to_numpy(), np.array(b, dtype=complex), tol)
    return tuple(complex(v) for v in x)


def solve_array(an, rhs, tol=1e-12):
    """Solve ``an @ x = rhs`` for a complex128 matrix and vector, checked by
    ``first_failed_solve``: a non-finite right-hand side raises
    ArithmeticError, a singular matrix or a residual above the bound
    SingularMatrixError."""
    try:
        xs = np.linalg.solve(an, rhs)[None]
    except np.linalg.LinAlgError:
        xs = np.empty((0, len(rhs)), complex)
    failed = first_failed_solve(an, [0], xs, rhs[None], tol)
    if failed:
        raise failed[1]
    return xs[0]


def first_failed_solve(mat, ks, xs, rhs, tol=1e-12):
    """The first of the float solves (mat + k I) x = rhs, k in ``ks`` in
    the order given, that float mode refuses, as (k, error); None when
    every one passes.

    Row i of ``xs`` and of ``rhs`` is the solution and the right-hand side
    at ks[i].  ``xs`` may stop one row short: the solve after its last row
    raised numpy's LinAlgError.  A solve fails on a non-finite right-hand
    side (ArithmeticError), on a LinAlgError, and on a residual
    |(mat + k I) x - rhs| that is not finite or exceeds
    max(1, max|mat + k I| max|x|) * max(tol, 1e-12) * 10^4
    (SingularMatrixError).  The residuals are taken for every solve at
    once; the message recomputes the failing one's as (mat + k I) x - rhs.
    """
    ks = np.asarray(ks)
    ran = len(xs)
    failed = ~np.isfinite(rhs).all(axis=1)
    off = np.abs(mat)
    np.fill_diagonal(off, 0.0)
    shift_max = np.maximum(off.max(), np.abs(np.diagonal(mat)
                                             + ks[:ran, None]).max(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):   # x may overflow
        scale = np.fmax(1.0, shift_max * np.abs(xs).max(axis=1, initial=0.0))
        resid = np.abs(xs @ mat.T + ks[:ran, None] * xs - rhs[:ran]).max(
            axis=1, initial=0.0)
        failed[:ran] |= ~np.isfinite(resid) | (
            resid > scale * max(tol, 1e-12) * 1e4)
    failed[ran:] = True
    if not failed.any():
        return None
    i = int(np.argmax(failed))
    k = int(ks[i])
    if not np.isfinite(rhs[i]).all():
        return k, ArithmeticError("non-finite right-hand side in a float "
                                  "solve")
    if i == ran:
        return k, SingularMatrixError("Singular matrix")
    shifted = mat.copy()
    np.fill_diagonal(shifted, np.diagonal(mat) + k)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.max(np.abs(shifted @ xs[i] - rhs[i]))
    return k, SingularMatrixError(
        f"solve residual {resid:.3e} exceeds tolerance (near-singular matrix)")


def _solve_exact(a, b):
    """The exact solution of a x = b for a vector b of Gaussian rationals:
    a real ``a`` takes b's real and imaginary parts as two columns of one
    elimination, a nonreal one its real 2n embedding."""
    n = a.n_rows
    op = SparseMatrix(n, a.entries())
    den, nums = clear_denominators([z.re for z in b] + [z.im for z in b])
    den, x = op.solve((den, [nums] if op.embedded else [nums[:n], nums[n:]]))
    re, im = (x[0][:n], x[0][n:]) if op.embedded else x
    return tuple(ExactComplex(Fraction(u, den), Fraction(v, den))
                 for u, v in zip(re, im))


def split_entries(entries, n, embed):
    """Real (row, col, value) entries of (row, col, re, im) ones: their
    real parts, or with ``embed`` the real 2n embedding [[A, -B], [B, A]]
    of the n x n matrix A + iB they list, the values as given."""
    out = []
    for r, c, re, im in entries:
        if re:
            out.append((r, c, re))
            if embed:
                out.append((r + n, c + n, re))
        if embed and im:
            out += [(r, c + n, -im), (r + n, c, im)]
    return out


class SparseMatrix:
    """A square Gaussian-rational matrix as real sparse rows {col: Fraction}
    for the exact elimination: the n x n matrix itself when every entry is
    real and ``embed`` is false, else its real 2n embedding
    [[A, -B], [B, A]], which acts on a vector as its real parts followed by
    its imaginary parts.  ``entries`` is (den, [(row, col, re, im), ...]),
    the nonzero entries' integer parts over one denominator, as
    ``CMatrix.entries`` gives them.  The real rows, each value
    Fraction(v, den), are built on the first solve, so the Fraction
    arithmetic on the matrix all happens in the elimination."""

    __slots__ = ("size", "embedded", "entries", "_rows")

    def __init__(self, n, entries, embed=False):
        self.entries = entries
        self.embedded = embed or any(im for *_, im in entries[1])
        self.size = 2 * n if self.embedded else n
        self._rows = None

    def max_abs(self):
        """Largest |entry| of the Gaussian-rational matrix, as a float."""
        den, entries = self.entries
        return max((abs(complex(re / den, im / den))
                    for _, _, re, im in entries), default=0.0)

    def _real_rows(self):
        """The real rows {col: Fraction}, built on the first call."""
        if self._rows is None:
            n = self.size // 2 if self.embedded else self.size
            den, entries = self.entries
            self._rows = [{} for _ in range(self.size)]
            for r, c, v in split_entries(entries, n, self.embedded):
                self._rows[r][c] = Fraction(v, den)
        return self._rows

    def singular(self, shift=0):
        """Whether this matrix plus ``shift`` I is singular."""
        try:
            self.solve((1, []), shift)
        except SingularMatrixError:
            return True
        return False

    def solve(self, cols, shift=0):
        """Solutions x of (A + shift I) x = c for the real columns c of
        ``cols``, given as (den, numerators): integer columns over one
        positive denominator.  Returns x in the same form, its denominator
        the least one; SingularMatrixError when A + shift I is singular.

        The elimination solves for den x, on Fractions: each step pivots on
        a live row with the fewest entries, at its lowest column, and
        eliminates that column from the other live rows; back-substitution
        in reverse pivot order then reads the pivot rows.
        """
        den, cols = cols
        size = self.size
        rows = [dict(r) for r in self._real_rows()]
        if shift:
            shift = Fraction(shift)
            for i, row in enumerate(rows):
                v = row.get(i, 0) + shift
                if v:
                    row[i] = v
                else:
                    del row[i]
        rhs = [[c[i] for c in cols] for i in range(size)]
        where = [set() for _ in range(size)]   # live rows holding a column
        for r, row in enumerate(rows):
            for c in row:
                where[c].add(r)
        heap = [(len(row), r) for r, row in enumerate(rows)]
        heapq.heapify(heap)
        done = [False] * size
        pivots = []
        while heap:
            length, p = heapq.heappop(heap)
            row = rows[p]
            if done[p] or length != len(row):
                continue
            if not row:
                raise SingularMatrixError(
                    f"exact pivot vanished after {len(pivots)} pivots")
            done[p] = True
            c = min(row)
            pivots.append((p, c))
            inv = 1 / row.pop(c)
            for key in row:
                row[key] *= inv
                where[key].discard(p)
            b = rhs[p]
            b[:] = [v * inv if v else v for v in b]
            for r in where[c]:
                if r == p:
                    continue
                target = rows[r]
                f = target.pop(c)
                for key, v in row.items():
                    w = target.get(key)
                    if w is None:
                        target[key] = -f * v
                        where[key].add(r)
                    else:
                        w -= f * v
                        if w:
                            target[key] = w
                        else:
                            del target[key]
                            where[key].discard(r)
                tb = rhs[r]
                for j, v in enumerate(b):
                    if v:
                        tb[j] -= f * v
                heapq.heappush(heap, (len(target), r))
            where[c] = ()
        x = [None] * size
        for p, c in reversed(pivots):
            b = rhs[p]
            for key, v in rows[p].items():
                for j, u in enumerate(x[key]):
                    if u:
                        b[j] -= v * u
            x[c] = b
        # den x over the lcm of its denominators, then x itself: only
        # factors of den can be common to the numerators and den
        lcm, nums = clear_denominators([v for b in x for v in b])
        common = math.gcd(den, *nums)
        nums = [v // common for v in nums]
        return lcm * (den // common), [nums[j::len(cols)]
                                       for j in range(len(cols))]

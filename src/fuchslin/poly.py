"""Polynomials in one variable with scalar, vector, or matrix coefficients.

Coefficients are stored densely in ascending powers.  The zero polynomial
has an empty coefficient tuple and degree -1 (an int sentinel, so degree
arithmetic never leaves int).

Scalar polynomials are bare tuples manipulated by the ``sp_*`` functions;
:class:`VecPoly` and :class:`MatPoly` wrap tuples of coefficient vectors /
matrices and carry their dimension and scalar ring.  :class:`SplitPoly` is
the exact correction's one working form: per degree, integer numerators
over one denominator, real and imaginary parts apart; ``from_vecpoly``
and ``to_vecpoly`` convert at the boundary.

Arithmetic only strips coefficients that are exactly zero; lossy trimming
against a tolerance is always an explicit ``trim(tol)`` call so float noise
is dropped deliberately, not accidentally.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .exact import ExactComplex, clear_denominators, from_int, scalar_is_zero
from .matrices import (
    CMatrix,
    ShapeError,
    vec_add,
    vec_is_zero,
    vec_max_abs,
    vec_scale,
    vec_sub,
    vec_zero,
)

# ----------------------------------------------------------------------
# scalar polynomials: plain tuples, ascending powers
# ----------------------------------------------------------------------


def sp_trim(coeffs, tol=0.0):
    coeffs = list(coeffs)
    while coeffs and scalar_is_zero(coeffs[-1], tol):
        coeffs.pop()
    return tuple(coeffs)


def sp_mul(a, b, exact=False):
    if not a or not b:
        return ()
    out = [from_int(0, exact)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return sp_trim(out)


def sp_diff(a):
    return tuple(k * c for k, c in enumerate(a) if k > 0)


def sp_eval(a, x):
    acc = None
    for c in reversed(a):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return 0 * x
    return acc


def sp_from_roots(roots, exact=False):
    """Monic polynomial with the given roots."""
    out = (from_int(1, exact),)
    for r in roots:
        out = sp_mul(out, (-r, from_int(1, exact)), exact)
    return out


def sp_divmod(num, den, exact=False):
    """Polynomial long division; the leading denominator coefficient must be
    invertible in the ring (it always is here: divisors are monic)."""
    den = sp_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    lead = den[-1]
    dq = len(num) - len(den)
    if dq < 0:
        return (), sp_trim(rem)
    quot = [from_int(0, exact)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(den) - 1] / lead
        quot[k] = c
        if not scalar_is_zero(c):
            for j, dj in enumerate(den):
                rem[k + j] = rem[k + j] - c * dj
    return sp_trim(quot), sp_trim(rem)


def sp_taylor(a, center):
    """Coefficients of a(center + t) in powers of t (same length)."""
    out = list(a)
    n = len(out)
    # classic in-place Taylor shift by repeated Horner passes
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            out[k] = out[k] + center * out[k + 1]
    return tuple(out)


# ----------------------------------------------------------------------
# vector-valued polynomials
# ----------------------------------------------------------------------


class VecPoly:
    """Polynomial with length-``dim`` vector coefficients."""

    __slots__ = ("dim", "coeffs", "exact")

    def __init__(self, dim, coeffs, exact):
        self.dim = dim
        self.coeffs = coeffs
        self.exact = exact

    @classmethod
    def zero(cls, dim, exact=False):
        return cls(dim, (), exact)

    @classmethod
    def from_coeffs(cls, coeff_vectors, exact=False, dim=None):
        coeff_vectors = [tuple(v) for v in coeff_vectors]
        if dim is None:
            if not coeff_vectors:
                raise ShapeError("need dim for an empty coefficient list")
            dim = len(coeff_vectors[0])
        if any(len(v) != dim for v in coeff_vectors):
            raise ShapeError("ragged coefficient vectors")
        while coeff_vectors and vec_is_zero(coeff_vectors[-1]):
            coeff_vectors.pop()
        return cls(dim, tuple(coeff_vectors), exact)

    @classmethod
    def from_components(cls, comps, exact=False):
        """VecPoly with component i the coefficient sequence comps[i]."""
        return cls.from_coeffs(
            itertools.zip_longest(*comps, fillvalue=from_int(0, exact)),
            exact, dim=len(comps))

    @classmethod
    def constant(cls, vec, exact=False):
        return cls.from_coeffs([tuple(vec)], exact)

    @classmethod
    def monomial(cls, vec, power, exact=False):
        vec = tuple(vec)
        pad = [vec_zero(len(vec), exact)] * power
        return cls.from_coeffs(pad + [vec], exact)

    # -- structure -------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self, tol=0.0):
        return all(vec_is_zero(v, tol) for v in self.coeffs)

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return vec_zero(self.dim, self.exact)

    def component(self, i):
        """Scalar polynomial of the i-th vector component."""
        return sp_trim(tuple(v[i] for v in self.coeffs))

    def max_abs(self):
        return max((vec_max_abs(v) for v in self.coeffs), default=0.0)

    def trim(self, tol):
        coeffs = list(self.coeffs)
        while coeffs and vec_is_zero(coeffs[-1], tol):
            coeffs.pop()
        return VecPoly(self.dim, tuple(coeffs), self.exact)

    # -- arithmetic ------------------------------------------------------

    def _strip(self, coeffs):
        while coeffs and vec_is_zero(coeffs[-1]):
            coeffs.pop()
        return VecPoly(self.dim, tuple(coeffs), self.exact)

    def __add__(self, other):
        if not isinstance(other, VecPoly):
            return NotImplemented
        if other.dim != self.dim:
            raise ShapeError("vector dimension mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        out = [
            vec_add(self.coefficient(k), other.coefficient(k)) for k in range(n)
        ]
        return self._strip(out)

    def __sub__(self, other):
        if not isinstance(other, VecPoly):
            return NotImplemented
        if other.dim != self.dim:
            raise ShapeError("vector dimension mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        out = [
            vec_sub(self.coefficient(k), other.coefficient(k)) for k in range(n)
        ]
        return self._strip(out)

    def __neg__(self):
        return VecPoly(
            self.dim, tuple(vec_scale(-1, v) for v in self.coeffs), self.exact
        )

    def scale(self, s):
        return self._strip([vec_scale(s, v) for v in self.coeffs])

    def mul_sp(self, sp):
        """Multiply by a scalar polynomial (tuple of coefficients)."""
        if not sp or not self.coeffs:
            return VecPoly.zero(self.dim, self.exact)
        out = [
            vec_zero(self.dim, self.exact)
            for _ in range(len(sp) + len(self.coeffs) - 1)
        ]
        for i, s in enumerate(sp):
            if scalar_is_zero(s):
                continue
            for j, v in enumerate(self.coeffs):
                out[i + j] = vec_add(out[i + j], vec_scale(s, v))
        return self._strip(out)

    def derivative(self):
        out = [vec_scale(k, v) for k, v in enumerate(self.coeffs) if k > 0]
        return self._strip(out)

    def eval(self, x):
        acc = vec_zero(self.dim, self.exact) if not self.coeffs else None
        for v in reversed(self.coeffs):
            if acc is None:
                acc = v
            else:
                acc = vec_add(vec_scale(x, acc), v)
        if acc is None:
            acc = vec_zero(self.dim, self.exact)
        return acc

    def taylor_at(self, center):
        """Coefficient vectors of self(center + t) in powers of t."""
        comps = [
            sp_taylor(tuple(v[i] for v in self.coeffs), center)
            for i in range(self.dim)
        ]
        n = len(self.coeffs)
        return [tuple(comps[i][k] for i in range(self.dim)) for k in range(n)]

    def div_exact_sp(self, sp, tol=0.0):
        """Divide by a scalar polynomial that must divide self exactly.

        Float mode tolerates a remainder up to tol * scale and discards it.
        """
        quot_comps = []
        scale = max(1.0, self.max_abs()) if not self.exact else None
        for i in range(self.dim):
            q, r = sp_divmod(self.component(i), sp, self.exact)
            if self.exact:
                if r:
                    raise ValueError("inexact polynomial division")
            else:
                if r and max(abs(c) for c in r) > max(tol, 1e-12) * scale * 1e2:
                    raise ValueError(
                        f"polynomial division remainder too large: "
                        f"{max(abs(c) for c in r):.3e}"
                    )
            quot_comps.append(q)
        deg = max((len(q) for q in quot_comps), default=0)
        coeffs = [
            tuple(
                q[k] if k < len(q) else from_int(0, self.exact)
                for q in quot_comps
            )
            for k in range(deg)
        ]
        return VecPoly.from_coeffs(coeffs, self.exact, dim=self.dim)

    def __repr__(self):
        return f"VecPoly(dim={self.dim}, degree={self.degree})"


class SplitPoly(NamedTuple):
    """An exact vector polynomial as integer rows over one denominator per
    degree, real and imaginary parts apart: component i at x^k is
    (re[k][i] + i im[k][i]) / den[k], with den[k] > 0 and ``im`` None when
    every imaginary part is zero.  Top degrees may be zero.  The exact
    recursion of ``correction`` runs on this form, at infinity and at a
    pole; ``pnspace.vectorize`` builds it from the engine's store rows and
    ``from_vecpoly`` from a VecPoly, neither with Fraction arithmetic."""

    dim: int
    den: list
    re: list
    im: list | None

    @classmethod
    def from_vecpoly(cls, p):
        den, re, im = [], [], []
        for v in p.coeffs:
            d, nums = clear_denominators([z.re for z in v] + [z.im for z in v])
            den.append(d)
            re.append(nums[:p.dim])
            im.append(nums[p.dim:])
        return cls(p.dim, den, re, im if any(map(any, im)) else None)

    def coefficient(self, k):
        """The x^k coefficient as a tuple of ExactComplex."""
        if k >= len(self.re):
            return (ExactComplex(0),) * self.dim
        den = self.den[k]
        return tuple(ExactComplex(Fraction(a, den), Fraction(b, den))
                     for a, b in zip(self.re[k], self.im[k] if self.im
                                     else [0] * self.dim))

    def to_vecpoly(self):
        return VecPoly.from_coeffs(map(self.coefficient, range(len(self.re))),
                                   True, dim=self.dim)


# ----------------------------------------------------------------------
# matrix-valued polynomials
# ----------------------------------------------------------------------


class MatPoly:
    """Polynomial with n_rows x n_cols matrix coefficients."""

    __slots__ = ("n_rows", "n_cols", "coeffs", "exact")

    def __init__(self, n_rows, n_cols, coeffs, exact):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.coeffs = coeffs
        self.exact = exact

    @classmethod
    def zero(cls, n_rows, n_cols, exact=False):
        return cls(n_rows, n_cols, (), exact)

    @classmethod
    def from_coeffs(cls, coeff_mats, exact=False, shape=None):
        coeff_mats = list(coeff_mats)
        if shape is None:
            if not coeff_mats:
                raise ShapeError("need shape for an empty coefficient list")
            shape = coeff_mats[0].shape
        if any(m.shape != shape for m in coeff_mats):
            raise ShapeError("ragged coefficient matrices")
        while coeff_mats and coeff_mats[-1].is_zero():
            coeff_mats.pop()
        return cls(shape[0], shape[1], tuple(coeff_mats), exact)

    @classmethod
    def constant(cls, mat):
        return cls.from_coeffs([mat], mat.exact)

    @classmethod
    def identity_constant(cls, n, exact=False):
        return cls.constant(CMatrix.identity(n, exact))

    # -- structure -------------------------------------------------------

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self, tol=0.0):
        return all(m.is_zero(tol) for m in self.coeffs)

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return CMatrix.zeros(self.n_rows, self.n_cols, self.exact)

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def entry(self, i, j):
        """Scalar polynomial of the (i, j) entry."""
        return sp_trim(tuple(m.entry(i, j) for m in self.coeffs))

    # -- arithmetic ------------------------------------------------------

    def _strip(self, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        return MatPoly(self.n_rows, self.n_cols, tuple(coeffs), self.exact)

    def __add__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        if other.shape != self.shape:
            raise ShapeError("matrix shape mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        return self._strip(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        if other.shape != self.shape:
            raise ShapeError("matrix shape mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        return self._strip(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def scale(self, s):
        return self._strip([m.scale(s) for m in self.coeffs])

    def mul_sp(self, sp):
        if not sp or not self.coeffs:
            return MatPoly.zero(self.n_rows, self.n_cols, self.exact)
        out = [
            CMatrix.zeros(self.n_rows, self.n_cols, self.exact)
            for _ in range(len(sp) + len(self.coeffs) - 1)
        ]
        for i, s in enumerate(sp):
            if scalar_is_zero(s):
                continue
            for j, m in enumerate(self.coeffs):
                out[i + j] = out[i + j] + m.scale(s)
        return self._strip(out)

    def mul_mat(self, other):
        """self(x) @ other(x) for another MatPoly."""
        if self.n_cols != other.n_rows:
            raise ShapeError("matrix polynomial product shape mismatch")
        if not self.coeffs or not other.coeffs:
            return MatPoly.zero(self.n_rows, other.n_cols, self.exact)
        out = [
            CMatrix.zeros(self.n_rows, other.n_cols, self.exact)
            for _ in range(len(self.coeffs) + len(other.coeffs) - 1)
        ]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a @ b
        while out and out[-1].is_zero():
            out.pop()
        return MatPoly(self.n_rows, other.n_cols, tuple(out), self.exact)

    def mul_vec(self, vp):
        """self(x) @ v(x) for a VecPoly v."""
        if self.n_cols != vp.dim:
            raise ShapeError("matrix-vector polynomial shape mismatch")
        if not self.coeffs or not vp.coeffs:
            return VecPoly.zero(self.n_rows, self.exact)
        out = [
            vec_zero(self.n_rows, self.exact)
            for _ in range(len(self.coeffs) + len(vp.coeffs) - 1)
        ]
        for i, a in enumerate(self.coeffs):
            for j, v in enumerate(vp.coeffs):
                out[i + j] = vec_add(out[i + j], a.matvec(v))
        while out and vec_is_zero(out[-1]):
            out.pop()
        return VecPoly(self.n_rows, tuple(out), self.exact)

    def mul_const_vec(self, vec):
        """self(x) @ c for a constant vector c (tuple)."""
        out = [m.matvec(vec) for m in self.coeffs]
        while out and vec_is_zero(out[-1]):
            out.pop()
        return VecPoly(self.n_rows, tuple(out), self.exact)

    def derivative(self):
        out = [m.scale(k) for k, m in enumerate(self.coeffs) if k > 0]
        return self._strip(out)

    def __repr__(self):
        return (
            f"MatPoly({self.n_rows}x{self.n_cols}, degree={self.degree})"
        )

"""Exact complex scalars over the rationals.

The whole library runs over one of two scalar rings: ordinary python
``complex`` (float mode) or :class:`ExactComplex`, a Gaussian rational built
on :class:`fractions.Fraction` (exact mode).  The dense matrix and
polynomial types are generic in the scalar and serve both modes; the hot
paths are not: exact mode eliminates on sparse rows of Fractions, and runs
the correction's recursion and the composition on integer rows over one
denominator (``clear_denominators``); float mode runs them on complex128
arrays.

Mixing the two rings in one expression is a bug, not a convenience; an
``ExactComplex`` combined with a float raises ``TypeError`` so precision is
never lost silently.  Combining with ``int`` / ``Fraction`` is fine.

Most data is real: when both imaginary parts are exactly zero, ``+ - * /``
and negation do one ``Fraction`` operation, not the general formula's four
products and their gcds, and give the same Gaussian rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

_RAT = (int, Fraction)
_ZERO = Fraction(0)


class ExactComplex:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def parse(value):
        """Build from int, Fraction, 'p/q' string, or a [re, im] pair."""
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (list, tuple)):
            if len(value) != 2:
                raise ValueError("expected a [re, im] pair")
            return ExactComplex(_parse_rational(value[0]), _parse_rational(value[1]))
        return ExactComplex(_parse_rational(value))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.im or other.im):
            return _real(self.re + other.re)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.im or other.im):
            return _real(self.re - other.re)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.im or other.im):
            return _real(other.re - self.re)
        return ExactComplex(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.im or other.im):
            return _real(self.re * other.re)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by exact zero")
        if not (self.im or other.im):
            return _real(self.re / other.re)
        den = other.re * other.re + other.im * other.im
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ExactComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        if not self.im:
            return _real(-self.re)
        return ExactComplex(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- comparisons / conversions --------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"


def _real(re):
    """The real ``re`` (a Fraction), built without ``__init__``'s coercion."""
    z = object.__new__(ExactComplex)
    z.re = re
    z.im = _ZERO
    return z


def _coerce(value):
    if isinstance(value, ExactComplex):
        return value
    if isinstance(value, _RAT):
        return ExactComplex(value)
    return NotImplemented


def _parse_rational(value):
    """int, Fraction, or a 'p/q' / 'p' string -> Fraction.  Floats refused."""
    if isinstance(value, bool):
        raise ValueError("booleans are not numbers here")
    if isinstance(value, _RAT):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"not an exact rational: {value!r}")


def clear_denominators(values):
    """Rationals ``values`` as (den, numerators): integers over their least
    common denominator, read off numerator and denominator with no
    Fraction arithmetic.  An empty ``values`` gives (1, [])."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return den, [n * (den // d) for n, d in ratios]


# -- generic scalar helpers (work for both rings) ------------------------

def from_int(k, exact):
    return ExactComplex(k) if exact else complex(k)


def scalar_is_zero(z, tol=0.0):
    """Zero test: identical-to-zero in exact mode, |z| <= tol in float mode."""
    if isinstance(z, ExactComplex):
        return not z
    return abs(z) <= tol


def coerce_scalar(value, exact):
    """Bring an outside number (int/float/complex/Fraction/ExactComplex) into
    the requested ring.  Exact mode refuses floats."""
    if exact:
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, _RAT):
            return ExactComplex(value)
        raise TypeError(f"exact mode cannot absorb {type(value).__name__}")
    if isinstance(value, ExactComplex):
        return complex(value)
    return complex(value)

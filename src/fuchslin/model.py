"""System descriptions and non-degeneracy checks.

A Fuchsian right-hand side is the rational matrix function

    B(x) = sum_j B_j / (x - p_j),    j = 0 .. S+1,

with distinct finite poles p_j and constant square residue matrices B_j.
``FuchsianSystem`` stores the poles and residues and caches the derived
objects everyone needs: the monic pole polynomial Q = prod (x - p_j), its
derivative, the cofactors Q/(x - p_j) (assembled as products, never by
division), the product Q(x)B(x) as a matrix polynomial, and the residue sum
at infinity B_inf.  QB is built by direct sums: its x^i coefficient is
sum_j cofactor_j[i] B_j, and its top one is B_inf, since every cofactor
is monic.  ``qb_coefficients`` is the one operator form the solvers read:
QB's S + 2 coefficients, the top one B_inf, as one complex128 array or,
in exact mode, per coefficient in the one exact entry form
(``CMatrix.entries``): (den, [(row, col, re, im), ...]), the nonzero
entries' integer parts over their least common denominator.

``NonlinearSystem`` couples such a linear part with a polynomial
nonlinearity given term-by-term: for each monomial u^m (|m| >= 2) a vector
of coefficients that may depend polynomially on x.

The two check functions certify the non-degeneracy assumptions under which
the solvers are valid:

* linear: k + B_j invertible for every natural k and every residue,
  including the residue sum at infinity;
* nonlinear: k + (lambda, m) - lambda_i never vanishes for natural k and
  monomial orders 2 .. order_max, per residue spectrum lambda.

Both, and the correction solver, decide every integer shift by the one
rule ``singular_shifts``, on arrays: float eigenvalues, of a residue or of
a block (``pnspace._slot_values``), propose the nearest shift; float mode
rejects it by tolerance, exact mode by exact elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import from_int, scalar_is_zero
from .matrices import CMatrix, ShapeError, SparseMatrix, mat_eigenvalues
from .pnspace import (PnBasis, SeriesTable, _monomials, _slot_values,
                      conjugation_entries)
from .poly import MatPoly, sp_diff, sp_eval, sp_from_roots


class AssumptionError(ValueError):
    """A solver precondition (invertibility / nonresonance) fails."""


def coinciding_poles(poles, exact):
    """The first pair a < b of coinciding poles (smallest b), or None."""
    for b in range(len(poles)):
        for a in range(b):
            if (poles[a] == poles[b] if exact else
                    abs(complex(poles[a]) - complex(poles[b])) <= 1e-12):
                return a, b
    return None


class FuchsianSystem:
    """Poles and residues of a Fuchsian linear part, with cached algebra."""

    __slots__ = (
        "poles", "residues", "exact", "_cache",
    )

    def __init__(self, poles, residues):
        poles = tuple(poles)
        residues = tuple(residues)
        if len(poles) < 2:
            raise ShapeError("need at least two poles (S >= 0)")
        if len(poles) != len(residues):
            raise ShapeError("pole/residue count mismatch")
        size = residues[0].n_rows
        for m in residues:
            if not m.is_square or m.n_rows != size:
                raise ShapeError("residues must be square and equally sized")
        exact = residues[0].exact
        if any(m.exact != exact for m in residues):
            raise ShapeError("mixed exact/float residues")
        clash = coinciding_poles(poles, exact)
        if clash:
            raise ValueError(
                "poles %d and %d coincide within tolerance" % clash)
        self.poles = poles
        self.residues = residues
        self.exact = exact
        self._cache = {}

    # -- basic shape -----------------------------------------------------

    @property
    def size(self):
        """Dimension of the vectors the system acts on."""
        return self.residues[0].n_rows

    @property
    def s(self):
        """S in the pole count S+2."""
        return len(self.poles) - 2

    @property
    def n_poles(self):
        return len(self.poles)

    # -- cached derived objects ------------------------------------------

    def b_infinity(self):
        """Residue at infinity: the sum of all residues."""
        if "binf" not in self._cache:
            acc = self.residues[0]
            for m in self.residues[1:]:
                acc = acc + m
            self._cache["binf"] = acc
        return self._cache["binf"]

    def q_poly(self):
        """Monic scalar polynomial with simple zeros at the poles."""
        if "q" not in self._cache:
            self._cache["q"] = sp_from_roots(self.poles, self.exact)
        return self._cache["q"]

    def q_prime(self):
        if "qp" not in self._cache:
            self._cache["qp"] = sp_diff(self.q_poly())
        return self._cache["qp"]

    def cofactor(self, j):
        """Q(x)/(x - p_j), built as the product of the other linear factors."""
        key = ("cof", j)
        if key not in self._cache:
            roots = [p for k, p in enumerate(self.poles) if k != j]
            self._cache[key] = sp_from_roots(roots, self.exact)
        return self._cache[key]

    def qb_poly(self):
        """Q(x)B(x) = sum_j cofactor_j(x) * B_j as a matrix polynomial: its
        x^i coefficient is sum_j cofactor_j[i] B_j, exact-zero cofactor
        coefficients skipped, and its x^(S+1) one B_inf, since every
        cofactor is monic."""
        if "qb" not in self._cache:
            cofactors = [self.cofactor(j) for j in range(self.n_poles)]
            mats = []
            for i in range(self.s + 1):
                acc = CMatrix.zeros(self.size, self.size, self.exact)
                for cof, res in zip(cofactors, self.residues):
                    if not scalar_is_zero(cof[i]):
                        acc = acc + res.scale(cof[i])
                mats.append(acc)
            mats.append(self.b_infinity())
            self._cache["qb"] = MatPoly.from_coeffs(
                mats, self.exact, (self.size, self.size))
        return self._cache["qb"]

    def qb_coefficients(self):
        """QB's x^i coefficients, i = 0 .. S + 1, the top one B_inf: one
        (S + 2, d, d) complex128 array, or in exact mode per coefficient
        its (den, [(row, col, re, im), ...]) (``CMatrix.entries``)."""
        if "coeffs" not in self._cache:
            qb = self.qb_poly()
            mats = [qb.coefficient(i) for i in range(self.s + 1)]
            mats.append(self.b_infinity())
            self._cache["coeffs"] = (
                [m.entries() for m in mats] if self.exact
                else np.array([m.to_numpy() for m in mats]))
        return self._cache["coeffs"]

    def lagrange_basis(self, j):
        """The degree-(S+1) polynomial that is 1 at p_j and 0 at other poles."""
        key = ("lag", j)
        if key not in self._cache:
            denom = sp_eval(self.cofactor(j), self.poles[j])
            inv = from_int(1, self.exact) / denom
            self._cache[key] = tuple(inv * c for c in self.cofactor(j))
        return self._cache[key]

    def residue_matrix(self, j):
        """Residue j ('inf' for the residue sum)."""
        return self.b_infinity() if j == "inf" else self.residues[j]

    def residue_spectrum(self, j):
        """Float eigenvalues of residue j ('inf' for the residue sum)."""
        key = ("spec", j)
        if key not in self._cache:
            self._cache[key] = mat_eigenvalues(self.residue_matrix(j))
        return self._cache[key]

    def all_spectra(self):
        """(label, eigenvalues) for every residue and the residue sum."""
        out = [(j, self.residue_spectrum(j)) for j in range(self.n_poles)]
        out.append(("inf", self.residue_spectrum("inf")))
        return out

    # -- derived systems -------------------------------------------------

    def shift(self, delta):
        """Same poles, residues B_j + delta*I (delta an integer)."""
        return FuchsianSystem(
            self.poles,
            tuple(m.add_scaled_identity(delta) for m in self.residues),
        )

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return (
            f"FuchsianSystem(size={self.size}, poles={self.n_poles}, {kind})"
        )


# ----------------------------------------------------------------------
# assumption reports
# ----------------------------------------------------------------------


@dataclass
class LinearViolation:
    residue: object          # pole index or 'inf'
    k: int
    eigenvalue: complex
    margin: float


@dataclass
class LinearAssumptionReport:
    passed: bool
    k_checked: int
    min_margin: float
    violations: list = field(default_factory=list)


@dataclass
class NonlinearViolation:
    residue: object
    monomial: tuple
    component: int
    k: int
    value: complex
    margin: float


@dataclass
class NonlinearAssumptionReport:
    passed: bool
    order_max: int
    min_margin: float
    violations: list = field(default_factory=list)


# Exact mode confirms a proposed shift whose float margin lies within
# _SHIFT_WINDOW * max(1, max |M_ij|) * (n + 1), n the block degree (0 for
# a residue).  A fixed window is not enough: the float eigenvalues of an
# exact Jordan block of size s are off by about the s-th root of the
# rounding error, which measured 1.5e-8 for [[-2, 1], [-1, 0]], 8.2e-6 for
# a 3x3 block and 0.056 for an integer conjugate of it with entries up to
# 9e5.  A block value <lambda, m> - lambda_i sums n + 1 such eigenvalues.
_SHIFT_WINDOW = 1e-3


def singular_shifts(mat, values, tol, degrees=0):
    """Propose one integer shift per value and decide whether it is singular.

    ``values`` (an array or a list) are float eigenvalues of T: of ``mat``
    itself where their degree is 0, else of J_mat on the block of that
    degree (``pnspace._slot_values``); ``degrees`` is one int or one per
    value.  For each z the proposal is k = max(0, round(-Re z)), the
    k >= 0 that minimises the margin |z + k|.  Float mode calls k + T
    singular when the margin is <= tol.  Exact mode ignores tol: only
    proposals within the window are decided, by exact elimination of
    k + T, T built only then, and one found singular has margin 0.0.
    Returns the arrays (k as floats, margin, singular), in the order of
    ``values``.  Float mode reads nothing of ``mat`` (it may be None).  In
    exact mode ``mat`` is a CMatrix or, at degree 0, a SparseMatrix; J of
    a CMatrix is built as integer entries over one denominator from the
    plan of its block.
    """
    values = np.asarray(values, complex)
    k = np.maximum(np.rint(-values.real), 0.0)
    # hypot, as abs() of a Python complex: np.abs rounds differently
    shifted = values + k
    margin = np.hypot(shifted.real, shifted.imag)
    scale = _exact_scale(mat)
    if scale is None:
        return k, margin, margin <= tol
    degrees = np.zeros(len(values), int) + degrees
    close = margin <= scale * (degrees + 1)
    singular = np.zeros_like(close)
    for degree in set(degrees[close].tolist()):
        here = close & (degrees == degree)
        near = _singular_near(mat, set(map(int, k[here].tolist())), degree)
        singular |= here & np.isin(k, list(near))
    return k, np.where(singular, 0.0, margin), singular


def _exact_scale(mat):
    """The exact-confirmation window per unit of (degree + 1); None in
    float mode."""
    if isinstance(mat, SparseMatrix) or isinstance(mat, CMatrix) and mat.exact:
        return _SHIFT_WINDOW * max(1.0, mat.max_abs())
    return None


def _singular_near(mat, shifts, degree):
    """The shifts k for which k + T is singular, by exact elimination."""
    op = mat
    if degree:
        basis = PnBasis(mat.n_rows, degree)
        op = SparseMatrix(basis.size,
                          conjugation_entries(mat.entries(), basis))
    elif isinstance(mat, CMatrix):
        op = SparseMatrix(mat.n_rows, mat.entries())
    return {k for k in shifts if op.singular(k)}


def check_linear_assumption(system, tol=1e-9):
    """Certify that k + B_j is invertible for all natural k.

    Per residue (and the residue sum) only the shift nearest each
    eigenvalue can be singular (``singular_shifts``).  ``k_checked`` is
    ceil(max |eigenvalue|) + 1, a bound on every such shift.
    """
    violations = []
    min_margin = math.inf
    k_checked = 0
    for label, spectrum in system.all_spectra():
        radius = max((abs(ev) for ev in spectrum), default=0.0)
        k_checked = max(k_checked, int(math.ceil(radius)) + 1)
        tests = singular_shifts(system.residue_matrix(label), spectrum, tol)
        for ev, k, margin, singular in zip(spectrum,
                                           *(a.tolist() for a in tests)):
            min_margin = min(min_margin, margin)
            if singular:
                violations.append(LinearViolation(label, int(k), ev, margin))
    return LinearAssumptionReport(
        passed=not violations,
        k_checked=k_checked,
        min_margin=float(min_margin),
        violations=violations,
    )


def check_nonlinear_assumption(nonlinear, order_max, tol=1e-9):
    """Certify k + <lambda, m> - lambda_i != 0 up to monomial order order_max.

    Runs per residue spectrum of the linear part (including the residue
    sum), deciding the shifts of J_{B_j} on the degree-n blocks by
    ``singular_shifts``, with the values <lambda, m> - lambda_i of every
    slot (m, i) of every order n (``pnspace._slot_values``) as one array.
    """
    system = nonlinear.linear
    d = system.size
    exps, off, counts = _monomials(d, max(order_max, 2))
    exps = exps[off[2]:off[order_max + 1]]
    degrees = np.arange(2, order_max + 1).repeat(counts[2:order_max + 1] * d)
    violations = []
    min_margin = math.inf
    for label, spectrum in system.all_spectra():
        values = _slot_values(spectrum, exps).ravel()    # slot (m, i)
        k, margin, singular = singular_shifts(system.residue_matrix(label),
                                              values, tol, degrees)
        min_margin = min(min_margin, float(margin.min(initial=math.inf)))
        for slot in np.flatnonzero(singular).tolist():
            row, i = divmod(slot, d)
            shift_k = int(k[slot])
            violations.append(NonlinearViolation(
                label, tuple(exps[row].tolist()), i, shift_k,
                complex(values[slot]) + shift_k, float(margin[slot])))
    return NonlinearAssumptionReport(
        passed=not violations,
        order_max=order_max,
        min_margin=float(min_margin),
        violations=violations,
    )


# ----------------------------------------------------------------------
# nonlinear system
# ----------------------------------------------------------------------


class NonlinearSystem:
    """du/dx = A(x)u + (1/Q) f(x, u) with Fuchsian A and polynomial f.

    The nonlinearity is a mapping {multi-index m: vector polynomial in x}
    holding the coefficient of u^m; every multi-index has total degree at
    least 2 and length equal to the system size.  ``f`` keeps its nonzero
    terms as a SeriesTable, each term as the engine's store rows, which is
    all the engine reads; ``nonlinearity`` builds their read-only
    {m: VecPoly} mapping on each read.
    """

    __slots__ = ("linear", "f")

    def __init__(self, linear, nonlinearity):
        d = linear.size
        terms = {}
        for m, coeff in nonlinearity.items():
            m = tuple(int(v) for v in m)
            if len(m) != d:
                raise ShapeError(
                    f"monomial {m} has length {len(m)}, system size is {d}"
                )
            if any(v < 0 for v in m):
                raise ValueError(f"negative exponent in monomial {m}")
            if sum(m) < 2:
                raise ValueError(
                    f"monomial {m} has order {sum(m)} < 2; linear terms "
                    "belong to the linear part"
                )
            if coeff.dim != d:
                raise ShapeError("nonlinearity coefficient dimension mismatch")
            if coeff.exact != linear.exact:
                raise ShapeError("mixed exact/float nonlinearity")
            terms[m] = coeff
        self.linear = linear
        self.f = SeriesTable(d, linear.exact, terms)

    @classmethod
    def _of_table(cls, linear, f):
        """The system whose f is the SeriesTable ``f``, kept as it is: its
        size and ring are those of ``linear`` and its monomials have order
        at least 2, as a document's nonlinearity is read."""
        system = cls.__new__(cls)
        system.linear, system.f = linear, f
        return system

    @property
    def nonlinearity(self):
        return self.f.terms

    @property
    def size(self):
        return self.linear.size

    @property
    def exact(self):
        return self.linear.exact

    def order_max(self):
        return self.f.max_order()

    def __repr__(self):
        return (
            f"NonlinearSystem(size={self.size}, "
            f"terms={len(self.f)}, order<={self.order_max()})"
        )

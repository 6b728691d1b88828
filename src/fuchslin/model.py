"""System descriptions and non-degeneracy checks.

A Fuchsian right-hand side is the rational matrix function

    B(x) = sum_j B_j / (x - p_j),    j = 0 .. S+1,

with distinct finite poles p_j and constant square residue matrices B_j.
``FuchsianSystem`` stores the poles and residues and builds, once and
only when asked, one set-up of the linear part in its ring (``_forms``):
the residues, their sum at infinity B_inf, the monic pole polynomial
Q = prod (x - p_j), the cofactors Q/(x - p_j) (products of the other
linear factors, never a division) and QB's coefficients, the x^i one
sum_j cofactor_j[i] B_j and the top one B_inf, since every cofactor is
monic.  Float mode holds complex128 arrays.  Exact mode holds Python
integers, built from the poles' integer ratios and the residues' integer
entries: Q and the cofactors as integer rows (den, re, im) (``pnspace``),
each matrix in the one exact entry form (``CMatrix.entries``).  A
document's system, and the float copy ``analytic.float_system`` makes,
start from these forms (``_of_forms``); an exact one makes its
ExactComplex poles and CMatrix residues only when they are read.  The
solvers, the engine's verifier and the checks read the set-up itself:
``q_coefficients``, Q's S + 3 coefficients, and ``qb_coefficients``,
QB's S + 2.  The spectra are those of float arrays, in exact mode of the
entries' num / den, rounded as ``CMatrix.to_numpy`` rounds them; the
exact checks decide shifts on SparseMatrix forms of the same entries.
``q_poly``, ``cofactor``, ``qb_poly`` and ``b_infinity`` (the Rodrigues
family, the shift ladder, the local series at a pole, API users) are made
from the set-up on request, one definition for both rings; ``check``,
``correct``, ``linearize``, ``normal-form`` and ``verify --exact`` build
none of them.

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
from fractions import Fraction

import numpy as np

from .exact import ExactComplex, clear_denominators, coerce_scalar, from_int
from .matrices import CMatrix, ShapeError, SparseMatrix, array_eigenvalues
from .pnspace import (PnBasis, SeriesTable, _monomials, _reduced_row,
                      _scalars, _slot_values, conjugation_entries)
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
    """Poles and residues of a Fuchsian linear part, with cached algebra.

    Poles and residues share one ring: exact residues take poles that are
    ``ExactComplex``, int or Fraction (kept as ``ExactComplex``), float
    residues take any number but an ``ExactComplex``; anything else is a
    ShapeError.  Q, the cofactors, QB's coefficients, B_inf and the
    spectra come from one set-up per ring (``_forms``): complex128 arrays
    in float mode, integers in exact mode.  The public methods' polynomial
    and matrix objects are made from it only when asked for.  The cache
    also keeps the induced block of each order that
    ``pnspace.induced_system`` builds in the canonical basis.
    """

    __slots__ = ("exact", "size", "n_poles", "_poles", "_residues", "_cache")

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
        rational = (ExactComplex, int, Fraction)
        if any(not isinstance(p, rational) if exact
               else isinstance(p, ExactComplex) for p in poles):
            raise ShapeError("poles and residues in different rings")
        if exact:
            poles = tuple(coerce_scalar(p, True) for p in poles)
        clash = coinciding_poles(poles, exact)
        if clash:
            raise ValueError(
                "poles %d and %d coincide within tolerance" % clash)
        self.exact, self.size, self.n_poles = exact, size, len(poles)
        self._poles, self._residues = poles, residues
        self._cache = {}

    @classmethod
    def _of_forms(cls, size, poles, residues, exact):
        """The system of set-up forms, kept as they are (``_forms``): float
        poles and the residues' (n, size, size) complex128 stack, or exact
        integer roots (den, a, b), the poles (a + ib) / den in lowest
        terms, and integer entries (``CMatrix.entries``), whose ExactComplex
        poles and CMatrix residues are built only when read.  Nothing is
        checked: the document reader checks what ``__init__`` does, and a
        float copy (``analytic.float_system``) keeps exact poles that
        round to within 1e-12 of each other."""
        system = cls.__new__(cls)
        system.exact, system.size, system.n_poles = exact, size, len(poles)
        system._poles = None if exact else tuple(poles)
        system._residues = None
        forms = ({"roots": list(poles), "residues": list(residues)} if exact
                 else {"residues": np.array(residues, complex)})
        system._cache = {"forms": forms}
        return system

    # -- basic shape -----------------------------------------------------

    @property
    def poles(self):
        """The poles: ExactComplex in exact mode, as given in float mode."""
        if self._poles is None:
            self._poles = tuple(
                ExactComplex(Fraction(a, den), Fraction(b, den))
                for den, a, b in self._forms("roots"))
        return self._poles

    @property
    def residues(self):
        """The residues B_j as CMatrix."""
        if self._residues is None:
            self._residues = tuple(map(self._matrix,
                                       self._forms("residues")))
        return self._residues

    @property
    def s(self):
        """S in the pole count S+2."""
        return self.n_poles - 2

    # -- cached derived objects ------------------------------------------

    def _forms(self, key):
        """One part of the linear part's set-up, in the system's ring:
        "residues" and "binf", B_inf, their sum in pole order, built on the
        first call; "q" and "cofactors", Q and each Q/(x - p_j), and
        "coeffs", QB's x^i coefficients sum_j cofactor_j[i] B_j (exact-zero
        cofactor coefficients skipped) for i <= S with B_inf on top, built
        on the first call that asks for one of them.  Float mode holds
        complex128 arrays, Q and the cofactors from ``sp_from_roots``.
        Exact mode holds integers: "roots", each pole (a + ib) / den as
        (den, a, b), and each matrix's entries (``CMatrix.entries``), both
        as ``_of_forms`` takes them or read off the ExactComplex poles and
        CMatrix residues; sums over the lcm of their terms' denominators
        with one gcd divided out; and the integer rows (den, re, im)
        (``pnspace``) of Q and the cofactors, products of the linear
        factors (den x - a - ib) / den.
        """
        forms = self._cache.get("forms")
        if forms is None:
            forms = self._cache["forms"] = (
                {"roots": [_root(p) for p in self._poles],
                 "residues": [m.entries() for m in self._residues]}
                if self.exact else {"residues": np.array(
                    [m.to_numpy() for m in self._residues])})
        if "binf" not in forms:
            residues = forms["residues"]
            if self.exact:
                forms["binf"] = _cofactor_sum(
                    [(1, (1,), None)] * self.n_poles, residues, 0)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    forms["binf"] = sum(residues[1:], residues[0])
        if key not in forms:
            residues, n = forms["residues"], self.n_poles
            if self.exact:
                roots = forms["roots"]
                cofactors = [_root_product(roots[:j] + roots[j + 1:])
                             for j in range(n)]
                forms.update(q=_root_product(roots), coeffs=[
                    _cofactor_sum(cofactors, residues, i)
                    for i in range(self.s + 1)] + [forms["binf"]])
            else:
                poles = self.poles
                cofactors = np.array([sp_from_roots(poles[:j] + poles[j + 1:])
                                      for j in range(n)], complex)
                coeffs = np.zeros((n, self.size, self.size), complex)
                with np.errstate(over="ignore", invalid="ignore"):
                    for cof, res in zip(cofactors, residues):
                        live = np.flatnonzero(cof[:-1])
                        coeffs[live] += cof[live, None, None] * res
                coeffs[-1] = forms["binf"]
                forms.update(q=np.array(sp_from_roots(poles), complex),
                             coeffs=coeffs)
            forms["cofactors"] = cofactors
        return forms[key]

    def _residue_form(self, j):
        """Residue j's form (``_forms``); 'inf' gives B_inf's."""
        return (self._forms("binf") if j == "inf"
                else self._forms("residues")[j])

    def _matrix(self, form):
        """The CMatrix of a d x d form."""
        return (CMatrix.from_entries(self.size, form) if self.exact
                else CMatrix.from_numpy(form))

    def _poly(self, form):
        """The scalar polynomial of Q's or a cofactor's form."""
        return _scalars(form) if self.exact else tuple(form.tolist())

    def b_infinity(self):
        """Residue at infinity: the sum of all residues."""
        if "binf" not in self._cache:
            self._cache["binf"] = self._matrix(self._forms("binf"))
        return self._cache["binf"]

    def q_poly(self):
        """Monic scalar polynomial with simple zeros at the poles."""
        if "q" not in self._cache:
            self._cache["q"] = self._poly(self._forms("q"))
        return self._cache["q"]

    def q_coefficients(self):
        """Q's S + 3 coefficients in the form the solvers read: one
        complex128 array, or in exact mode its integer row (den, re, im)."""
        return self._forms("q")

    def q_prime(self):
        if "qp" not in self._cache:
            self._cache["qp"] = sp_diff(self.q_poly())
        return self._cache["qp"]

    def cofactor(self, j):
        """Q(x)/(x - p_j), the product of the other linear factors."""
        key = ("cof", j)
        if key not in self._cache:
            self._cache[key] = self._poly(self._forms("cofactors")[j])
        return self._cache[key]

    def qb_poly(self):
        """Q(x)B(x) = sum_j cofactor_j(x) * B_j as a matrix polynomial, read
        off ``qb_coefficients``."""
        if "qb" not in self._cache:
            self._cache["qb"] = MatPoly.from_coeffs(
                map(self._matrix, self.qb_coefficients()), self.exact,
                (self.size, self.size))
        return self._cache["qb"]

    def qb_coefficients(self):
        """QB's x^i coefficients, i = 0 .. S + 1, the top one B_inf: one
        (S + 2, d, d) complex128 array, or in exact mode per coefficient
        its (den, [(row, col, re, im), ...]) (``CMatrix.entries``)."""
        return self._forms("coeffs")

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
        """Float eigenvalues of residue j ('inf' for the residue sum); in
        exact mode of the float array of its integer entries
        (``_entries_array``), which rounds as ``CMatrix.to_numpy`` does."""
        key = ("spec", j)
        if key not in self._cache:
            form = self._residue_form(j)
            self._cache[key] = array_eigenvalues(
                _entries_array(self.size, form) if self.exact else form)
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


def _root(pole):
    """The integer root (den, a, b) of an ExactComplex pole (a + ib) / den,
    den the least common denominator of its parts."""
    den, (a, b) = clear_denominators([pole.re, pole.im])
    return den, a, b


def _root_product(roots):
    """The integer row (den, re, im) of prod (x - r), the roots r given as
    (den, a, b), r = (a + ib) / den: each factor multiplies the Gaussian-
    integer numerators by den x - a - ib and the denominator by den."""
    den, re, im = 1, [1], [0]
    for e, a, b in roots:
        re, im = ([e * u - (a * x - b * y) for u, x, y in
                   zip([0] + re, re + [0], im + [0])],
                  [e * v - (a * y + b * x) for v, x, y in
                   zip([0] + im, re + [0], im + [0])])
        den *= e
    return _reduced_row(den, re, im)


def _cofactor_sum(cofactors, residues, i):
    """sum_j cofactor_j[i] B_j in ``CMatrix.entries`` form: the terms, each
    a cofactor's integer row and a residue's integer entries, summed over
    the lcm of their denominators, with one gcd divided out."""
    terms = []
    for (den_c, re, im), (den_b, entries) in zip(cofactors, residues):
        a, b = re[i], im[i] if im else 0
        if (a or b) and entries:
            terms.append((den_c * den_b, a, b, entries))
    den = math.lcm(*(t[0] for t in terms))
    sums = {}
    for t, a, b, entries in terms:
        a, b = a * (den // t), b * (den // t)
        for r, c, x, y in entries:
            acc = sums.setdefault((r, c), [0, 0])
            acc[0] += a * x - b * y
            acc[1] += a * y + b * x
    live = [(r, c, x, y) for (r, c), (x, y) in sorted(sums.items())
            if x or y]
    g = math.gcd(den, *(v for *_, x, y in live for v in (x, y)))
    return den // g, [(r, c, x // g, y // g) for r, c, x, y in live]


def _entries_array(n, entries):
    """The complex128 n x n array of integer entries (den, [(row, col, re,
    im), ...]), each part num / den, which rounds as float(Fraction) does
    (and raises OverflowError past the float range)."""
    den, entries = entries
    out = np.zeros((n, n), complex)
    for r, c, x, y in entries:
        out[r, c] = complex(x / den, y / den)
    return out


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
    exact mode ``mat`` is a SparseMatrix or a CMatrix; J of it is built as
    integer entries over one denominator from the plan of its block.
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
    op = (SparseMatrix(mat.n_rows, mat.entries()) if isinstance(mat, CMatrix)
          else mat)
    if degree:
        basis = PnBasis(op.n, degree)
        op = SparseMatrix(basis.size, conjugation_entries(op.entries, basis))
    return {k for k in shifts if op.singular(k)}


def _residue_operator(system, label):
    """What ``singular_shifts`` reads of residue ``label`` (a pole index or
    'inf'): nothing in float mode, in exact mode the SparseMatrix of its
    integer entries."""
    if not system.exact:
        return None
    return SparseMatrix(system.size, system._residue_form(label))


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
        tests = singular_shifts(_residue_operator(system, label), spectrum,
                                tol)
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
        k, margin, singular = singular_shifts(
            _residue_operator(system, label), values, tol, degrees)
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

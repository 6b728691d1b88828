"""Constructive correction of a Fuchsian right-hand side.

The prototype problem: given the equation

    y' + B(x) y = (1/Q) g(x)

with polynomial g, find the unique polynomial correction phi of degree at
most S and polynomial solution y such that

    y' + B(x) y = (1/Q) (g(x) - phi(x)).

Both phi and the solution analytic at a pole come from one recursion on
the cleared equation Q y' + (QB) y = g - phi, read from either end.  With
q_i and R_i the coefficients of Q and QB in a variable t, y_k t^k leaves
k q_i y_k + R_(i-1) y_k at t^(k+i-1), i = 0 .. S + 2: one term, the
pivot, is solved for y_k, and the others leave the remainder.
``solve_polynomial`` reads it from the top in x, where the pivot is
(k + B_inf) y_k at x^(k+S+1), the indicial equation at infinity, and what
is left of g at degrees <= S is phi.  The paper builds the same (unique)
pair by expanding g in the lowered Rodrigues family; the tests keep that
construction as the reference.  Systems and induced blocks both hand it
QB's S + 2 coefficients (``qb_coefficients``), the top one B_inf
(J_{B_inf} for a block).  ``local_taylor`` reads it from the bottom in
t = x - p_j, where Q vanishes and the pivot is Q'(p_j) (k + B_j) y_k at
t^k: the solution analytic at p_j, which the analytic route's solution
handle evaluates near a pole.  The analytic route's certificate compares
its phi and continued solution with ``solve_polynomial``'s.

A vector crosses this module's boundary as a VecPoly or as the engine's
store rows of its N components (``pnspace``): an (N, width) complex128
array, or in exact mode N integer rows (den, re, im), None for a zero
component; each recursion keeps its per-degree layout to itself.  Both
ends refuse the shifts ``model.singular_shifts`` flags, up front.  Exact
mode runs one loop, ``_recur_exact``, on integer numerators over one
denominator per degree, real and imaginary parts apart, with q_i and
R_(i-1), whose entries arrive as integers over one denominator
(``qb_coefficients``), brought once per call to sparse real integer
entries over one denominator per term (at a pole divided by Q'(p_j), so
the pivot is k + B_j).  Each k is one sparse Gauss-Jordan
(``SparseMatrix.solve``), which takes the pivot row and gives y_k as
integers over one denominator, for the real and imaginary parts as two
columns when Q and QB are real, in the real 2N embedding otherwise; y_k's
other terms then leave the remainder as integer multiply-adds, each row
updated once to the lcm of its denominator and theirs.  From the block's
construction on, Fraction arithmetic happens only inside that
elimination.  Float mode runs one loop, ``_recur_float``, on the rows
transposed to a (width, N) complex128 array, with the same operators (at
a pole q_i, R_i and the right-hand side divided by Q'(p_j) up front) and
the same solve at both ends: per k one ``np.linalg.solve`` of the pivot,
B_inf or B_j, shifted by k on its diagonal.  ``first_failed_solve``, the
rule ``solve_array`` applies to one solve, then checks the solves
(k + B) y_k = row in the order solved.

``shift_up`` / ``pull_back_correction`` implement one rung of the paper's
shift ladder: the substitution y = y_0 + Q ytilde moves the problem to
residues B_j + I, and the pull-back solves a short polynomial problem to
carry a correction of the lifted system down to the original one.  The
analytic route does not use them: its endpoint series continue the moment
integrals to spectra outside the right half plane.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exact import clear_denominators, from_int
from .matrices import (
    SingularMatrixError,
    SparseMatrix,
    first_failed_solve,
    solve_linear,
    split_entries,
    vec_add,
    vec_scale,
)
from .model import AssumptionError, singular_shifts
from .pnspace import _reduced_row, _term_poly, _term_rows
from .poly import VecPoly, sp_eval, sp_taylor


@dataclass
class CorrectionResult:
    """The degree <= S obstruction and the solution it unlocks.

    ``y`` is a VecPoly on the polynomial path and an analytic solution
    handle on the analytic path.
    """

    phi: VecPoly
    y: object


@dataclass
class TaylorSolution:
    """Series solution at one pole, in powers of (x - center)."""

    pole_index: int
    center: object
    coefficients: list

    def eval(self, x):
        t = x - self.center
        acc = None
        for v in reversed(self.coefficients):
            if acc is None:
                acc = v
            else:
                acc = vec_add(vec_scale(t, acc), v)
        return acc


@dataclass
class ShiftStep:
    """One rung of the shift ladder.

    The original problem (B, g) becomes (B + I, rhs) for ytilde after
    substituting y = particular + Q * ytilde.
    """

    system: object
    rhs: VecPoly
    particular: VecPoly


def solve_polynomial(system, g, tol=1e-12):
    """Unique polynomial correction and solution for a polynomial rhs.

    The recursion from the top: pivot k + B_inf, k descending.  Raises
    AssumptionError when some k + B_inf with k >= 0 is singular, as
    ``model.singular_shifts`` decides (exactly in exact mode, by ``tol`` in
    float mode): below deg g - S the recursion cannot solve, and above it
    a singular shift may carry a polynomial kernel that makes (phi, y)
    non-unique.  The residues B_j enter no solve, and no spectral
    positivity or nonresonance between eigenvalues is needed.

    ``g`` is a VecPoly or the store rows of its N components: an (N, width)
    complex array, or in exact mode a list of N integer rows (den, re, im),
    None for a zero component (``pnspace``).  phi and y come back in g's
    form, rows in and rows out in both rings.  Only top coefficients that
    are exactly zero are dropped, so rescaling g rescales phi and y: a
    tiny top coefficient is a term.
    """
    if (g.dim if isinstance(g, VecPoly) else len(g)) != system.size:
        raise ValueError("right-hand side dimension mismatch")
    ops = _exact_operators(system) if system.exact else (None,)
    bad = _singular_ks(system, "inf", tol, ops[0])
    if bad:
        raise AssumptionError(
            f"k + B_inf singular at k={min(bad)}: (phi, y) not unique")
    rows = _term_rows(g, system.exact) if isinstance(g, VecPoly) else g
    if system.exact:
        top = max((len(row[1]) for row in rows if row), default=0)
        phi, y = _recur_exact(*ops, rows, range(top - system.s - 2, -1, -1),
                              top, "B_inf", system.s + 1)
    else:
        phi, y = _solve_polynomial_float(system, rows, tol)
    if isinstance(g, VecPoly):
        phi, y = (_term_poly(part, system.exact) for part in (phi, y))
    return CorrectionResult(phi=phi, y=y)


def local_taylor(system, pole_index, rhs, order, tol=1e-12):
    """Taylor solution of Q y' + (QB) y = rhs at pole ``pole_index``.

    The recursion from the bottom: in t = x - p_j, Q has the Taylor
    coefficients q_i with q_0 = 0 and q_1 = Q'(p_j), and QB has R_i with
    R_0 = Q'(p_j) B_j.  Both modes divide q_i, R_i and rhs by Q'(p_j)
    first, so the pivot is (k + B_j) y_k at t^k, k ascending to
    ``order``, and y_k's other terms land above it.  This is the unique
    solution analytic at p_j whenever every k + B_j is invertible.

    Raises ValueError when rhs has the wrong dimension and, before any
    solve, AssumptionError "k + B_j singular at k=..." for the least
    k <= order at which ``model.singular_shifts`` finds k + B_j singular
    (exactly in exact mode, by ``tol`` in float mode).
    """
    if rhs.dim != system.size:
        raise ValueError("right-hand side dimension mismatch")
    center, count, n = system.poles[pole_index], order + 1, system.size
    label = f"B_{pole_index}"
    ops = _exact_operators(system, pole_index) if system.exact else (None,)
    bad = [k for k in _singular_ks(system, pole_index, tol, ops[0])
           if k <= order]
    if bad:
        raise AssumptionError(f"k + {label} singular at k={min(bad)}")
    if system.exact:
        given = rhs.scale(1 / sp_eval(system.q_prime(), center))
        given = VecPoly.from_coeffs(given.taylor_at(center)[:count], True,
                                    dim=n)
        _, y = _recur_exact(*ops, _term_rows(given, True), range(count),
                            count + system.s + 1, label, 0)
        y = _term_poly(y, True)
        return TaylorSolution(pole_index, center,
                              list(map(y.coefficient, range(count))))
    q = np.array(sp_taylor(system.q_poly(), center), dtype=complex)
    r = np.array(sp_taylor(system.qb_coefficients(), center)) / q[1]
    rem = np.zeros((count + system.s + 1, n), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        given = np.array(rhs.coeffs, dtype=complex).reshape(-1, n)
        given = np.array(sp_taylor(given, center)).reshape(-1, n)[:count]
        rem[:len(given)] = given / q[1]
    ys = _recur_float(q / q[1], r, 1, system.residues[pole_index].to_numpy(),
                      rem, np.arange(count), label, tol)
    return TaylorSolution(pole_index, center, list(map(tuple, ys.tolist())))


def _singular_ks(system, label, tol, pivot):
    """The k >= 0 at which k + B_label (``label`` "inf" or a pole index) is
    singular, as ``model.singular_shifts`` decides: in exact mode on
    ``pivot``, the SparseMatrix the recursion solves with (its 2N
    embedding is singular exactly when the complex matrix is)."""
    k, _, bad = singular_shifts(pivot, system.residue_spectrum(label), tol)
    return [int(v) for v in k[bad].tolist()]


def _exact_operators(system, pole_index=None):
    """What the exact recursion reads of ``system``, once per call.

    q_i and R_i are the coefficients of Q and QB in x at infinity, or in
    t = x - p_j divided by Q'(p_j) at pole ``pole_index``.  Returns the
    pivot term's R_(i-1) as a SparseMatrix, its i (S + 2 at infinity, 1 at
    a pole), and for every other i with a nonzero term (i, den, q_i as
    real (row offset, col offset, value) blocks of size N, R_(i-1) as real
    (row, col, value) entries), the values integers over the term's least
    common denominator ``den``.  All are real when Q and QB are, and
    otherwise in the real 2N embedding, where a vector is its real parts
    followed by its imaginary parts.
    """
    n = system.size
    q, coeffs = system.q_poly(), system.qb_coefficients()
    at = len(q) - 1
    if pole_index is not None:
        center, qb = system.poles[pole_index], system.qb_poly()
        q = sp_taylor(q, center)
        inv_q1 = 1 / q[1]
        coeffs = [(inv_q1 * r).entries() for r in sp_taylor(
            [qb.coefficient(i) for i in range(at)], center)]
        q, at = [inv_q1 * c for c in q], 1
    embed = (any(im for _, entries in coeffs for *_, im in entries)
             or any(c.im for c in q))
    terms = []
    for i, q_i in enumerate(q):
        den_r, entries = coeffs[i - 1] if i else (1, [])
        if i == at or not (q_i or entries):
            continue
        den_q, (re, im) = clear_denominators([q_i.re, q_i.im])
        den = math.lcm(den_q, den_r)
        up_q, up_r = den // den_q, den // den_r
        q_i = [(0, 0, re * up_q, im * up_q)]
        qb_i = [(r, c, a * up_r, b * up_r) for r, c, a, b in entries]
        terms.append((i, den, split_entries(q_i, n, embed),
                      split_entries(qb_i, n, embed)))
    return SparseMatrix(n, coeffs[at - 1], embed), at, terms


def _recur_exact(pivot, at, terms, g, ks, rows, label, cut):
    """The exact recursion on g, the integer rows of N components, zero-
    padded to ``rows`` degrees, k in the order ``ks``, with
    ``_exact_operators``' pivot, at and terms.

    The remainder is per degree integer columns over one denominator per
    degree, every degree starting over the lcm of g's denominators: the
    real and imaginary parts as two, or in the embedding one of length 2N.
    Each k is one ``SparseMatrix.solve`` of k + pivot on row k + at - 1,
    which gives y_k in the same form.  For each other term i, y_k's
    contribution k q_i y_k + R_(i-1) y_k to row k + i - 1 is summed in
    integers, exact zeros skipped, and leaves the row in one update to the
    lcm of the two denominators.  Returns the remainder's first ``cut``
    degrees and y, each as the integer rows of N components.
    """
    n, size = len(g), pivot.size
    den = math.lcm(*(row[0] for row in g if row))
    parts = [[(0,) * rows] * n, [(0,) * rows] * n]
    for pos, row in enumerate(g):
        for part, num in zip(parts, row[1:] if row else ()):
            if num is not None:
                f = den // row[0]
                part[pos] = ((num if f == 1 else tuple(v * f for v in num))
                             + (0,) * (rows - len(num)))
    if pivot.embedded:
        rem = [[list(v) for v in zip(*parts[0], *parts[1])]]
    else:
        rem = [[list(v) for v in zip(*part)]
               for part in parts[:1 + any(row and row[2] for row in g)]]
    dens = [den] * rows
    ys = [None] * len(ks)
    for k in ks:
        row = k + at - 1
        try:
            ys[k] = den_y, y_k = pivot.solve(
                (dens[row], [part[row] for part in rem]), k)
        except SingularMatrixError as err:
            raise AssumptionError(
                f"k + {label} singular at k={k}: {err}") from None
        if not any(map(any, y_k)):
            continue
        for i, den_i, q_i, qb_i in terms:
            q_i = q_i if k else ()   # k q_i y_k vanishes at k = 0
            if not (q_i or qb_i):
                continue
            t = k + i - 1
            den_t, den_c = dens[t], den_i * den_y
            common = math.gcd(den_t, den_c)
            row_up, acc_up = den_c // common, den_t // common
            dens[t] = den_t * row_up
            for part, column in zip(rem, y_k):
                acc = [0] * size
                for ro, co, v in q_i:
                    v *= k
                    for j in range(n):
                        w = column[co + j]
                        if w:
                            acc[ro + j] += v * w
                for r, c, v in qb_i:
                    w = column[c]
                    if w:
                        acc[r] += v * w
                part[t] = [a * row_up - b * acc_up
                           for a, b in zip(part[t], acc)]
    y = [[y_k[1][c] for y_k in ys] for c in range(len(rem))]
    return [_component_rows(d, cols, n, pivot.embedded)
            for d, cols in ((dens[:cut], [part[:cut] for part in rem]),
                            ([y_k[0] for y_k in ys], y))]


def _component_rows(dens, parts, n, embedded):
    """The integer rows of N components from ``_recur_exact``'s per-degree
    integer columns over the denominators ``dens``: every degree brought
    to their lcm, each component reduced with one gcd."""
    if not dens:
        return [None] * n
    if embedded:
        parts = [[v[:n] for v in parts[0]], [v[n:] for v in parts[0]]]
    den = math.lcm(*dens)
    scale = [den // d for d in dens]
    if any(f != 1 for f in scale):
        parts = [[[v * f for v in vec] for vec, f in zip(part, scale)]
                 for part in parts]
    re = list(zip(*parts[0]))
    im = list(zip(*parts[1])) if len(parts) > 1 else [(0,) * len(dens)] * n
    return [_reduced_row(den, a, b) for a, b in zip(re, im)]


def _recur_float(q, r, at, mat, rem, ks, label, tol):
    """The float recursion on the (rows, N) complex128 remainder ``rem``,
    k in the order of the array ``ks``, with ``q`` and ``r`` the
    coefficients of Q and QB scaled so that q_at = 1, ``at`` the pivot's
    i, and ``mat`` the pivot R_(at-1).  Returns the y_k by k.

    Each k is one ``np.linalg.solve`` of ``mat`` shifted on its diagonal
    by k, on row k + at - 1.  The other terms lie all below the pivot at
    infinity and all above it at a pole, so y_k leaves them in two slice
    updates: k q_i y_k, then R_(i-1) y_k.  Only a solve that raises
    LinAlgError ends the loop early.  ``first_failed_solve`` then checks
    the solves (k + mat) y_k = row in the order run, so what overflowed
    shows there: the first refused raises AssumptionError "k + ``label``
    singular at k=...", or ArithmeticError on a non-finite row.
    """
    lo, hi = (0, at) if at == len(q) - 1 else (at + 1, len(q))
    lo_r = max(lo, 1)
    q_terms, r_terms = q[lo:hi, None], r[lo_r - 1:hi - 1]
    ys = np.zeros((len(ks), rem.shape[1]), complex)
    shifted = mat.copy()
    diag, shifted_diag = np.diagonal(mat), shifted.reshape(-1)[::len(mat) + 1]
    ran = len(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, k in enumerate(ks.tolist()):
            np.add(diag, k, out=shifted_diag)
            try:
                ys[k] = y_k = np.linalg.solve(shifted, rem[k + at - 1])
            except np.linalg.LinAlgError:
                ran = i
                break
            if k:
                rem[k + lo - 1:k + hi - 1] -= k * q_terms * y_k
            rem[k + lo_r - 1:k + hi - 1] -= r_terms @ y_k
        ks = ks[:ran + 1]
        failed = first_failed_solve(mat, ks, ys[ks[:ran]], rem[ks + at - 1],
                                    tol)
    if failed:
        k, error = failed
        if isinstance(error, ArithmeticError):
            raise error
        raise AssumptionError(f"k + {label} singular at k={k}: {error}")
    return ys


def _solve_polynomial_float(system, rows, tol):
    """``solve_polynomial``'s float end on the (N, width) rows ``rows``,
    with pivot J_{B_inf} (Q is monic, so q_(S+2) = 1): phi and y as rows."""
    s, r = system.s, system.qb_coefficients()
    rem = np.array(rows.T, dtype=complex, order="C")
    top = np.flatnonzero(rem.any(axis=1))
    rem = rem[:top[-1] + 1 if top.size else 0]
    y = _recur_float(np.array(system.q_poly(), dtype=complex), r, s + 2,
                     r[-1], rem, np.arange(len(rem) - s - 2, -1, -1),
                     "B_inf", tol)
    return rem[:s + 1].T, y.T


def shift_up(system, g, tol=1e-12):
    """Trade spectra for degree: move the problem to residues B_j + I.

    Splits g into its interpolant at the poles plus a multiple of Q,
    solves the residue equations B_j y_0(p_j) = g(p_j)/Q'(p_j) to build
    the particular part y_0, and returns the lifted system with the new
    polynomial right-hand side for ytilde in y = y_0 + Q ytilde.
    """
    exact = system.exact
    d = system.size
    if g.dim != d:
        raise ValueError("right-hand side dimension mismatch")
    q = system.q_poly()
    qprime = system.q_prime()

    # residues of g/Q and the particular part y_0 via Lagrange basis
    y0 = VecPoly.zero(d, exact)
    g_interp = VecPoly.zero(d, exact)
    for j in range(system.n_poles):
        p_j = system.poles[j]
        gj_val = g.eval(p_j)
        lag = system.lagrange_basis(j)
        g_interp = g_interp + VecPoly.constant(gj_val, exact).mul_sp(lag)
        resid = vec_scale(
            from_int(1, exact) / sp_eval(qprime, p_j), gj_val
        )
        try:
            cj = solve_linear(system.residues[j], resid, tol)
        except SingularMatrixError as err:
            raise AssumptionError(
                f"residue B_{j} singular; ladder step undefined: {err}"
            ) from None
        y0 = y0 + VecPoly.constant(cj, exact).mul_sp(lag)

    # (g - interpolant)/Q exactly, plus the polynomial part of g_P/Q - B y_0
    g_tail = (g - g_interp).div_exact_sp(q, tol)
    poly_part = (g_interp - system.qb_poly().mul_vec(y0)).div_exact_sp(q, tol)
    new_rhs = g_tail - y0.derivative() + poly_part
    return ShiftStep(system=system.shift(1), rhs=new_rhs, particular=y0)


def pull_back_correction(system, phi_lifted, tol=1e-12):
    """Carry a degree <= S correction of the lifted system down one rung.

    With y = y_0 + Q ytilde and ytilde solving the lifted problem corrected
    by phi_lifted, the original correction solves the short polynomial
    problem with right-hand side Q * phi_lifted; its solution y_1 (degree
    <= S+1) joins the ladder as y = y_0 + y_1 + Q ytilde.
    """
    rhs = phi_lifted.mul_sp(system.q_poly())
    result = solve_polynomial(system, rhs, tol)
    return result.phi, result.y


def solution_uniqueness_check(system, tol=1e-12):
    """Is (phi, y) unique for every polynomial right-hand side?

    True when every k + B_inf with k >= 0 is invertible; None (with a
    warning) when one is singular.
    """
    bad = _singular_ks(system, "inf", tol, _exact_operators(system)[0]
                       if system.exact else None)
    if bad:
        warnings.warn(
            f"uniqueness check skipped: k + B_inf singular at k={min(bad)}",
            stacklevel=2,
        )
        return None
    return True

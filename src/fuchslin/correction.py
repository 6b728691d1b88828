"""Constructive correction of a Fuchsian right-hand side.

The prototype problem: given the equation

    y' + B(x) y = (1/Q) g(x)

with polynomial g, find the unique polynomial correction phi of degree at
most S and polynomial solution y such that

    y' + B(x) y = (1/Q) (g(x) - phi(x)).

``solve_polynomial`` does this by descending back-substitution on the
cleared equation Q y' + (QB) y = g - phi.  Q is monic of degree S+2 and QB
has degree S+1 with leading coefficient B_inf, so the coefficient of
x^(k+S+1) is (k + B_inf) y_k plus terms of the y_j with j > k: the
indicial equation at infinity.  One solve per k fixes y from the top down,
and what is left of g at degrees <= S is phi.  The paper builds the same
(unique) pair by expanding g in the lowered Rodrigues family; the tests
keep that construction as the reference.  Systems and induced blocks
share it, and both hand it QB's S + 2 coefficients in one form
(``qb_coefficients``), the top one B_inf (J_{B_inf} for a block), from
which the shift test at infinity reads too.  Float mode runs the
recursion on complex128 arrays.  Exact mode runs it on per-degree lists
of Fractions, real and imaginary parts apart (``SplitPoly``), with the
coefficients and Q as sparse real entries read once per call: each k is
one sparse Gauss-Jordan (``SparseMatrix.solve``), for the real and the
imaginary parts as two columns when QB and Q are real, and in the real
2N embedding otherwise.

``local_taylor`` solves the same cleared equation as a Taylor series at one
pole, from the bottom up.  In t = x - p_j, Q vanishes at t = 0, so the
coefficient of t^k is Q'(p_j) (k + B_j) y_k plus terms of the y_i with
i < k: the indicial equation at p_j.  One solve per k gives the solution
analytic at that pole, which the analytic route's certificate compares
with its continued solution.  Exact mode solves each k + B_j exactly.
Float mode runs on complex128 arrays: k + B_j differs between k only on
its diagonal, so one batched inverse serves every k.

Both float recursions check their solves once, after the loop, with
``matrices.first_failed_solve``, the rule ``solve_array`` applies to one
solve: the top k down at infinity, k = 0 up at a pole, and the first
solve refused in that order raises, as a per-k ``solve_array`` would.

``shift_up`` / ``pull_back_correction`` implement one rung of the shift
ladder: when residue spectra have nonpositive real parts, the substitution
y = y_0 + Q ytilde moves the problem to residues B_j + I; the pull-back
solves a short polynomial problem to carry a correction of the lifted
system down to the original one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exact import from_int
from .matrices import (
    SingularMatrixError,
    SparseMatrix,
    first_failed_solve,
    solve_linear,
    split_entries,
    vec_add,
    vec_scale,
    vec_sub,
    vec_zero,
)
from .model import AssumptionError, singular_shifts
from .poly import SplitPoly, VecPoly, sp_eval, sp_taylor


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

    Raises AssumptionError when some k + B_inf with k >= 0 is singular, as
    ``model.singular_shifts`` decides (exactly in exact mode, by ``tol`` in
    float mode): below deg g - S the recursion cannot solve, and above it
    a singular shift may carry a polynomial kernel that makes (phi, y)
    non-unique.  The residues B_j enter no solve, and no spectral
    positivity or nonresonance between eigenvalues is needed.

    ``g`` is a VecPoly or, in float mode, also a (deg + 1, N) complex array
    and, in exact mode, a SplitPoly; phi and y come back in its form.
    Float mode first drops the top coefficients whose entries are all
    <= tol.
    """
    if (g.shape[1] if isinstance(g, np.ndarray) else g.dim) != system.size:
        raise ValueError("right-hand side dimension mismatch")
    binf, lower = (_exact_operators(system) if system.exact
                   else (None, None))
    bad = _singular_shifts_at_infinity(system, tol, binf)
    if bad:
        raise AssumptionError(
            f"k + B_inf singular at k={min(bad)}: (phi, y) not unique")
    if not system.exact:
        return _solve_polynomial_float(system, g, tol)
    if isinstance(g, VecPoly):
        result = _solve_polynomial_exact(system.s, binf, lower,
                                         SplitPoly.from_vecpoly(g))
        return CorrectionResult(phi=result.phi.to_vecpoly(),
                                y=result.y.to_vecpoly())
    return _solve_polynomial_exact(system.s, binf, lower, g)


def _singular_shifts_at_infinity(system, tol, binf=None):
    """The k >= 0 at which k + B_inf is singular, as
    ``model.singular_shifts`` decides, read from QB's top coefficient or,
    when given, from the SparseMatrix ``binf`` of it that the exact
    recursion solves with (its 2N embedding is singular exactly when the
    complex matrix is)."""
    if binf is None:
        binf = system.qb_coefficients()[-1]
        if system.exact:
            binf = SparseMatrix(system.size, binf)
    tests = singular_shifts(binf, system.residue_spectrum("inf"), tol)
    return [k for k, _, singular in tests if singular]


def _exact_operators(system):
    """What the exact recursion reads of ``system``, once per call.

    J_{B_inf} as a SparseMatrix, and for j = 0 .. S + 1 what y_k leaves at
    x^(k+j-1): k q_j y_k, with q_j as real (row offset, col offset, value)
    blocks of size N, and QB's x^(j-1) coefficient applied to y_k, as real
    (row, col, value) entries.  All are real when B_inf, QB and Q are, and
    otherwise in the real 2N embedding, where a vector is its real parts
    followed by its imaginary parts.
    """
    n = system.size
    coeffs = system.qb_coefficients()
    q = system.q_poly()
    embed = (any(im for entries in coeffs for *_, im in entries)
             or any(c.im for c in q))
    lower = [(split_entries([(0, 0, q_j.re, q_j.im)], n, embed),
              split_entries(coeffs[j - 1], n, embed) if j else [])
             for j, q_j in enumerate(q[:-1])]
    return SparseMatrix(n, coeffs[-1], embed), lower


def _solve_polynomial_exact(s, binf, lower, g):
    """``solve_polynomial``'s exact recursion on a SplitPoly.

    Each k is one ``SparseMatrix.solve`` of k + J_{B_inf}: with a real
    operator, for the real and the imaginary parts of the right-hand side
    as two columns; in the embedding, for both in one column of length
    2N.  y_k's terms below x^(k+S+1) then leave the remainder entry by
    entry, exact zeros skipped.
    """
    n = g.dim
    if binf.embedded:
        im = g.im or [[0] * n] * len(g.re)
        parts = [[re + i for re, i in zip(g.re, im)]]
    else:
        parts = [g.re] if g.im is None else [g.re, g.im]
    rem = [[list(v) for v in part] for part in parts]
    top = len(g.re)
    while top and not any(any(part[top - 1]) for part in rem):
        top -= 1
    ys = [None] * max(top - s - 1, 0)
    for k in range(len(ys) - 1, -1, -1):
        try:
            ys[k] = y_k = binf.solve([part[k + s + 1] for part in rem], k)
        except SingularMatrixError as err:
            raise AssumptionError(
                f"k + B_inf singular at k={k}: {err}") from None
        # subtract k Q y_k x^(k-1) + (QB) y_k x^k below the eliminated top
        for j, (q_j, qb_j) in enumerate(lower):
            if not k + j:
                continue
            for t, column in zip([part[k + j - 1] for part in rem], y_k):
                for ro, co, v in q_j if k else ():
                    f = k * v
                    for i in range(n):
                        w = column[co + i]
                        if w:
                            t[ro + i] -= f * w
                for r, c, v in qb_j:
                    w = column[c]
                    if w:
                        t[r] -= v * w
    phi = [part[:s + 1] for part in rem]
    y = [[y_k[c] for y_k in ys] for c in range(len(rem))]
    if binf.embedded:
        phi, y = ([[v[:n] for v in a[0]], [v[n:] for v in a[0]]]
                  for a in (phi, y))
    return CorrectionResult(*(SplitPoly(n, a[0], a[1] if len(a) > 1 else None)
                              for a in (phi, y)))


def _solve_polynomial_float(system, g, tol):
    """``solve_polynomial``'s recursion on complex128 arrays: k + J_{B_inf}
    is J_{B_inf} shifted on its diagonal, the remainder one (deg + 1, N)
    array.

    Each k is one ``np.linalg.solve``, and ``first_failed_solve`` checks
    them all once, from the top k down, after the recursion: only a solve
    that raises ends it early, and whatever overflows on the way shows in
    the right-hand sides and residuals checked after it.
    """
    s, n = system.s, system.size
    coeffs = system.qb_coefficients()
    binf, qb = coeffs[-1], coeffs[:-1]
    q = np.array(system.q_poly(), dtype=complex)
    array = isinstance(g, np.ndarray)
    rem = np.array(g if array else g.coeffs, dtype=complex).reshape(-1, n)
    top = np.flatnonzero(~(np.abs(rem) <= tol).all(axis=1))
    rem = rem[:top[-1] + 1 if top.size else 0]
    ys = np.zeros((max(len(rem) - s - 1, 0), n), complex)
    ks = np.arange(len(ys) - 1, -1, -1)
    ran = len(ks)   # the solves before one that raises
    shifted = binf.copy()
    diag, shifted_diag = np.diagonal(binf), shifted.reshape(-1)[::n + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, k in enumerate(ks.tolist()):
            np.add(diag, k, out=shifted_diag)
            try:
                y_k = np.linalg.solve(shifted, rem[k + s + 1])
            except np.linalg.LinAlgError:
                ran = i
                break
            ys[k] = y_k
            # subtract k Q y_k x^(k-1) + (QB) y_k x^k below the eliminated
            # top
            if k:
                rem[k - 1:k + s + 1] -= k * q[:-1, None] * y_k
            rem[k:k + s + 1] -= qb @ y_k
    ks = ks[:ran + 1]
    failed = first_failed_solve(binf, ks, ys[ks[:ran]], rem[ks + s + 1], tol)
    if failed:
        _raise_refusal("B_inf", *failed)
    phi, y = rem[:s + 1], ys
    if not array:
        phi, y = (VecPoly.from_coeffs(map(tuple, a.tolist()), False, dim=n)
                  for a in (phi, y))
    return CorrectionResult(phi=phi, y=y)


def _raise_refusal(label, k, error):
    """Raise a failed float solve of k + ``label``: a non-finite
    right-hand side as it is, any other failure as an AssumptionError."""
    if isinstance(error, ArithmeticError):
        raise error
    raise AssumptionError(f"k + {label} singular at k={k}: {error}")


def local_taylor(system, pole_index, rhs, order, tol=1e-12):
    """Taylor solution of Q y' + (QB) y = rhs at pole ``pole_index``.

    The bottom-up twin of ``solve_polynomial``.  In t = x - p_j, Q has the
    Taylor coefficients q_a with q_0 = 0 and q_1 = Q'(p_j), and QB has the
    coefficients R_b with R_0 = Q'(p_j) B_j.  The coefficient of t^k is
    then Q'(p_j) (k + B_j) y_k plus terms of the y_i with i < k: one solve
    per k, after which y_k's own terms, k q_a y_k at t^(a+k-1) for a >= 2
    and R_b y_k at t^(b+k) for b >= 1, leave the remainder.  This is the
    unique solution analytic at p_j whenever every k + B_j is invertible.

    Raises ValueError when rhs has the wrong dimension and AssumptionError
    when some k + B_j with k <= order is singular.  Float mode runs on
    complex128 arrays (``_local_taylor_float``); exact mode solves each k
    exactly.
    """
    if rhs.dim != system.size:
        raise ValueError("right-hand side dimension mismatch")
    if not system.exact:
        return _local_taylor_float(system, pole_index, rhs, order, tol)
    d = system.size
    center = system.poles[pole_index]
    count = order + 1
    q = sp_taylor(system.q_poly(), center, True)
    inv_q1 = from_int(1, True) / q[1]
    qb = system.qb_poly()
    r_blocks = sp_taylor([qb.coefficient(i) for i in range(len(q) - 1)],
                         center, True)[1:]   # R_1 .. R_(S+1)
    rem = rhs.taylor_at(center)[:count]
    rem += [vec_zero(d, True)] * (count - len(rem))
    b_j = system.residues[pole_index]
    ys = []
    for k in range(count):
        try:
            y_k = solve_linear(b_j.add_scaled_identity(k),
                               vec_scale(inv_q1, rem[k]), tol)
        except SingularMatrixError as err:
            raise AssumptionError(
                f"k + B_{pole_index} singular at k={k}: {err}"
            ) from None
        ys.append(y_k)
        for a in range(2, min(len(q), count - k + 1)):
            rem[a + k - 1] = vec_sub(rem[a + k - 1], vec_scale(k * q[a], y_k))
        for b, r_b in enumerate(r_blocks[: count - k - 1], start=1):
            rem[b + k] = vec_sub(rem[b + k], r_b.matvec(y_k))
    return TaylorSolution(pole_index, center, ys)


def _local_taylor_float(system, pole_index, rhs, order, tol):
    """``local_taylor``'s recursion on complex128 arrays.

    k + B_j differs between k only on its diagonal, so one batched inverse
    of the stack k = 0 .. order, divided by Q'(p_j), gives every y_k from
    rem[k].  Each k is then one d x d product and one slice update of the
    (count + S + 1, d) remainder, as in ``_solve_polynomial_float``: y_k's
    terms k q_a y_k and R_(a-1) y_k, a = 2 .. S + 2, land together on
    t^(k+1) .. t^(k+S+1).  Singular shifts are refused up front
    (``model.singular_shifts``); ``first_failed_solve`` then checks every
    solve once, from k = 0 up, after the recursion, and the first k it
    refuses is the one a per-k ``solve_array`` would have raised on.
    """
    s, d = system.s, system.size
    center = system.poles[pole_index]
    count = order + 1
    b_j = system.residues[pole_index]
    tests = singular_shifts(b_j, system.residue_spectrum(pole_index), tol)
    bad = [k for k, _, singular in tests if singular and k < count]
    if bad:
        raise AssumptionError(f"k + B_{pole_index} singular at k={min(bad)}")
    q = np.array(sp_taylor(system.q_poly(), center), dtype=complex)
    r = np.array(sp_taylor(system.qb_coefficients(), center))   # r[b] is R_b
    b_j = b_j.to_numpy()
    shifted = np.repeat(b_j[None], count, axis=0)
    shifted[:, range(d), range(d)] += np.arange(count)[:, None]
    try:
        inverses = np.linalg.inv(shifted) / q[1]
    except np.linalg.LinAlgError as err:
        raise AssumptionError(
            f"k + B_{pole_index} singular at some k <= {order}: {err}"
        ) from None
    ys = np.empty((count, d), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        given = np.array(rhs.coeffs, dtype=complex).reshape(-1, d)
        given = np.array(sp_taylor(given, center)).reshape(-1, d)[:count]
        rem = np.zeros((count + s + 1, d), complex)
        rem[:len(given)] = given
        for k in range(count):
            ys[k] = y_k = inverses[k] @ rem[k]
            rem[k + 1:k + s + 2] -= k * q[2:, None] * y_k + r[1:] @ y_k
        used = rem[:count] / q[1]
    failed = first_failed_solve(b_j, np.arange(count), ys, used, tol)
    if failed:
        _raise_refusal(f"B_{pole_index}", *failed)
    return TaylorSolution(pole_index, center, list(map(tuple, ys.tolist())))


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
    bad = _singular_shifts_at_infinity(system, tol)
    if bad:
        warnings.warn(
            f"uniqueness check skipped: k + B_inf singular at k={min(bad)}",
            stacklevel=2,
        )
        return None
    return True

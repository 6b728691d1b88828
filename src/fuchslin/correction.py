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
keep that construction as the reference.

``local_taylor`` solves the same cleared equation as a Taylor series at one
pole, from the bottom up.  In t = x - p_j, Q vanishes at t = 0, so the
coefficient of t^k is Q'(p_j) (k + B_j) y_k plus terms of the y_i with
i < k: the indicial equation at p_j.  One solve per k gives the solution
analytic at that pole, which the analytic route's certificate compares
with its continued solution.  Exact mode solves each k + B_j exactly.
Float mode runs on complex128 arrays: k + B_j differs between k only on
its diagonal, so one batched inverse serves every k, and the solves are
checked together after the recursion.

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
    CMatrix,
    SingularMatrixError,
    solve_linear,
    vec_add,
    vec_scale,
    vec_sub,
    vec_zero,
)
from .model import AssumptionError, singular_shifts
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

    Raises AssumptionError when some k + B_inf with k >= 0 is singular, as
    ``model.singular_shifts`` decides (exactly in exact mode, by ``tol`` in
    float mode): below deg g - S the recursion cannot solve, and above it
    a singular shift may carry a polynomial kernel that makes (phi, y)
    non-unique.  The residues B_j enter no solve, and no spectral
    positivity or nonresonance between eigenvalues is needed.

    ``g`` is a VecPoly or, in float mode, also a (deg + 1, N) complex array;
    phi and y come back in its form.  Float mode first drops the top
    coefficients whose entries are all <= tol.
    """
    if (g.shape[1] if isinstance(g, np.ndarray) else g.dim) != system.size:
        raise ValueError("right-hand side dimension mismatch")
    exact = system.exact
    s = system.s
    # a float block keeps J_{B_inf} as an array only
    binf = system.b_infinity() if exact else system.float_arrays()[0]
    tests = singular_shifts(binf, system.residue_spectrum("inf"), tol)
    bad = [k for k, _, singular in tests if singular]
    if bad:
        raise AssumptionError(
            f"k + B_inf singular at k={min(bad)}: (phi, y) not unique")
    if not exact:
        return _solve_polynomial_float(system, g, tol)
    q = system.q_poly()
    rem = list(g.coeffs)
    ys = []
    for k in range(g.degree - s - 1, -1, -1):
        try:
            y_k = solve_linear(binf.add_scaled_identity(k), rem[k + s + 1], tol)
        except SingularMatrixError as err:
            raise AssumptionError(
                f"k + B_inf singular at k={k}: {err}"
            ) from None
        ys.append(y_k)
        # subtract k Q y_k x^(k-1) + (QB) y_k x^k below the eliminated top
        for i, q_i in enumerate(q[:-1] if k else ()):
            rem[i + k - 1] = vec_sub(rem[i + k - 1], vec_scale(k * q_i, y_k))
        for i in range(s + 1):
            rem[i + k] = vec_sub(rem[i + k], system.qb_matvec(i, y_k))
    return CorrectionResult(
        phi=VecPoly.from_coeffs(rem[: s + 1], exact, dim=system.size),
        y=VecPoly.from_coeffs(ys[::-1], exact, dim=system.size),
    )


def _solve_polynomial_float(system, g, tol):
    """``solve_polynomial``'s recursion on complex128 arrays: k + J_{B_inf}
    is J_{B_inf} shifted on its diagonal, the remainder one (deg + 1, N)
    array.

    Each k is one ``np.linalg.solve``.  The checks a per-k ``solve_array``
    makes run once (``_raise_first_failure``): the recursion stops only at
    the largest k whose given right-hand side is not finite, or at a
    solve that raises, and whatever overflows on the way shows in the
    right-hand sides and residuals checked after it.
    """
    s, n = system.s, system.size
    binf, qb = system.float_arrays()
    q = np.array(system.q_poly(), dtype=complex)
    array = isinstance(g, np.ndarray)
    rem = np.array(g if array else g.coeffs, dtype=complex).reshape(-1, n)
    top = np.flatnonzero(~(np.abs(rem) <= tol).all(axis=1))
    rem = rem[:top[-1] + 1 if top.size else 0]
    ys = np.zeros((max(len(rem) - s - 1, 0), n), complex)
    given = np.flatnonzero(~np.isfinite(rem[s + 1:]).all(axis=1))
    stop = int(given[-1]) if len(given) else -1
    singular = None
    shifted = binf.copy()
    diag, shifted_diag = np.diagonal(binf), shifted.reshape(-1)[::n + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(ys) - 1, stop, -1):
            np.add(diag, k, out=shifted_diag)
            try:
                y_k = np.linalg.solve(shifted, rem[k + s + 1])
            except np.linalg.LinAlgError as err:
                stop, singular = k, err
                break
            ys[k] = y_k
            # subtract k Q y_k x^(k-1) + (QB) y_k x^k below the eliminated
            # top
            if k:
                rem[k - 1:k + s + 1] -= k * q[:-1, None] * y_k
            rem[k:k + s + 1] -= qb @ y_k
        _raise_first_failure(binf, ys, rem[s + 1:], stop, singular, tol)
    phi, y = rem[:s + 1], ys
    if not array:
        phi, y = (VecPoly.from_coeffs(map(tuple, a.tolist()), False, dim=n)
                  for a in (phi, y))
    return CorrectionResult(phi=phi, y=y)


def _raise_first_failure(binf, ys, used, stop, singular, tol):
    """Raise what a per-k ``solve_array`` loop would have raised first.

    ``used[k]`` is the right-hand side the solve at k used, ``ys[k]`` its
    solution for k > ``stop``; at ``stop`` (if >= 0) the recursion ended,
    with the LinAlgError ``singular`` or on a non-finite right-hand side.
    The failure at the largest k wins: there, a non-finite right-hand side
    raises ArithmeticError; a singular solve, or a residual
    |J y_k + k y_k - used[k]| above max(1, max|k + J| max|y_k|) *
    max(tol, 1e-12) * 1e4, raises AssumptionError.
    """
    ks = np.arange(max(stop, 0), len(ys))
    finite = np.isfinite(used[ks]).all(axis=1)
    y = ys[ks]
    diag = np.diagonal(binf)
    off = np.abs(binf)
    np.fill_diagonal(off, 0.0)
    shift_max = np.maximum(off.max(), np.abs(diag + ks[:, None]).max(axis=1))
    scale = np.fmax(1.0, shift_max * np.abs(y).max(axis=1, initial=0.0))
    resid = np.abs(y @ binf.T + ks[:, None] * y - used[ks]).max(axis=1)
    failed = ~finite | (ks > stop) & (
        ~np.isfinite(resid) | (resid > scale * max(tol, 1e-12) * 1e4))
    if stop >= 0:
        failed[0] = True
    if not failed.any():
        return
    at = np.flatnonzero(failed)[-1]
    k = int(ks[at])
    if not finite[at]:
        raise ArithmeticError("non-finite right-hand side in a float solve")
    if k == stop:
        raise AssumptionError(f"k + B_inf singular at k={k}: {singular}")
    # the residual as ``solve_array`` computes it, for the same message
    shifted = binf.copy()
    np.fill_diagonal(shifted, diag + k)
    resid = np.max(np.abs(shifted @ ys[k] - used[k]))
    raise AssumptionError(
        f"k + B_inf singular at k={k}: solve residual {resid:.3e} exceeds "
        "tolerance (near-singular matrix)")


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
    entries = [[sp_taylor(qb.entry(r, c), center, True) for c in range(d)]
               for r in range(d)]
    zero = from_int(0, True)
    r_blocks = [
        CMatrix.from_rows(
            [[e[b] if b < len(e) else zero for e in row] for row in entries],
            True,
        )
        for b in range(1, len(q) - 1)
    ]
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
    t^(k+1) .. t^(k+S+1).  The checks of a per-k ``solve_array`` run once:
    singular shifts up front (``model.singular_shifts``), a non-finite
    right-hand side before and after the loop, and every residual after it.
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
    binf, qb = system.float_arrays()
    # QB's top coefficient (x^(S+1)) is B_inf; r[b] is R_b
    r = np.array(sp_taylor(np.concatenate([qb, binf[None]]), center))
    given = np.array(rhs.coeffs, dtype=complex).reshape(-1, d)
    if not np.isfinite(given).all():
        raise ArithmeticError("non-finite right-hand side in a float solve")
    given = np.array(sp_taylor(given, center)).reshape(-1, d)[:count]
    rem = np.zeros((count + s + 1, d), complex)
    rem[:len(given)] = given
    shifted = np.repeat(b_j.to_numpy()[None], count, axis=0)
    shifted[:, range(d), range(d)] += np.arange(count)[:, None]
    try:
        inverses = np.linalg.inv(shifted) / q[1]
    except np.linalg.LinAlgError as err:
        raise AssumptionError(
            f"k + B_{pole_index} singular at some k <= {order}: {err}"
        ) from None
    ys = np.empty((count, d), complex)
    for k in range(count):
        ys[k] = y_k = inverses[k] @ rem[k]
        rem[k + 1:k + s + 2] -= k * q[2:, None] * y_k + r[1:] @ y_k
    used = rem[:count] / q[1]
    if not np.isfinite(used).all():
        raise ArithmeticError("non-finite right-hand side in a float solve")
    scale = np.maximum(1.0, np.abs(shifted).max(axis=(1, 2))
                       * np.abs(ys).max(axis=1))
    resid = np.abs((shifted @ ys[:, :, None])[:, :, 0] - used).max(axis=1)
    failed = np.flatnonzero(~(resid <= scale * max(tol, 1e-12) * 1e4))
    if len(failed):
        k = failed[0]
        raise AssumptionError(
            f"k + B_{pole_index} singular at k={k}: solve residual "
            f"{resid[k]:.3e} exceeds tolerance (near-singular matrix)")
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
    tests = singular_shifts(system.b_infinity(),
                            system.residue_spectrum("inf"), tol)
    bad = [k for k, _, singular in tests if singular]
    if bad:
        warnings.warn(
            f"uniqueness check skipped: k + B_inf singular at k={min(bad)}",
            stacklevel=2,
        )
        return None
    return True

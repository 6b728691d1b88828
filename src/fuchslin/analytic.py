"""Analytic route: corrections from moment conditions along paths.

For right-hand sides (or spectra) outside the polynomial solver's reach,
the unique correction phi of degree at most S is characterized by
analyticity of

    y(x) = W(x)^{-1} integral_{p_0}^{x} Q^{-1} W (g - phi) dt

at every pole, where W solves the transposed-side equation W' = W B.  With
all residue spectra in the open right half plane the integrals converge,
and analyticity at p_1 .. p_{S+1} pins phi through the block system

    sum_i M_{ji} phi_i = xi_j,
    M_{ji} = integral_{p_0}^{p_j} x^i Q^{-1} W dx,
    xi_j   = integral_{p_0}^{p_j} Q^{-1} W g dx.

Each integral runs along a chosen path: a power-series block near both
endpoint poles (Frobenius fundamental series, integrated term by term
against t^{B_j}) and a regular ODE transport in between, glued by a
matching constant at the far pole.

Spectra with nonpositive real parts are first moved right by the shift
ladder from the correction module; the ladder count is the smallest
integer making every real part strictly positive.  Corrections are pulled
back down rung by rung, and the returned handle carries the whole
composition y = y_0 + y_1 + Q * (next rung).

Everything here runs in floating point; exact systems are converted on
entry (phi keeps only as much accuracy as the quadrature tolerance).

Normalization: W is anchored at the basepoint as

    W = K_0 (x - p_0)^{B_0} Phi_0(x),   K_0 = prod_{k>0} (p_0 - p_k)^{B_k}

(principal logarithms, ascending k).  In the commuting case -- dimension
one in particular -- this is exactly prod_j (x - p_j)^{B_j}.  phi itself is
invariant under any constant left factor on W, so the anchor only fixes
the reported moment values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .correction import (
    CorrectionResult,
    TaylorSolution,
    local_taylor,
    pull_back_correction,
    shift_up,
)
from .matrices import CMatrix
from .model import AssumptionError, FuchsianSystem, check_linear_assumption
from .poly import VecPoly, sp_eval, sp_taylor


class ResonanceError(AssumptionError):
    """Two eigenvalues of one residue differ by a nonzero integer."""


class QuadratureError(RuntimeError):
    """Quadrature or series evaluation failed to reach the tolerance."""


@dataclass
class PathSpec:
    """Polyline from the basepoint to a target: waypoints as complex numbers."""

    waypoints: tuple

    def __post_init__(self):
        self.waypoints = tuple(complex(w) for w in self.waypoints)
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least two waypoints")

    @property
    def start(self):
        return self.waypoints[0]

    @property
    def end(self):
        return self.waypoints[-1]


@dataclass
class FundamentalSolution:
    """Local fundamental factor W = t^{B} Phi(x) at a pole, as a series."""

    center: complex
    residue: np.ndarray
    series: list            # Phi_k as numpy arrays; Phi_0 = I
    radius: float           # distance to the nearest other pole

    def eval_phi(self, x):
        return _eval_series_mat(self.series, complex(x) - self.center)

    def w_local(self, x):
        """t^{B} Phi(x) with the principal branch of log t."""
        t = complex(x) - self.center
        return expm(cmath.log(t) * self.residue) @ self.eval_phi(x)


@dataclass
class PoleCheck:
    pole_index: int
    point: complex
    difference: float
    scale: float
    passed: bool


@dataclass
class CertificateReport:
    """A-posteriori check: continued solution vs local series at each pole."""

    tol: float
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def max_difference(self):
        return max((c.difference / max(c.scale, 1.0) for c in self.checks),
                   default=0.0)


# ----------------------------------------------------------------------
# float conversion helpers
# ----------------------------------------------------------------------


def float_system(system):
    if not system.exact:
        return system
    poles = [complex(p) for p in system.poles]
    residues = [
        CMatrix.from_rows(
            [[complex(v) for v in row] for row in m.rows], exact=False
        )
        for m in system.residues
    ]
    return FuchsianSystem(poles, residues)


def float_vecpoly(p):
    if not p.exact:
        return p
    return VecPoly.from_coeffs(
        [[complex(c) for c in v] for v in p.coeffs], exact=False, dim=p.dim
    )


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------


def default_path(system, target):
    """Straight basepoint-to-target polyline, bulged around blocking poles.

    Any other pole closer to the segment than a tenth of the minimal pole
    gap is rounded by a sampled semicircular arc on the left of the travel
    direction.
    """
    poles = [complex(p) for p in system.poles]
    p0 = poles[0]
    target = complex(target)
    gaps = [
        min(abs(p - q) for q in poles if q is not p) for p in poles
    ]
    r = 0.1 * min(gaps)
    d = target - p0
    length = abs(d)
    if length == 0:
        raise ValueError("path target coincides with the basepoint")
    dhat = d / length

    blockers = []
    for k, pk in enumerate(poles):
        if abs(pk - p0) < 1e-15 or abs(pk - target) <= 2 * r:
            continue
        # projection parameter onto the segment, in units of its length
        u = ((pk - p0).real * d.real + (pk - p0).imag * d.imag) / (length ** 2)
        if u <= 0.0 or u >= 1.0:
            continue
        foot = p0 + u * d
        if abs(pk - foot) < r:
            blockers.append((u, pk))
    blockers.sort(key=lambda t: t[0])

    points = [p0]
    for _, pk in blockers:
        arc = [
            pk - r * dhat * cmath.exp(-1j * theta)
            for theta in np.linspace(0.0, math.pi, 7)
        ]
        points.extend(arc)
    points.append(target)
    return PathSpec(tuple(points))


# ----------------------------------------------------------------------
# context: cached float data for one system
# ----------------------------------------------------------------------


class _Context:
    def __init__(self, system, tol, resonance_tol=1e-9):
        self.system = float_system(system)
        self.tol = tol
        self.resonance_tol = resonance_tol
        self.d = self.system.size
        self.poles = [complex(p) for p in self.system.poles]
        self.res = [m.to_numpy() for m in self.system.residues]
        self.gaps = [
            min(abs(p - q) for q in self.poles if q is not p)
            for p in self.poles
        ]
        self.q = self.system.q_poly()
        self._frob = {}
        self._anchor = None

    # nearest-gap based endpoint radius, kept inside the adjacent segment
    def eps_at(self, j, segment_len):
        return min(0.2 * self.gaps[j], 0.45 * segment_len)

    def series_count(self, ratio):
        eta = max(self.tol * 1e-2, 1e-16)
        if ratio >= 1.0:
            raise QuadratureError("endpoint radius reaches the series boundary")
        k = int(math.ceil(math.log(eta) / math.log(ratio))) + 8
        return max(20, min(k, 400))

    def frobenius(self, j, count):
        have = self._frob.get(j)
        if have is None or len(have) < count:
            self._frob[j] = _frobenius_series(self, j, count)
        return self._frob[j][:count]

    def anchor(self):
        """K_0 = prod_{k>0} (p_0 - p_k)^{B_k}, principal logs, ascending k."""
        if self._anchor is None:
            acc = np.eye(self.d, dtype=complex)
            for k in range(1, len(self.poles)):
                base = self.poles[0] - self.poles[k]
                acc = acc @ expm(cmath.log(base) * self.res[k])
            self._anchor = acc
        return self._anchor

    def b_at(self, x):
        acc = np.zeros((self.d, self.d), dtype=complex)
        for p, m in zip(self.poles, self.res):
            acc += m / (x - p)
        return acc

    def q_at(self, x):
        return complex(sp_eval(self.q, x))

    def pole_index(self, point, tol=1e-9):
        for j, p in enumerate(self.poles):
            if abs(point - p) <= tol * max(1.0, abs(p)):
                return j
        return None


def _sylvester_step(bj, k, rhs):
    """Solve k X + bj X - X bj = rhs by the vectorized linear system."""
    d = bj.shape[0]
    eye = np.eye(d, dtype=complex)
    op = k * np.eye(d * d, dtype=complex)
    op += np.kron(bj, eye)
    op -= np.kron(eye, bj.T)
    sol = np.linalg.solve(op, rhs.reshape(-1))
    return sol.reshape(d, d)


def _frobenius_series(ctx, j, count):
    """Phi_0 = I and the Sylvester recursion for the local factor at pole j."""
    bj = ctx.res[j]
    lam = np.linalg.eigvals(bj)
    for a in range(len(lam)):
        for b in range(len(lam)):
            diff = lam[a] - lam[b]
            near = round(diff.real)
            if near != 0 and abs(diff - near) <= ctx.resonance_tol:
                raise ResonanceError(
                    f"residue {j}: eigenvalues differ by the integer {near} "
                    f"(within {ctx.resonance_tol:g}); no power-series "
                    "fundamental factor at this pole"
                )
    c_blocks = _neighbor_blocks(ctx, j, count)
    series = [np.eye(ctx.d, dtype=complex)]
    for k in range(1, count):
        rhs = np.zeros((ctx.d, ctx.d), dtype=complex)
        for l in range(k):
            rhs += series[k - 1 - l] @ c_blocks[l]
        series.append(_sylvester_step(bj, k, rhs))
    return series


def _neighbor_blocks(ctx, j, count):
    """Taylor blocks at pole j of sum_{k != j} B_k/(x - p_k)."""
    out = []
    p_j = ctx.poles[j]
    for l in range(count):
        acc = np.zeros((ctx.d, ctx.d), dtype=complex)
        for k in range(len(ctx.poles)):
            if k == j:
                continue
            delta = p_j - ctx.poles[k]
            acc += ((-1.0) ** l / delta ** (l + 1)) * ctx.res[k]
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# series blocks at an endpoint pole
# ----------------------------------------------------------------------


def _recip_series(coeffs, count):
    """1 / (c_0 + c_1 t + ...) to ``count`` terms; c_0 must not vanish."""
    if abs(coeffs[0]) == 0.0:
        raise ZeroDivisionError("reciprocal of a series with zero constant")
    inv0 = 1.0 / coeffs[0]
    out = [inv0]
    for k in range(1, count):
        acc = 0.0
        for l in range(1, k + 1):
            c = coeffs[l] if l < len(coeffs) else 0.0
            acc += c * out[k - l]
        out.append(-inv0 * acc)
    return out


def _power_series_at(center, power, count):
    """(center + t)^power as a t-series (binomial, finite)."""
    out = [0.0] * count
    for l in range(min(power, count - 1) + 1):
        out[l] = math.comb(power, l) * center ** (power - l)
    return out


def _pole_blocks(ctx, j, powers, g_poly, count):
    """Series H^(i) and H^(g) with x^i Q^{-1} W = t^{B_j - I} sum H_k t^k.

    H^(i) = (x^i / Q_j) Phi as a matrix series; H^(g) = (1/Q_j) Phi g as a
    vector series, with Q_j the pole-j cofactor of Q.
    """
    p_j = ctx.poles[j]
    phi = ctx.frobenius(j, count)
    cof = [complex(c) for c in sp_taylor(ctx.system.cofactor(j), p_j)]
    inv_cof = _recip_series(cof, count)

    blocks = {}
    for i in powers:
        xi = _power_series_at(p_j, i, count)
        scalar = _series_mul_scalar(xi, inv_cof, count)
        blocks[i] = [
            _series_coeff_vec(scalar, phi, k) for k in range(count)
        ]
    gw = None
    if g_poly is not None:
        gser = _vec_taylor(g_poly, p_j, count)
        phig = [
            _series_coeff_matvec(phi, gser, k) for k in range(count)
        ]
        gw = [
            _series_coeff_vec(inv_cof, phig, k) for k in range(count)
        ]
    return blocks, gw


def _series_mul_scalar(a, b, count):
    out = [0.0] * count
    for i, ai in enumerate(a[:count]):
        if ai == 0.0:
            continue
        for jj in range(count - i):
            out[i + jj] += ai * b[jj]
    return out


def _series_coeff_matvec(mats, vecs, k):
    d = mats[0].shape[0]
    acc = np.zeros(d, dtype=complex)
    for l in range(k + 1):
        if l < len(mats) and k - l < len(vecs):
            acc += mats[l] @ vecs[k - l]
    return acc


def _series_coeff_vec(scalar, vecs, k):
    acc = np.zeros_like(vecs[0])
    for l in range(k + 1):
        if l < len(scalar) and k - l < len(vecs):
            acc += scalar[l] * vecs[k - l]
    return acc


def _vec_taylor(p, center, count):
    coeffs = p.taylor_at(center)
    d = p.dim
    out = []
    for k in range(count):
        if k < len(coeffs):
            out.append(np.array([complex(c) for c in coeffs[k]]))
        else:
            out.append(np.zeros(d, dtype=complex))
    return out


def _endpoint_sum(bj, t_end, blocks, count, tol):
    """sum_k t_end^{B + k} (B + k)^{-1} H_k with convergence control.

    Returns the accumulated matrix/vector *without* the leading constant;
    the caller multiplies by the anchor (basepoint) or matching constant
    (target pole).
    """
    d = bj.shape[0]
    t_pow = expm(cmath.log(t_end) * bj)
    acc = None
    tail = math.inf
    tk = 1.0 + 0.0j
    for k in range(count):
        hk = blocks[k]
        term = np.linalg.solve(bj + k * np.eye(d, dtype=complex), hk)
        term = tk * term
        acc = term if acc is None else acc + term
        tail = np.max(np.abs(term))
        tk *= t_end
    scale = max(1.0, float(np.max(np.abs(acc))))
    if tail > 50 * tol * scale:
        raise QuadratureError(
            f"endpoint series did not converge (last term {tail:.3e} "
            f"after {count} terms)"
        )
    return t_pow @ acc


# ----------------------------------------------------------------------
# one transport pass: series block, ODE interior, series block
# ----------------------------------------------------------------------


@dataclass
class _PassResult:
    mats: dict               # i -> full integral including both endpoints
    xi: object               # vector or None
    w_mid: np.ndarray        # W at the stop point near the target
    mid_point: complex
    mats_mid: dict           # partial integrals from p_0 to the stop point
    xi_mid: object
    start_point: complex
    w_start: np.ndarray
    mats_start: dict
    xi_start: object


def _transport_pass(ctx, path, powers, g_poly, match_target=True):
    points = list(path.waypoints)
    p0 = ctx.poles[0]
    if abs(points[0] - p0) > 1e-12 * max(1.0, abs(p0)):
        raise ValueError("path must start at the basepoint pole")
    seg0_len = abs(points[1] - points[0])
    eps0 = ctx.eps_at(0, seg0_len)
    dir0 = (points[1] - points[0]) / seg0_len
    a = p0 + eps0 * dir0
    ta = a - p0

    count0 = ctx.series_count(eps0 / ctx.gaps[0])
    blocks0, gw0 = _pole_blocks(ctx, 0, powers, g_poly, count0)
    anchor = ctx.anchor()

    mats = {}
    for i in powers:
        mats[i] = anchor @ _endpoint_sum(
            ctx.res[0], ta, blocks0[i], count0, ctx.tol
        )
    xi = None
    if g_poly is not None:
        xi = anchor @ _endpoint_sum(ctx.res[0], ta, gw0, count0, ctx.tol)

    phi0 = ctx.frobenius(0, count0)
    w = anchor @ expm(cmath.log(ta) * ctx.res[0]) @ _eval_series_mat(phi0, ta)

    start_snapshot = (a, w.copy(), {i: m.copy() for i, m in mats.items()},
                      None if xi is None else xi.copy())

    # interior: ODE transport from a to the stop point near the target
    target = points[-1]
    if match_target:
        jt = ctx.pole_index(target)
        if jt is None:
            raise ValueError("path target is not a pole of the system")
        seg_last = abs(points[-1] - points[-2])
        eps_t = ctx.eps_at(jt, seg_last)
        dir_t = (points[-1] - points[-2]) / seg_last
        b_point = target - eps_t * dir_t
        interior = points[:-1] + [b_point]
    else:
        jt = None
        interior = points
    interior[0] = a

    w, mats, xi = _ode_transport(ctx, interior, w, mats, xi, powers, g_poly)
    mid_snapshot = (interior[-1], w.copy(),
                    {i: m.copy() for i, m in mats.items()},
                    None if xi is None else xi.copy())

    if match_target:
        tb = interior[-1] - target
        count_t = ctx.series_count(eps_t / ctx.gaps[jt])
        blocks_t, gw_t = _pole_blocks(ctx, jt, powers, g_poly, count_t)
        phi_t = ctx.frobenius(jt, count_t)
        w_loc = expm(cmath.log(tb) * ctx.res[jt]) @ _eval_series_mat(phi_t, tb)
        match = w @ np.linalg.inv(w_loc)
        for i in powers:
            tail = match @ _endpoint_sum(
                ctx.res[jt], tb, blocks_t[i], count_t, ctx.tol
            )
            mats[i] = mats[i] - tail
        if g_poly is not None:
            xi = xi - match @ _endpoint_sum(
                ctx.res[jt], tb, gw_t, count_t, ctx.tol
            )

    return _PassResult(
        mats=mats, xi=xi,
        w_mid=mid_snapshot[1], mid_point=mid_snapshot[0],
        mats_mid=mid_snapshot[2], xi_mid=mid_snapshot[3],
        start_point=start_snapshot[0], w_start=start_snapshot[1],
        mats_start=start_snapshot[2], xi_start=start_snapshot[3],
    )


def _eval_series_mat(series, t):
    acc = np.zeros_like(series[0])
    for c in reversed(series):
        acc = acc * t + c
    return acc


def _ode_transport(ctx, points, w, mats, xi, powers, g_poly):
    d = ctx.d
    n_mat = len(powers)
    has_g = g_poly is not None
    g_np = None
    if has_g:
        g_np = [np.array([complex(c) for c in v]) for v in g_poly.coeffs]

    def g_at(x):
        acc = np.zeros(d, dtype=complex)
        for c in reversed(g_np):
            acc = acc * x + c
        return acc

    idx = sorted(powers)

    def pack(w, mats, xi):
        parts = [w.ravel()] + [mats[i].ravel() for i in idx]
        if has_g:
            parts.append(xi)
        return np.concatenate(parts)

    def unpack(y):
        w = y[: d * d].reshape(d, d)
        out = {}
        off = d * d
        for i in idx:
            out[i] = y[off: off + d * d].reshape(d, d)
            off += d * d
        xi = y[off: off + d] if has_g else None
        return w, out, xi

    rtol = max(1e-13, ctx.tol * 1e-2)
    atol = rtol * 1e-2

    state = pack(w, mats, xi)
    for a, b in zip(points[:-1], points[1:]):
        delta = b - a
        if abs(delta) == 0.0:
            continue

        def rhs(s, y):
            x = a + s * delta
            wv = y[: d * d].reshape(d, d)
            dw = (wv @ ctx.b_at(x)) * delta
            qinv = 1.0 / ctx.q_at(x)
            parts = [dw.ravel()]
            for i in idx:
                parts.append(((x ** i) * qinv * wv * delta).ravel())
            if has_g:
                parts.append(qinv * (wv @ g_at(x)) * delta)
            return np.concatenate(parts)

        sol = solve_ivp(
            rhs, (0.0, 1.0), state, method="DOP853",
            rtol=rtol, atol=atol, dense_output=False,
        )
        if not sol.success:
            raise QuadratureError(
                f"ODE transport failed on segment {a} -> {b}: {sol.message}"
            )
        state = sol.y[:, -1]
    return unpack(state)


# ----------------------------------------------------------------------
# public: fundamental series, continuation, moments
# ----------------------------------------------------------------------


def frobenius_local(system, pole_index, order, resonance_tol=1e-9):
    """Local fundamental factor W = t^{B_j} Phi(x) at a pole, as a series.

    Always computed in floating point.  Raises ResonanceError when two
    eigenvalues of the residue differ by a nonzero integer within
    ``resonance_tol``; the series recursion has no solution there.
    """
    ctx = _Context(system, tol=1e-12, resonance_tol=resonance_tol)
    series = ctx.frobenius(pole_index, order + 1)
    return FundamentalSolution(
        center=ctx.poles[pole_index],
        residue=ctx.res[pole_index],
        series=[s.copy() for s in series],
        radius=ctx.gaps[pole_index],
    )


def continue_w(system, start, path, tol=1e-10):
    """Transport a fundamental factor along a pole-free polyline.

    ``start`` is a pair (point, matrix); the path is a PathSpec or a
    waypoint sequence beginning at that point.  Returns the transported
    matrix at the path end as a float CMatrix.
    """
    ctx = _Context(system, tol)
    if isinstance(path, PathSpec):
        points = list(path.waypoints)
    else:
        points = [complex(p) for p in path]
    x0, w0 = start
    if abs(complex(x0) - points[0]) > 1e-9 * max(1.0, abs(points[0])):
        raise ValueError("path must begin at the start point")
    w = w0.to_numpy() if isinstance(w0, CMatrix) else np.asarray(w0, dtype=complex)
    w, _, _ = _ode_transport(ctx, points, w, {}, None, [], None)
    return CMatrix.from_numpy(w)


def _require_positive_spectra(system):
    worst = math.inf
    for j in range(system.n_poles):
        for ev in system.residue_spectrum(j):
            worst = min(worst, ev.real)
    if worst <= 0.0:
        raise AssumptionError(
            f"moment integrals need all residue spectra in the open right "
            f"half plane; minimal real part is {worst:.6g}"
        )
    return worst


def moments(system, paths=None, tol=1e-10):
    """The moment blocks M_{ji} for j = 1..S+1, i = 0..S.

    Requires every residue spectrum strictly in the right half plane
    (apply the shift ladder first otherwise).  ``paths`` maps target pole
    index to a PathSpec; defaults are straight bulged paths.
    """
    sysf = float_system(system)
    _require_positive_spectra(sysf)
    ctx = _Context(sysf, tol)
    powers = list(range(sysf.s + 1))
    out = []
    for j in range(1, sysf.n_poles):
        path = _path_for(ctx, paths, j)
        result = _transport_pass(ctx, path, powers, None, match_target=True)
        out.append([CMatrix.from_numpy(result.mats[i]) for i in powers])
    return out


def rhs_moment(system, g, paths=None, tol=1e-10):
    """The vectors xi_j = integral of Q^{-1} W g for j = 1..S+1."""
    sysf = float_system(system)
    _require_positive_spectra(sysf)
    gf = float_vecpoly(g)
    ctx = _Context(sysf, tol)
    out = []
    for j in range(1, sysf.n_poles):
        path = _path_for(ctx, paths, j)
        result = _transport_pass(ctx, path, [], gf, match_target=True)
        out.append(tuple(complex(v) for v in result.xi))
    return out


def _path_for(ctx, paths, j):
    if paths is not None:
        spec = paths.get(j) if hasattr(paths, "get") else None
        if spec is not None:
            if not isinstance(spec, PathSpec):
                spec = PathSpec(tuple(spec))
            return spec
    return default_path(ctx.system, ctx.poles[j])


# ----------------------------------------------------------------------
# the assembled analytic solve
# ----------------------------------------------------------------------


class AnalyticSolutionHandle:
    """Lazy representation of the analytic solution y on the original system.

    The top of the shift ladder holds an integral representation
    y_top = W^{-1} integral Q^{-1} W (g_top - phi_top); each rung below
    composes y = y_0 + y_1 + Q * (rung above).  Evaluation continues the
    integral along a default (or given) path; ``taylor_at_pole`` builds the
    honest local series at a pole by solving the corrected equation there
    and composing the ladder series.
    """

    def __init__(self, ctx_top, ladder, corrected_rhs, original, tol):
        self._ctx_top = ctx_top
        self._ladder = ladder              # list of (y0, y1) float VecPolys
        self._corrected = corrected_rhs    # g_top - phi_top, float VecPoly
        self._original = original          # original float system
        self.tol = tol
        self.certificate = None            # set by solve_analytic

    def eval(self, x, path=None):
        x = complex(x)
        ctx = self._ctx_top
        dists = [abs(x - p) for p in ctx.poles]
        near = min(range(len(dists)), key=dists.__getitem__)
        if dists[near] < 0.05 * ctx.gaps[near]:
            series = self.taylor_at_pole(near, order=40)
            return series.eval(x)
        if path is None:
            path = default_path(ctx.system, x)
        elif not isinstance(path, PathSpec):
            path = PathSpec(tuple(path))
        result = _transport_pass(ctx, path, [], self._corrected,
                                 match_target=False)
        y_top = np.linalg.solve(result.w_mid, result.xi_mid)
        return self._compose_point(x, y_top)

    def _compose_point(self, x, y_top):
        y = y_top
        q = self._original.q_poly()
        qx = complex(sp_eval(q, x))
        for y0, y1 in reversed(self._ladder):
            base = np.array([complex(c) for c in y0.eval(x)])
            base += np.array([complex(c) for c in y1.eval(x)])
            y = base + qx * y
        return tuple(complex(v) for v in y)

    def taylor_at_pole(self, pole_index, order=30):
        top = local_taylor(
            self._ctx_top.system, pole_index, self._corrected, order
        )
        coeffs = [np.array([complex(c) for c in v]) for v in top.coefficients]
        center = self._ctx_top.poles[pole_index]
        q_shift = [complex(c) for c in
                   sp_taylor(self._original.q_poly(), center)]
        for y0, y1 in reversed(self._ladder):
            lower = _vec_taylor(y0, center, order + 1)
            extra = _vec_taylor(y1, center, order + 1)
            new = []
            for k in range(order + 1):
                acc = lower[k] + extra[k]
                for l in range(min(k, len(q_shift) - 1) + 1):
                    if k - l < len(coeffs):
                        acc = acc + q_shift[l] * coeffs[k - l]
                new.append(acc)
            coeffs = new
        return TaylorSolution(
            pole_index, center,
            [tuple(complex(v) for v in c) for c in coeffs],
        )


def solve_analytic(system, g, tol=1e-10, paths=None, resonance_tol=1e-9):
    """Correction phi and analytic solution handle for a polynomial rhs.

    Checks integer-shift invertibility, applies as many ladder rungs as
    needed to move every residue spectrum into the open right half plane,
    determines the top correction from the moment block system, pulls it
    back down, and certifies the result a posteriori: the continued
    solution matches the local series at every pole within 10 * tol
    (relative to the solution scale).
    """
    report = check_linear_assumption(system, tol=resonance_tol)
    if not report.passed:
        v = report.violations[0]
        raise AssumptionError(
            f"integer shift k + B_{v.residue} singular at k={v.k}; "
            "the correction problem is not uniquely solvable"
        )
    sysf = float_system(system)
    gf = float_vecpoly(g)

    worst = math.inf
    for j in range(sysf.n_poles):
        for ev in sysf.residue_spectrum(j):
            worst = min(worst, ev.real)
    n_shift = 0 if worst > 0.0 else int(math.floor(-worst)) + 1

    ladder_systems = [sysf]
    ladder_rhs = [gf]
    steps = []
    for _ in range(n_shift):
        step = shift_up(ladder_systems[-1], ladder_rhs[-1], tol)
        steps.append(step)
        ladder_systems.append(step.system)
        ladder_rhs.append(step.rhs)

    top_sys = ladder_systems[-1]
    top_g = ladder_rhs[-1]
    ctx_top = _Context(top_sys, tol, resonance_tol)
    _require_positive_spectra(ctx_top.system)

    s = top_sys.s
    d = top_sys.size
    powers = list(range(s + 1))
    passes = []
    for j in range(1, top_sys.n_poles):
        path = _path_for(ctx_top, paths, j)
        passes.append(_transport_pass(ctx_top, path, powers, top_g,
                                      match_target=True))

    big = np.zeros(((s + 1) * d, (s + 1) * d), dtype=complex)
    rhs = np.zeros((s + 1) * d, dtype=complex)
    for row, result in enumerate(passes):
        for i in powers:
            big[row * d:(row + 1) * d, i * d:(i + 1) * d] = result.mats[i]
        rhs[row * d:(row + 1) * d] = result.xi
    try:
        sol = np.linalg.solve(big, rhs)
    except np.linalg.LinAlgError as err:
        raise QuadratureError(
            f"moment block system is singular: {err}"
        ) from None
    resid = float(np.max(np.abs(big @ sol - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if resid > 1e3 * tol * scale:
        raise QuadratureError(
            f"moment system solve residual {resid:.3e} too large"
        )

    phi_top = VecPoly.from_coeffs(
        [tuple(complex(v) for v in sol[i * d:(i + 1) * d]) for i in powers],
        exact=False, dim=d,
    )

    # pull the correction back down the ladder
    phi = phi_top
    ladder_parts = []
    for r in range(len(steps) - 1, -1, -1):
        phi_low, y1 = pull_back_correction(ladder_systems[r], phi, tol)
        ladder_parts.append((steps[r].particular, y1))
        phi = phi_low
    ladder_parts.reverse()

    corrected_top = top_g - phi_top
    handle = AnalyticSolutionHandle(
        ctx_top, ladder_parts, corrected_top, sysf, tol
    )

    handle.certificate = _certify(ctx_top, phi_top, passes, handle, tol)
    if not handle.certificate.passed:
        worst_check = max(
            handle.certificate.checks,
            key=lambda c: c.difference / max(c.scale, 1.0),
        )
        raise QuadratureError(
            "a-posteriori certificate failed: continued solution and local "
            f"series differ by {worst_check.difference:.3e} at pole "
            f"{worst_check.pole_index} (scale {worst_check.scale:.3g}, "
            f"allowed {10 * tol:g})"
        )
    return CorrectionResult(phi=phi, y=handle)


def _certify(ctx_top, phi_top, passes, handle, tol):
    """Continuation vs local series at every pole, on the original system."""
    report = CertificateReport(tol=tol)
    s = ctx_top.system.s

    # pole 0 is checked at the basepoint, every other pole at the stop
    # point of its pass: endpoint-series value vs ladder-composed series
    first = passes[0]
    checkpoints = [(0, first.start_point, first.xi_start, first.mats_start,
                    first.w_start)]
    checkpoints += [
        (j, r.mid_point, r.xi_mid, r.mats_mid, r.w_mid)
        for j, r in enumerate(passes, start=1)
    ]
    for j, point, xi, mats, w in checkpoints:
        xi = xi.copy()
        for i in range(s + 1):
            coeff = np.array(
                [complex(c) for c in phi_top.coefficient(i)]
            )
            xi -= mats[i] @ coeff
        y_top = np.linalg.solve(w, xi)
        value = np.array(handle._compose_point(point, y_top))
        series = handle.taylor_at_pole(j, order=_cert_order(tol))
        ref = np.array(series.eval(point))
        scale = max(float(np.max(np.abs(ref))), float(np.max(np.abs(value))))
        diff = float(np.max(np.abs(value - ref)))
        report.checks.append(PoleCheck(
            j, point, diff, scale,
            diff <= 10 * tol * max(1.0, scale),
        ))
    return report


def _cert_order(tol):
    ratio = 0.25
    eta = max(tol * 1e-2, 1e-16)
    return max(25, min(int(math.ceil(math.log(eta) / math.log(ratio))) + 8, 200))

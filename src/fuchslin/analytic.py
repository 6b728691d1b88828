"""Analytic route: the paper's moment construction of the correction.

The unique correction phi of degree at most S is characterized by
analyticity of

    y(x) = W(x)^{-1} integral_{p_0}^{x} Q^{-1} W (g - phi) dt

at every pole, where W solves the transposed-side equation W' = W B.
Analyticity at p_1 .. p_{S+1} pins phi through the block system

    sum_i M_{ji} phi_i = xi_j,
    M_{ja} = integral_{p_0}^{p_j} x^a Q^{-1} W dx,
    xi_j   = integral_{p_0}^{p_j} Q^{-1} W g dx = sum_a M_{ja} g_a.

Each endpoint term t^{B_j + k - 1} H_k integrates to t^{B_j + k}
(B_j + k)^{-1} H_k: the integral, or off the right half plane its
continuation in the exponent.  That needs only every k + B_j invertible
(``check_linear_assumption``), so the moment system is solved on the
given system whatever the sign of its spectra.

The transport computes only the moment matrices M_{ja}, for every power
a below n_x = max(S + 1, deg g + 1); each integral against a polynomial is
one contraction of them with its coefficient vectors (``_contract``).  The
right side contracts with g; the certificate and ``eval`` contract the
partial moments up to their point with g - phi in one step, so no value is
the difference of two separately rounded integrals.

Each integral runs along a chosen path: a power-series block near both
endpoint poles (Frobenius fundamental series, integrated term by term
against t^{B_j}) and Taylor steps in between, glued by a matching constant
at the far pole.  A Taylor step from a centre c has length RHO times the
distance from c to the nearest pole; it sums the series of the local
factor Phi (W(c + t) = W(c) Phi(t)), whose coefficients come from the
Frobenius recursion with no residue at c, and integrates it term by term
against the series of x^a / Q.  B is Fuchsian, so its Taylor blocks at c
are S + 2 geometric sequences and the recursion keeps one running sum per
pole; 1/Q solves the scalar system with residue -1 at every pole, so the
steps read h / Q from one more diagonal entry.  ``_power_over_q`` gives
x^a / Q_j for the endpoint blocks.  The steps
depend only on the path and the poles, not on W, so one solve transports
all its paths together (``_transport_passes``, which also takes
``eval``'s single path): it computes every path's start at the basepoint,
plans every step of every path, builds the factors of all of them in one
stacked recursion, and then chains W and the integrals over each path's
slice of that stack.  The Frobenius factors and the x^a / Q_j series of
all the poles a solve needs are built together too, at the largest term
count any path asks for, and the endpoint series blocks are cached per
solve, so the basepoint's are built once for all paths and every
``eval``.  At each endpoint pole every series block goes through one
stacked (B_j + k) solve.  The path must
keep clear of every pole; one that meets a pole raises QuadratureError.
A waypoint repeated in a row, at either end too, is dropped, and so is
one next to an end within that end's tolerance (1e-12 relative at p_0,
1e-9 at the target pole).  A path
given for target pole j must start at p_0 and end at p_j
(``path_defect``); any other raises ValueError.

The moment solve refuses (QuadratureError) a block system whose
cond(M) times the unit roundoff exceeds 1e3 * tol, the factor of its
residual check: cond(M) u estimates the solve's relative error a priori,
and the report keeps it (``CertificateReport.cond``).  Every input the
route accepts passes ``check_linear_assumption``, which covers every
k + B_inf, so float ``correction.solve_polynomial`` gives the same unique
(phi, y) by the recursion at infinity.  The certificate checks the route
against it: phi (``CertificateReport.phi_gap``), which checks the moment
solve, and the continued solution near every pole, which checks the
transport and the continued endpoint integrals.  The route reports its
own phi and y.

Everything here runs in floating point; exact systems are converted on
entry (phi keeps only as much accuracy as the quadrature tolerance).

Normalization: the paper's W is anchored at the basepoint as

    W = K_0 (x - p_0)^{B_0} Phi_0(x),   K_0 = prod_{k>0} (p_0 - p_k)^{B_k}

(principal logarithms, ascending k); in the commuting case -- dimension
one in particular -- this is exactly prod_j (x - p_j)^{B_j}.  The transport
works in each path's own frame instead: a path leaving p_0 at
a = p_0 + t_a starts from W = Phi_0(t_a) and the partial moments
sum_k t_a^k (B_0 + k)^{-1} H_k, the anchored values without their common
left factor K_0 t_a^{B_0}, and at the target pole the factor t_b^{B_j} of
the matching constant cancels against the one of the endpoint sum.  A
left factor on one block row of the moment system and its right side
leaves phi unchanged, and one shared by W and its partial moments leaves
y unchanged, so the solve, the certificate and ``eval`` compute no matrix
exponential.  Only ``moments`` and ``rhs_moment``, which report the
integrals themselves, multiply each pass by K_0 t_a^{B_0}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .correction import CorrectionResult, local_taylor, solve_polynomial
from .matrices import CMatrix
from .model import (AssumptionError, FuchsianSystem, _entries_array,
                    check_linear_assumption, singular_shifts)
from .poly import VecPoly


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on call.  Nothing here calls it:
    bench/tracing.py wraps this name to time the integrator, and a plain
    function keeps scipy off the package's import path."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


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
        from scipy.linalg import expm
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
    """A-posteriori check of phi and y against the polynomial solution."""

    tol: float
    checks: list = field(default_factory=list)
    cond: float = math.nan   # 2-norm cond(M) of the moment block system
    phi_gap: float = math.nan   # max|phi - phi_ref| / max(1, max|phi|)

    @property
    def passed(self):
        return (self.phi_gap <= 10 * self.tol
                and all(c.passed for c in self.checks))

    @property
    def max_difference(self):
        return max((c.difference / max(c.scale, 1.0) for c in self.checks),
                   default=0.0)


# ----------------------------------------------------------------------
# float conversion helpers
# ----------------------------------------------------------------------


def float_system(system):
    """The float copy of an exact system, from its set-up forms: each
    num / den rounded as float(Fraction) rounds it (OverflowError past
    the float range).  A float system is its own copy."""
    if not system.exact:
        return system
    return FuchsianSystem._of_forms(
        system.size,
        [complex(a / den, b / den) for den, a, b in system._forms("roots")],
        [_entries_array(system.size, m) for m in system._forms("residues")],
        False)


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
    direction, of that radius or of half the pole's distance to the
    target if that is less (so the arc ends short of the target).
    """
    poles = [complex(p) for p in system.poles]
    p0 = poles[0]
    target = complex(target)
    r = 0.1 * min(_pole_gaps(poles))
    d = target - p0
    length = abs(d)
    if length == 0:
        raise ValueError("path target coincides with the basepoint")
    dhat = d / length

    blockers = []
    for k, pk in enumerate(poles):
        if abs(pk - p0) < 1e-15 or abs(pk - target) < 1e-15:
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
        rad = min(r, 0.5 * abs(pk - target))
        arc = [
            pk - rad * dhat * cmath.exp(-1j * theta)
            for theta in np.linspace(0.0, math.pi, 7)
        ]
        points.extend(arc)
    points.append(target)
    return PathSpec(tuple(points))


# Unit roundoff of float64: the moment solve refuses a system whose
# cond(M) times it exceeds 1e3 * tol, the residual check's factor.
UNIT_ROUNDOFF = 2.0 ** -53

# A path starts at the basepoint, and ends at the point it evaluates at,
# within POINT_TOL relative to max(1, |point|); it ends at a pole within
# POLE_TOL (``_Context.pole_index``).
POINT_TOL = 1e-12
POLE_TOL = 1e-9


def _within(z, point, tol):
    return abs(z - point) <= tol * max(1.0, abs(point))


def _pole_gaps(poles):
    return [min(abs(p - q) for q in poles if q is not p) for p in poles]


def path_defect(poles, key, waypoints):
    """Why ``waypoints`` cannot be the path to target pole ``key``, or None.

    The key must be an integer in 1..S+1, and the path must have at least
    two waypoints, start at pole 0 and end at pole ``key``.
    """
    poles = [complex(p) for p in poles]
    if isinstance(key, bool) or not isinstance(key, int) \
            or not 1 <= key < len(poles):
        return f"key must be a target pole index 1..{len(poles) - 1}"
    if len(waypoints) < 2:
        return "a path needs at least two waypoints"
    if not _within(complex(waypoints[0]), poles[0], POINT_TOL):
        return f"the first waypoint must be pole 0 at {poles[0]}"
    if not _within(complex(waypoints[-1]), poles[key], POLE_TOL):
        return f"the last waypoint must be pole {key} at {poles[key]}"
    return None


# ----------------------------------------------------------------------
# context: cached float data for one system
# ----------------------------------------------------------------------

# Each Taylor step of the transport covers this share of the distance from
# its centre to the nearest pole, so every series it sums converges like
# RHO^k.
RHO = 0.5


class _Context:
    def __init__(self, system, tol, resonance_tol=1e-9):
        self.system = float_system(system)
        self.tol = tol
        self.resonance_tol = resonance_tol
        self.d = self.system.size
        self.poles = [complex(p) for p in self.system.poles]
        self.pole_array = np.array(self.poles, dtype=complex)
        self.res = self.system._forms("residues")
        self.gaps = _pole_gaps(self.poles)
        # one more diagonal entry -1 at every pole, whose factor is 1/Q; the
        # steps keep diag(Phi, q) as [Phi | q e_0], and at d = 1 [0 | q] as
        # a second row, so that one step's product is a matrix product too
        self.step_res = np.pad(self.res, ((0, 0), (0, 1), (0, 1)))
        self.step_res[:, -1, -1] = -1
        m = max(self.d, 2)
        self.step_start = np.eye(m, self.d + 1) \
            + np.eye(m, self.d + 1, self.d)
        self.step_terms = self.series_count(RHO)
        k = np.arange(self.step_terms)
        # 1 / (l + m + 1), its columns m descending as in ``_factor_rows``
        self.hilbert = 1.0 / (k[:, None] + k[None, ::-1] + 1)
        self._frob = {}
        self._blocks = {}

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
        self.build_frobenius((j,), count)
        return self._frob[j][:count]

    def build_frobenius(self, poles, count):
        """Frobenius factors of ``poles`` to ``count`` terms.

        The poles whose factor is shorter than that are built together in
        one stacked recursion; each one's residue is checked for resonance
        first, so only a pole asked for can raise ResonanceError.
        """
        todo = sorted({j for j in poles if len(self._frob.get(j, ())) < count})
        if not todo:
            return
        for j in todo:
            _check_resonance(self, j)
        rows = _factor_rows(self.pole_ratios(todo), self.res,
                            np.eye(self.d), count, self.res[todo])
        self._frob.update(zip(todo, rows[::-1].transpose(1, 0, 2, 3)))

    def pole_ratios(self, poles):
        """r_k = -1/(p_j - p_k) of a unit step from each p_j in ``poles``,
        one row per pole, with r_j = 0 (pole j itself left out)."""
        rows = np.zeros((len(poles), len(self.poles)), dtype=complex)
        for i, j in enumerate(poles):
            others = np.arange(len(self.poles)) != j
            rows[i, others] = -1.0 / (self.poles[j] - self.pole_array[others])
        return rows

    def pole_blocks(self, asked, n_x):
        """``_pole_blocks`` of every (j, count) in ``asked``, each built once
        per context; the missing ones are built together."""
        todo = sorted({(j, c) for j, c in asked
                       if (j, n_x, c) not in self._blocks})
        if todo:
            self._blocks.update(zip([(j, n_x, c) for j, c in todo],
                                    _pole_blocks(self, todo, n_x)))
        return {(j, c): self._blocks[j, n_x, c] for j, c in asked}

    def anchor(self):
        """K_0 = prod_{k>0} (p_0 - p_k)^{B_k}, principal logs, ascending k."""
        from scipy.linalg import expm
        acc = np.eye(self.d, dtype=complex)
        for k in range(1, len(self.poles)):
            acc = acc @ expm(cmath.log(self.poles[0] - self.poles[k])
                             * self.res[k])
        return acc

    def pole_index(self, point, tol=POLE_TOL):
        for j, p in enumerate(self.poles):
            if _within(point, p, tol):
                return j
        return None


def _factor_rows(ratios, res, start, count, residues=None):
    """Phi_0 = ``start``, k Phi_k + B Phi_k - Phi_k B = sum_{l<k} Phi_{k-1-l}
    C_l to ``count`` terms, C_l = -sum_j r_j^{l+1} B_j, r_j = -h/(c - p_j).

    ``ratios`` holds the r_j of n centres c, one row each (a zero leaves
    pole j out), and ``res`` the (P, e, e) stack of the B_j.  With
    ``residues`` the (n, e, e) residues B at n poles this is the Frobenius
    factor W = t^B Phi of each, one stacked Sylvester solve per k; with
    ``residues`` None (B = 0) it is ``start`` (m, e) times the Taylor
    series of Phi' = Phi sum_l C_l t^l, Phi(0) = I.  The history sum
    is -sum_j A_j B_j, A_j = sum_{l<k} r_j^{l+1} Phi_{k-1-l} = r_j (A_j +
    Phi_{k-1}) kept as running sums: one product (n m, P e) x (P e, e) per
    k, per pole for Frobenius factors so that their bits do not depend on
    the stack.  Returns the contiguous (count, n, m, e) stack whose
    [count - 1 - k] is Phi_k.
    """
    n, n_poles = ratios.shape
    m, e = start.shape
    rev = np.empty((count, n, m, e), dtype=complex)
    rev[-1] = start
    sums = np.zeros((n, m, n_poles, e), dtype=complex)
    neg_res = -res.reshape(n_poles * e, e)
    if residues is not None:
        eye = np.eye(e, dtype=complex)
        # k X + B X - X B = R on row-major vec(X), one operator per pole
        sylvester = np.stack([np.kron(b, eye) - np.kron(eye, b.T)
                              for b in residues])
    for k in range(1, count):
        sums += rev[count - k, :, :, None]
        sums *= ratios[:, None, :, None]
        if residues is None:
            np.matmul(sums.reshape(n * m, n_poles * e), neg_res,
                      out=rev[count - 1 - k].reshape(n * m, e))
            rev[count - 1 - k] /= k
        else:
            rhs = sums.reshape(n, e, n_poles * e) @ neg_res
            rev[count - 1 - k] = np.linalg.solve(
                sylvester + k * np.eye(e * e),
                rhs.reshape(n, e * e, 1)).reshape(n, e, e)
    return rev


def _check_resonance(ctx, j):
    """Raise ResonanceError if k + ad(B_j), the Frobenius recursion's shift,
    is singular at some k >= 1 by ``model.singular_shifts``: its values are
    the differences of B_j's eigenvalues, two of which then differ by k."""
    lam = np.asarray(ctx.system.residue_spectrum(j), complex)
    k, _, singular = singular_shifts(None, (lam[:, None] - lam).ravel(),
                                     ctx.resonance_tol)
    hit = k[singular & (k >= 1)]
    if hit.size:
        raise ResonanceError(
            f"residue {j}: eigenvalues differ by the integer {int(hit[0])} "
            f"(within {ctx.resonance_tol:g}); no power-series "
            "fundamental factor at this pole"
        )


# ----------------------------------------------------------------------
# series blocks at an endpoint pole
# ----------------------------------------------------------------------


def _lower_toeplitz(series):
    """T[k, l] = series[k - l] (zero for l > k): multiplication by a t-series.

    ``series`` may carry trailing axes (a vector series gives T[k, l, :]).
    """
    n = len(series)
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    taken = series[np.maximum(lag, 0)]
    mask = (lag >= 0).reshape(lag.shape + (1,) * (taken.ndim - 2))
    return np.where(mask, taken, 0)


def _pole_blocks(ctx, asked, n_x):
    """Series H^(a), a < n_x, with x^a Q^{-1} W = t^{B_j - I} sum H_k t^k,
    to ``count`` terms, for every (j, count) in ``asked``.

    H^(a) = (x^a / Q_j) Phi as a matrix series, with Q_j the pole-j
    cofactor of Q; x^a / Q_j is ``_power_over_q``, for all the poles in
    one call at the largest count.  Returns one (n_x, count, d, d) stack
    per request.
    """
    poles = sorted({j for j, _ in asked})
    scalars = dict(zip(poles, _power_over_q(ctx, poles, n_x,
                                            max(c for _, c in asked))))
    return [np.einsum("kla,lbc->akbc", _lower_toeplitz(scalars[j][:, :c].T),
                      ctx.frobenius(j, c)) for j, c in asked]


def _endpoint_sum(bj, t_end, blocks, tol):
    """sum_k t_end^k (B + k)^{-1} H_k for every block.

    t_end^B times this sum is the integral from the pole of
    sum_k t^{B + k - 1} H_k, continued in the exponent: it is valid
    whenever every B + k is invertible, whatever the sign of the spectrum
    of B.  The factor t_end^B is left out: it is a left factor shared
    with the Frobenius factor t^B Phi at the same point, so the transport
    works in that point's frame (``_transport_passes``).  ``blocks``
    stacks the matrix series H^(a) as (n_blocks, count, d, d); all go
    through one (B + k) solve per k.  Each block's last term is checked
    against that block's own sum.  Returns the (n_blocks, d, d) sums.
    """
    n_blocks, count, d = blocks.shape[:3]
    cols = blocks.transpose(1, 2, 0, 3).reshape(count, d, n_blocks * d)
    k = np.arange(count)
    shifted = bj + k[:, None, None] * np.eye(d, dtype=complex)
    terms = np.linalg.solve(shifted, cols) * (t_end ** k)[:, None, None]
    acc = terms.sum(axis=0)
    # per block: the largest entry of its last term and of its sum
    tail, size = np.abs([terms[-1], acc]).reshape(2, d, -1, d).max(axis=(1, 3))
    failed = np.flatnonzero(tail > 50 * tol * np.maximum(size, 1.0))
    if failed.size:
        raise QuadratureError(
            f"endpoint series did not converge (last term "
            f"{tail[failed[0]]:.3e} after {count} terms)"
        )
    return acc.reshape(d, n_blocks, d).transpose(1, 0, 2)


# ----------------------------------------------------------------------
# transport passes: series block, Taylor-step interior, series block
# ----------------------------------------------------------------------


@dataclass
class _PassResult:
    mats: np.ndarray         # [a] full integral including both endpoints
    w_mid: np.ndarray        # W at the stop point near the target
    mid_point: complex
    mats_mid: np.ndarray     # partial integrals from p_0 to the stop point
    start_point: complex
    w_start: np.ndarray
    mats_start: np.ndarray   # partial integrals from p_0 to the start point


def _contract(mats, poly):
    """sum_a mats[a] c_a over the coefficient vectors c_a of a float VecPoly:
    the integral of Q^{-1} W against it (zero for the zero polynomial)."""
    coeffs = np.array(poly.coeffs, dtype=complex).reshape(-1, mats.shape[-1])
    return np.einsum("aij,aj->i", mats[:len(coeffs)], coeffs)


def _transport_passes(ctx, paths, n_x, match_target=True):
    """W and the moment matrices integral x^a Q^{-1} W dx, a < n_x, from
    the basepoint pole along each of ``paths``: to its target pole when
    ``match_target``, and partial ones at the start and stop points.
    Each path's values are in its own frame, the anchored ones without
    the left factor K_0 t_a^{B_0} of its start point (module docstring).

    The paths go through each stage together: every path's start (the
    endpoint sum at p_0), every path's step plan, one ``_step_factors``
    call for all their steps, then each path's chain over its slice and
    its match at the target pole.  The Frobenius factors of p_0 and every
    target pole are built first, in one recursion, and then their endpoint
    blocks.  Zero-length segments are dropped on entry, so a repeated
    waypoint, at either end too, changes nothing; so is a waypoint next to
    an end within that end's tolerance (``path_defect``'s POINT_TOL at
    p_0, POLE_TOL at the target pole, POINT_TOL at a partial path's end).
    """
    p0 = ctx.poles[0]
    legs, asked = [], []
    for path in paths:
        given = path.waypoints
        points = [w for i, w in enumerate(given)
                  if i == 0 or w != given[i - 1]]
        if not _within(points[0], p0, POINT_TOL):
            raise ValueError("path must start at the basepoint pole")
        target = points[-1]
        jt = count_t = None
        end, end_tol = target, POINT_TOL
        if match_target:
            jt = ctx.pole_index(target)
            if jt is None:
                raise ValueError("path target is not a pole of the system")
            end, end_tol = ctx.poles[jt], POLE_TOL
        # a waypoint next to an end, within that end's tolerance, merges
        # into it
        while len(points) > 2 and _within(points[1], p0, POINT_TOL):
            del points[1]
        while len(points) > 2 and _within(points[-2], end, end_tol):
            del points[-2]
        seg0_len = abs(points[1] - points[0])
        eps0 = ctx.eps_at(0, seg0_len)
        dir0 = (points[1] - points[0]) / seg0_len
        a = p0 + eps0 * dir0
        count0 = ctx.series_count(eps0 / ctx.gaps[0])
        asked.append((0, count0))
        # ``points`` becomes the Taylor-step interior: from a to the stop
        # point near the target pole, or to the path's end
        if match_target:
            seg_last = abs(points[-1] - points[-2])
            eps_t = ctx.eps_at(jt, seg_last)
            dir_t = (points[-1] - points[-2]) / seg_last
            points[-1] = target - eps_t * dir_t
            count_t = ctx.series_count(eps_t / ctx.gaps[jt])
            asked.append((jt, count_t))
        points[0] = a
        legs.append((points, count0, target, jt, count_t))
    ctx.build_frobenius({j for j, _ in asked}, max(c for _, c in asked))
    blocks = ctx.pole_blocks(asked, n_x)

    # each path works in its start point's frame: W = Phi_0(t_a), the
    # basepoint's factor t_a^{B_0} Phi_0 without its left factor t_a^{B_0}
    starts = []
    for points, count0, *_ in legs:
        ta = points[0] - p0
        starts.append((_eval_series_mat(ctx.frobenius(0, count0), ta),
                       _endpoint_sum(ctx.res[0], ta, blocks[0, count0],
                                     ctx.tol)))

    plans = [_plan_steps(ctx, leg[0]) for leg in legs]
    factors = _step_factors(ctx, np.concatenate([c for c, _ in plans]),
                            np.concatenate([h for _, h in plans]), n_x)
    slices = np.split(factors, np.cumsum([len(c) for c, _ in plans])[:-1])

    out = []
    for (points, _, target, jt, count_t), (w_start, mats_start), steps in \
            zip(legs, starts, slices):
        w_mid, mats_mid = _chain(w_start, mats_start, steps)
        mats = mats_mid
        if match_target:
            # W = C t_b^{B_j} Phi_j(t_b) at the stop point, and the target's
            # integral is C t_b^{B_j} sums_t: t_b^{B_j} cancels
            tb = points[-1] - target
            sums_t = _endpoint_sum(ctx.res[jt], tb, blocks[jt, count_t],
                                   ctx.tol)
            phi_t = _eval_series_mat(ctx.frobenius(jt, count_t), tb)
            mats = mats - w_mid @ np.linalg.solve(phi_t, sums_t)
        out.append(_PassResult(
            mats=mats,
            w_mid=w_mid, mid_point=points[-1], mats_mid=mats_mid,
            start_point=points[0], w_start=w_start, mats_start=mats_start,
        ))
    return out


def _eval_series_mat(series, t):
    acc = np.zeros_like(series[0])
    for c in reversed(series):
        acc = acc * t + c
    return acc


def _require_pole_free(ctx, points):
    """Raise QuadratureError if a segment comes within 1e-9 * max(1, |p|)
    of a pole p (a waypoint on the pole included)."""
    for a, b in zip(points[:-1], points[1:]):
        delta = b - a
        for j, p in enumerate(ctx.poles):
            u = 0.0
            if delta != 0:
                u = ((p - a) * delta.conjugate()).real / abs(delta) ** 2
                u = min(1.0, max(0.0, u))
            if _within(a + u * delta, p, POLE_TOL):
                raise QuadratureError(
                    f"path segment {a} -> {b} meets pole {j} at {p}; "
                    "the transport needs a pole-free path"
                )


def _chain(w, mats, factors):
    """W and the integrals after the steps ``factors`` (``_step_factors``
    rows) from W = ``w`` with integrals ``mats`` so far."""
    # the path's integrals are summed apart from the start values, which
    # can be far larger (endpoint series), and added once
    path_ints = np.zeros_like(mats)
    for step in factors:
        wf = w @ step
        w = wf[0]
        path_ints += wf[1:]
    return w, mats + path_ints


def _plan_steps(ctx, points):
    """Centres c and lengths h of the Taylor steps along a polyline.

    Each step reaches RHO * dist(c, poles); the last one of a segment
    lands exactly on its end, and a zero-length segment takes no step.
    The polyline must be pole-free (``_require_pole_free``).
    """
    _require_pole_free(ctx, points)
    centres, lengths = [], []
    for a, b in zip(points[:-1], points[1:]):
        c = a
        while c != b:
            rest = b - c
            reach = RHO * float(np.min(np.abs(c - ctx.pole_array)))
            last = abs(rest) <= reach
            h = rest if last else rest * (reach / abs(rest))
            centres.append(c)
            lengths.append(h)
            c = b if last else c + h
    return (np.array(centres, dtype=complex),
            np.array(lengths, dtype=complex))


def _step_factors(ctx, centres, lengths, n_x):
    """Phi(h) and integral_0^h x^a Q^{-1} Phi(t) dt, x = c + t, a < n_x.

    One row per step (c, h), stacked as (n_steps, 1 + n_x, d, d).  With
    hats for scaling by h^k: (k + 1) Phi^_{k+1} = sum_l Phi^_{k-l} C^_l,
    Phi(h) = sum_k Phi^_k, and with s^ the scaled series of x^a / Q the
    integral is sum_{m,l} Phi^_m s^_l h / (m + l + 1).  The recursion runs
    on ``ctx.step_res``, whose extra entry's factor Q(c) / Q(c + h u) is
    h / Q over h / Q(c).
    """
    n, d = len(centres), ctx.d
    delta = centres[:, None] - ctx.pole_array
    rows = _factor_rows(-lengths[:, None] / delta, ctx.step_res,
                        ctx.step_start, ctx.step_terms)
    out = np.empty((n, 1 + n_x, d, d), dtype=complex)
    # Phi(h) sums whole rows, so each entry adds its terms in k order
    out[:, 0] = rows.sum(axis=0)[:, :d, :d]
    over_q = rows[::-1, :, 0, d].T * (lengths / np.prod(delta, 1))[:, None]
    # the weight of each Phi^_m in the integrals, m descending as in
    # ``rows``, for 32 steps at a time to bound the weights' memory
    for i in range(0, n, 32):
        part = slice(i, i + 32)
        weights = _times_powers(over_q[part], centres[part], lengths[part],
                                n_x) @ ctx.hilbert
        phi = np.moveaxis(rows[:, part, :d, :d], 0, 2)
        out[part, 1:] = np.moveaxis(weights[:, None] @ phi, 1, 2)
    return out


def _power_over_q(ctx, poles, n_x, count):
    """x^a / Q_j = x^a prod_{k != j} 1/((p_j - p_k)(1 - r_k t)), x = p_j + t,
    a < n_x, to ``count`` terms per pole j of ``poles``: (n, n_x, count)."""
    s = np.zeros((len(poles), count), dtype=complex)
    s[:, 0] = 1.0
    # dividing by 1 - r t is s[l] += r s[l-1], one pole at a time
    for r in ctx.pole_ratios(poles).T:
        for l in range(1, count):
            s[:, l] += r * s[:, l - 1]
    s *= np.array([1.0 / np.prod(ctx.poles[j] - np.delete(ctx.pole_array, j))
                   for j in poles])[:, None]
    return _times_powers(s, ctx.pole_array[poles], np.ones(len(poles)), n_x)


def _times_powers(s, centres, lengths, n_x):
    """x^a s(u), a < n_x, x = c + h u, for series ``s`` (n, count) in u at
    n centres c with lengths h: (n, n_x, count)."""
    out = np.empty((len(s), n_x, s.shape[1]), dtype=complex)
    for a in range(n_x):
        out[:, a] = s
        # x^(a+1): multiply by x = c + h u term by term
        s = centres[:, None] * s
        s[:, 1:] += lengths[:, None] * out[:, a, :-1]
    return out


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
    matrix at the path end as a float CMatrix.  Pole-free means that no
    segment comes within 1e-9 * max(1, |p|) of a pole p, waypoints
    included; a path that does raises QuadratureError naming the segment
    and the pole.
    """
    ctx = _Context(system, tol)
    if isinstance(path, PathSpec):
        points = list(path.waypoints)
    else:
        points = [complex(p) for p in path]
    x0, w0 = start
    if not _within(complex(x0), points[0], POLE_TOL):
        raise ValueError("path must begin at the start point")
    w = w0.to_numpy() if isinstance(w0, CMatrix) else np.asarray(w0, dtype=complex)
    steps = _step_factors(ctx, *_plan_steps(ctx, points), 0)
    w, _ = _chain(w, np.zeros((0, ctx.d, ctx.d), dtype=complex), steps)
    return CMatrix.from_numpy(w)


def _require_positive_spectra(system):
    """Raise AssumptionError unless every residue spectrum at the finite
    poles lies in the open right half plane."""
    worst = min(ev.real for j in range(system.n_poles)
                for ev in system.residue_spectrum(j))
    if worst <= 0.0:
        raise AssumptionError(
            f"moment integrals need all residue spectra in the open right "
            f"half plane; minimal real part is {worst:.6g}"
        )


def moments(system, paths=None, tol=1e-10):
    """The moment blocks M_{ji} = integral_{p_0}^{p_j} x^i Q^{-1} W dx for
    j = 1..S+1, i = 0..S.

    Requires every residue spectrum strictly in the right half plane,
    where these are the integrals themselves.  ``paths`` maps target pole
    index to a PathSpec or a waypoint sequence; defaults are straight
    bulged paths.  A path that ``path_defect`` refuses raises ValueError.
    """
    passes = _moment_passes(system, paths, tol, system.s + 1)
    return [[CMatrix.from_numpy(m) for m in mats] for mats in passes]


def rhs_moment(system, g, paths=None, tol=1e-10):
    """The vectors xi_j = integral_{p_0}^{p_j} Q^{-1} W g dx for j = 1..S+1.

    Each is the contraction sum_a M_{ja} g_a of the moment matrices for
    a <= deg g with the coefficient vectors of g.  ``paths`` as for
    ``moments``.
    """
    gf = float_vecpoly(g)
    passes = _moment_passes(system, paths, tol, len(gf.coeffs))
    return [tuple(complex(v) for v in _contract(mats, gf))
            for mats in passes]


def _moment_passes(system, paths, tol, n_x):
    """The moment matrices of ``_transport_passes`` to every target pole
    of ``system``, with ``paths`` as for ``moments``, in the anchored
    normalization: each pass times K_0 t_a^{B_0}, the left factor its
    start point a leaves out.  The spectra must be in the right half
    plane."""
    from scipy.linalg import expm
    sysf = float_system(system)
    specs = _paths_for(sysf, paths)
    _require_positive_spectra(sysf)
    ctx = _Context(sysf, tol)
    anchor = ctx.anchor()
    return [anchor @ expm(cmath.log(r.start_point - ctx.poles[0])
                          * ctx.res[0]) @ r.mats
            for r in _transport_passes(ctx, specs, n_x)]


def _paths_for(system, paths):
    """The path to every target pole 1..S+1 of a float system, in order:
    ``paths[j]`` where given, the default path elsewhere.  Raises
    ValueError naming the key of a path that ``path_defect`` refuses."""
    paths = {} if paths is None else paths
    if not hasattr(paths, "items"):
        raise ValueError("paths must map target pole indices to paths")
    given = {}
    for key, spec in paths.items():
        waypoints = spec.waypoints if isinstance(spec, PathSpec) \
            else tuple(complex(w) for w in spec)
        problem = path_defect(system.poles, key, waypoints)
        if problem is not None:
            raise ValueError(f"paths[{key!r}]: {problem}")
        given[key] = PathSpec(waypoints)
    return [given[j] if j in given else default_path(system, system.poles[j])
            for j in range(1, system.n_poles)]


# ----------------------------------------------------------------------
# the assembled analytic solve
# ----------------------------------------------------------------------


class AnalyticSolutionHandle:
    """Lazy representation of the analytic solution y.

    y = W^{-1} integral_{p_0}^{x} Q^{-1} W (g - phi) dt on the solved
    system, with the endpoint integral at p_0 continued where its spectrum
    leaves the right half plane.  ``ctx`` is that system's ``_Context``
    and ``corrected`` the float VecPoly g - phi.  Evaluation continues the
    integral along a default (or given) path.  ``taylor_at_pole`` builds
    the local series at a pole: the solution of Q y' + (QB) y = g - phi
    that is analytic there.
    """

    def __init__(self, ctx, corrected, tol):
        self._ctx = ctx
        self._corrected = corrected
        self.tol = tol
        self.certificate = None            # set by solve_analytic

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def eval(self, x, path=None):
        """y(x), continued along ``path`` (default: ``default_path``), which
        must run from pole 0 to x; a path that ends elsewhere raises
        ValueError."""
        x = complex(x)
        ctx = self._ctx
        if path is not None:
            if not isinstance(path, PathSpec):
                path = PathSpec(tuple(path))
            if not _within(path.end, x, POINT_TOL):
                raise ValueError(f"path ends at {path.end}, not at x = {x}")
        dists = [abs(x - p) for p in ctx.poles]
        near = min(range(len(dists)), key=dists.__getitem__)
        if dists[near] < 0.05 * ctx.gaps[near]:
            series = self.taylor_at_pole(near, order=40)
            return series.eval(x)
        if path is None:
            path = default_path(ctx.system, x)
        n_x = len(self._corrected.coeffs)
        result = _transport_passes(ctx, [path], n_x, match_target=False)[0]
        return self._continued(result.w_mid, result.mats_mid)

    def _continued(self, w, mats):
        """y from W = ``w`` and the partial moments ``mats`` at one point:
        W^{-1} times their contraction with g - phi."""
        y = np.linalg.solve(w, _contract(mats, self._corrected))
        return tuple(complex(v) for v in y)

    def taylor_at_pole(self, pole_index, order=30):
        return local_taylor(self._ctx.system, pole_index, self._corrected,
                            order)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_analytic(system, g, tol=1e-10, paths=None, resonance_tol=1e-9):
    """Correction phi and analytic solution handle for a polynomial rhs.

    Checks integer-shift invertibility, determines phi from the moment
    block system of the given system (whatever the sign of its spectra;
    the Frobenius factors refuse a resonant residue), and certifies the
    result a posteriori against float ``solve_polynomial`` (``_certify``);
    a failed certificate raises QuadratureError.  A block system with
    cond(M) u > 1e3 * tol (u = 2^-53) is refused with QuadratureError
    before the solve; ``certificate.cond`` holds cond(M).  The returned
    phi and y are the moment construction's own.  numpy's overflow,
    invalid and divide warnings are off here and in ``eval``, as in the
    engine and the recursions: a non-finite value reaches the refusals.
    """
    report = check_linear_assumption(system, tol=resonance_tol)
    if not report.passed:
        v = report.violations[0]
        raise AssumptionError(
            f"integer shift k + B_{v.residue} singular at k={v.k}; "
            "the correction problem is not uniquely solvable"
        )
    gf = float_vecpoly(g)
    ctx = _Context(system, tol, resonance_tol)
    specs = _paths_for(ctx.system, paths)

    s = ctx.system.s
    d = ctx.d
    n_x = max(s + 1, len(gf.coeffs))
    passes = _transport_passes(ctx, specs, n_x)
    # row block j is [M_{j0} .. M_{jS}]; its right side is xi_j
    big = np.vstack([np.hstack(r.mats[:s + 1]) for r in passes])
    rhs = np.concatenate([_contract(r.mats, gf) for r in passes])
    # a-priori estimate: the solve loses about cond(M) u relative
    try:
        cond = float(np.linalg.cond(big))
    except np.linalg.LinAlgError as err:
        raise QuadratureError(f"moment block system: {err}") from None
    if not cond * UNIT_ROUNDOFF <= 1e3 * tol:
        raise QuadratureError(
            f"moment block system too ill-conditioned: cond(M) = "
            f"{cond:.3e}, cond(M) u = {cond * UNIT_ROUNDOFF:.3e} > 1e3 * tol"
        )
    sol = np.linalg.solve(big, rhs)
    resid = float(np.max(np.abs(big @ sol - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if resid > 1e3 * tol * scale:
        raise QuadratureError(
            f"moment system solve residual {resid:.3e} too large"
        )

    coeffs = sol.reshape(s + 1, d)
    phi = VecPoly.from_coeffs(map(tuple, coeffs.tolist()), False, dim=d)
    handle = AnalyticSolutionHandle(ctx, gf - phi, tol)
    handle.certificate = cert = _certify(passes, handle, gf, coeffs, cond)
    if not cert.passed:
        raise QuadratureError(
            "a-posteriori certificate failed: against the polynomial "
            f"solution, phi is off by {cert.phi_gap:.3e} and the continued "
            f"solution by {cert.max_difference:.3e}, relative to max(1, "
            f"size); the bound is 10 * tol = {10 * tol:g}")
    return CorrectionResult(phi=phi, y=handle)


def _certify(passes, handle, g, phi, cond):
    """The route's phi, the (S + 1, d) array ``phi``, and its continued
    solution against (phi_ref, y_ref) of float ``solve_polynomial``, each
    within 10 * tol relative to max(1, size).  y is checked at pole 0's
    start point and at every other pole's stop point: the continued value
    ``handle._continued`` (W^{-1} times one contraction of the partial
    moments there with g - phi) against y_ref.  ``cond`` is cond(M) of
    the solved moment system, kept in the report.
    """
    ref = solve_polynomial(handle._ctx.system, np.array(
        g.coeffs, dtype=complex).reshape(-1, handle._ctx.d).T)
    phi_ref = np.zeros_like(phi)
    phi_ref[:ref.phi.shape[1]] = ref.phi.T
    report = CertificateReport(tol=handle.tol, cond=cond, phi_gap=float(
        np.max(np.abs(phi - phi_ref)) / max(1.0, np.max(np.abs(phi)))))
    first = passes[0]
    checkpoints = [(0, first.start_point, first.mats_start, first.w_start)]
    checkpoints += [
        (j, r.mid_point, r.mats_mid, r.w_mid)
        for j, r in enumerate(passes, start=1)
    ]
    for j, point, mats, w in checkpoints:
        value = np.array(handle._continued(w, mats))
        want = point ** np.arange(ref.y.shape[1]) @ ref.y.T
        scale = max(float(np.max(np.abs(want))),
                    float(np.max(np.abs(value))))
        diff = float(np.max(np.abs(value - want)))
        report.checks.append(PoleCheck(
            j, point, diff, scale,
            diff <= 10 * handle.tol * max(1.0, scale),
        ))
    return report

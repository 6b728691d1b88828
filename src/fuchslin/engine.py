"""Formal linearization and normal forms, order by order.

For du/dx = A(x)u + (1/Q) f(x, u) with Fuchsian A and polynomial f, seek a
substitution u = w + h(x, w) (h of order >= 2 in w) transforming the system
into dw/dx = A(x)w + (1/Q) phi(x, w).  Matching orders in w, each
homogeneous degree n satisfies a linear problem

    d_x h_n + (d_w h_n) A w - A h_n = (1/Q) (g_n - phi_n)

whose left-hand operator, written in the canonical monomial basis, is
exactly a Fuchsian system of the induced size (applied matrix-free; only
k + J_{B_inf} is a dense matrix) -- so the polynomial correction solver
produces the unique obstruction phi_n of x-degree <= S and the coefficient
h_n in one stroke.  The right-hand side g_n collects the already-known
orders: compositions of f and of the lower obstruction terms with w + h.

Two modes:

* ``obstruction``: the correction phi is substituted along with f, so the
  blocks subtract the composition [phi_{<n}(x, w + h)]_n.  The corrected
  equation u' = Au + (f - phi)/Q is then exactly linearizable.
* ``normal-form``: the target system keeps psi(x, w) at w itself
  (w' = Aw + psi/Q), so the blocks subtract the Jacobian product
  [(d_w h) psi_{<n}]_n instead.

The two right-hand sides coincide at order 2 (both reduce to f_2) but not
in general beyond it, so psi and phi agree at order 2 and may diverge from
order 3 on -- they are different canonical objects answering different
questions.  ``compare_modes`` reports where they separate;
``verify_conjugacy`` checks each mode against its own identity.

The right-hand sides rest on two pieces.  ``compose_series`` is a
generator that yields the right-hand side of every order of one loop.  It
keeps one table of the slices of the powers (w + h)^m, each built once
from the power one lower in its last nonzero index; order n adds only the
degree-n slices, which read h below order n.  In the obstruction mode it
also keeps the table f - phi, folding each phi term in once, at the first
order at or above its own that finds it.  ``_jacobian_product`` adds
[(d_w h) V]_n: the engine calls it with V = psi for the normal-form term,
the verifier with V = (QA) w.

Every sum of products (a power slice, the f terms of order n, a Jacobian
product, the verifier's left-hand side) accumulates into one coefficient
list per target by ``poly.sp_mul_acc`` (buf += a * b in place) and is
trimmed once, when it is complete.

All series loops iterate keys in sorted order, so results are
bit-for-bit reproducible regardless of how the nonlinearity table was
assembled (float addition is not associative; a fixed order makes it
deterministic).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .correction import solve_polynomial
from .exact import from_int
from .model import AssumptionError, check_nonlinear_assumption
from .pnspace import devectorize, induced_system, vectorize
from .poly import VecPoly, sp_mul_acc, sp_trim
from .matrices import ShapeError


class SeriesTable:
    """Homogeneous term table: {monomial m: vector polynomial in x}.

    Holds all orders of one formal series (h, phi, or psi); order n is the
    slice with |m| = n.
    """

    __slots__ = ("dim", "exact", "terms")

    def __init__(self, dim, exact, terms=None):
        self.dim = dim
        self.exact = exact
        self.terms = {}
        if terms:
            for m, p in terms.items():
                self.set(m, p)

    def set(self, m, p):
        m = tuple(int(v) for v in m)
        if len(m) != self.dim:
            raise ShapeError(f"monomial {m} does not match dimension {self.dim}")
        if p.dim != self.dim:
            raise ShapeError("table entry has wrong vector dimension")
        if p.is_zero():
            self.terms.pop(m, None)
        else:
            self.terms[m] = p

    def get(self, m):
        return self.terms.get(tuple(m))

    def order_slice(self, n):
        return {m: p for m, p in self.terms.items() if sum(m) == n}

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def max_order(self):
        return max((sum(m) for m in self.terms), default=0)

    def copy(self):
        return SeriesTable(self.dim, self.exact, dict(self.terms))

    def __iter__(self):
        return iter(self.items_sorted())

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return (
            f"SeriesTable(dim={self.dim}, terms={len(self.terms)}, "
            f"order<={self.max_order()})"
        )


@dataclass
class ConjugacyReport:
    """Cleared-denominator residual of the conjugacy identity, per order."""

    mode: str
    tol: float
    residuals: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        return max(self.residuals.values(), default=0.0)

    @property
    def passed(self):
        return self.max_residual <= self.tol


# ----------------------------------------------------------------------
# composition of the right-hand side
# ----------------------------------------------------------------------


def _jacobian_product(acc, h_terms, v_terms, n, sign, exact, dim):
    """Add sign * [(d_w h) V]_n into the per-component buffers ``acc``.

    ``h_terms`` and ``v_terms`` are {monomial: VecPoly} tables of h and of
    the vector field V; (d_w h) V = sum_l (d h / d w_l) V_l, so the term
    h_m w^m times V_l at w^mv lands on m - e_l + mv with factor m_l, which
    is applied to h_m's components once per l.
    """
    zero = from_int(0, exact)
    by_order = {}
    for mv in sorted(v_terms):
        by_order.setdefault(sum(mv), []).append(
            (mv, _components(v_terms[mv], dim)))
    for mh in sorted(h_terms):
        matches = by_order.get(n + 1 - sum(mh))
        if not matches:
            continue
        comps = _components(h_terms[mh], dim)
        scaled = {}
        for l in range(dim):
            if mh[l]:
                s = from_int(sign * mh[l], exact)
                scaled[l] = [tuple(s * c for c in comp) for comp in comps]
        for mv, factors in matches:
            for l, sc in scaled.items():
                if not factors[l]:
                    continue
                target = tuple(
                    t + e - (k == l) for k, (t, e) in enumerate(zip(mh, mv))
                )
                slot = acc.setdefault(target, [[] for _ in range(dim)])
                for i in range(dim):
                    if sc[i]:
                        sp_mul_acc(slot[i], sc[i], factors[l], zero)


def compose_series(f_terms, h_table, extra, order_max, mode="obstruction"):
    """Yield the composed right-hand side's degree-n part, n = 2 .. order_max.

    ``f_terms`` is a {monomial: VecPoly} table; ``h_table`` a SeriesTable;
    ``extra`` holds the obstruction (phi) or normal-form (psi) terms, or
    None.  Each yielded part is a {monomial: VecPoly} table:

    obstruction:  [(f - extra)(x, w + h)]_n
    normal-form:  [f(x, w + h)]_n - [(d_w h) extra(x, w)]_n

    Order n is built when the caller asks for it, from the terms that
    ``h_table`` and ``extra`` hold at that moment; only the orders of h
    below n enter it.  The caller fills in order n - 1 before asking for
    order n and must not change lower orders afterwards: the slices of the
    powers (w + h)^m are kept from one order to the next, and so is each
    term of f - extra once an order at or above its own has read it.
    """
    if mode not in ("obstruction", "normal-form"):
        raise ValueError(f"unknown mode {mode!r}")
    dim = h_table.dim
    exact = h_table.exact
    zero = from_int(0, exact)
    one = (from_int(1, exact),)
    powers = {}    # (m, k) -> slice k of (w + h)^m, {monomial: x-poly}

    def power(m, k):
        if (m, k) in powers:
            return powers[m, k]
        i = max(j for j in range(dim) if m[j])
        out = {}
        if sum(m) == 1:
            # (w + h)_i: w_i at degree 1, component i of h's slice k above,
            # inserted in monomial order
            if k == 1:
                out[m] = one
            else:
                for mh, p in sorted(h_table.order_slice(k).items()):
                    c = p.component(i)
                    if c:
                        out[mh] = c
        elif k >= sum(m):
            # (w + h)^(m - e_i) (w + h)_i, i the last nonzero index of m;
            # pairs in the order of the lower monomial, then of the other
            unit = tuple(int(j == i) for j in range(dim))
            lower = tuple(v - u for v, u in zip(m, unit))
            a = {}
            for b in range(sum(lower), k):
                a.update(power(lower, b))
            for ma in sorted(a):
                for mb, cb in power(unit, k - sum(ma)).items():
                    total = tuple(x + y for x, y in zip(ma, mb))
                    sp_mul_acc(out.setdefault(total, []), a[ma], cb, zero)
            out = {mu: c for mu, buf in out.items() if (c := sp_trim(buf))}
        powers[m, k] = out
        return out

    # f - extra as components; an extra term is folded in once, at the
    # first order at or above its own that finds it in ``extra``
    table = {m: _components(p, dim) for m, p in f_terms.items()}
    folded = set()
    for n in range(2, order_max + 1):
        if mode == "obstruction" and extra is not None:
            for m in sorted(extra.terms):
                if sum(m) > n or m in folded:
                    continue
                p = extra.terms[m]
                cur = f_terms.get(m)
                table[m] = _components((cur - p) if cur is not None else -p,
                                       dim)
                folded.add(m)

        acc = {}
        for mt in sorted(table):
            comps = table[mt]
            prod = power(mt, n)
            for mu in sorted(prod):
                slot = acc.setdefault(mu, [[] for _ in range(dim)])
                for i in range(dim):
                    if comps[i]:
                        sp_mul_acc(slot[i], comps[i], prod[mu], zero)

        if mode == "normal-form" and extra is not None:
            _jacobian_product(acc, h_table.terms, extra.terms, n, -1, exact,
                              dim)

        out = {}
        for mu in sorted(acc):
            p = _components_to_vecpoly(acc[mu], dim, exact)
            if not p.is_zero():
                out[mu] = p
        yield out


def _components(p, dim):
    return [p.component(i) for i in range(dim)]


def _components_to_vecpoly(comps, dim, exact):
    """VecPoly of the per-component coefficient sequences ``comps``, which
    may end in zeros."""
    comps = [sp_trim(c) for c in comps]
    deg = max((len(c) for c in comps), default=0)
    coeffs = [
        tuple(
            comps[i][k] if k < len(comps[i]) else from_int(0, exact)
            for i in range(dim)
        )
        for k in range(deg)
    ]
    return VecPoly.from_coeffs(coeffs, exact, dim=dim)


# ----------------------------------------------------------------------
# the order-by-order engine
# ----------------------------------------------------------------------


def linearize(nonlinear, order_max, tol=1e-12, resonance_tol=1e-9,
              basis_factory=None):
    """Formal linearization through monomial order ``order_max``.

    Returns (phi, h): the obstruction series (each term of x-degree <= S)
    and the substitution series u = w + h(x, w) that linearizes the
    phi-corrected system.  Raises AssumptionError when the nonresonance
    check fails.  ``basis_factory(d, n)`` may override the block basis
    enumeration; the output is enumeration-independent.
    """
    return _run_engine(nonlinear, order_max, "obstruction", tol,
                       resonance_tol, basis_factory)


def normal_form(nonlinear, order_max, tol=1e-12, resonance_tol=1e-9,
                basis_factory=None):
    """Normal-form variant: the corrected terms ride along in w itself.

    Returns (psi, h) with w' = Aw + psi(x, w)/Q the target system and
    u = w + h(x, w) the conjugacy from the original equation.  The block
    right-hand sides differ from ``linearize``'s (a Jacobian product
    d_w h * psi replaces the composition of the correction with w + h), so
    psi matches the obstruction series at order 2 but in general diverges
    from it at higher orders; see ``compare_modes``.
    """
    return _run_engine(nonlinear, order_max, "normal-form", tol,
                       resonance_tol, basis_factory)


def _run_engine(nonlinear, order_max, mode, tol, resonance_tol,
                basis_factory=None):
    report = check_nonlinear_assumption(nonlinear, order_max, resonance_tol)
    if not report.passed:
        v = report.violations[0]
        raise AssumptionError(
            f"nonlinear nonresonance fails at residue {v.residue}, monomial "
            f"{v.monomial}, component {v.component}, k={v.k} "
            f"(|value| = {v.margin:.3e})"
        )
    d = nonlinear.size
    exact = nonlinear.exact
    h = SeriesTable(d, exact)
    out = SeriesTable(d, exact)
    linear = nonlinear.linear

    parts = compose_series(nonlinear.nonlinearity, h, out, order_max,
                           mode=mode)
    for n, g_table in enumerate(parts, start=2):
        custom = None if basis_factory is None else basis_factory(d, n)
        block, basis = induced_system(linear, n, basis=custom)
        g_vec = vectorize(g_table, basis, exact)
        result = solve_polynomial(block, g_vec, tol)
        for m, p in sorted(devectorize(result.phi, basis, exact).items()):
            out.set(m, p)
        for m, p in sorted(devectorize(result.y, basis, exact).items()):
            h.set(m, p)
    return out, h


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


def verify_conjugacy(nonlinear, series, h, order_max, mode="obstruction",
                     tol=1e-9):
    """Residual of the conjugacy identity with denominators cleared.

    obstruction:  Q d_x h + (d_w h)(QA)w - (QA)h = [f - series](x, w + h)
    normal-form:  ... = f(x, w + h) - series(x, w) - (d_w h) series(x, w)

    checked order by order through ``order_max``; the report holds the
    maximal absolute coefficient of the difference per order (see
    ``_magnitude``).  Exact mode decides zero exactly: the report's
    tolerance is 0 whatever ``tol`` is, so it passes exactly when every
    difference is exactly zero.
    """
    if mode not in ("obstruction", "normal-form"):
        raise ValueError(f"unknown mode {mode!r}")
    linear = nonlinear.linear
    d = nonlinear.size
    exact = nonlinear.exact
    q = linear.q_poly()
    qa = linear.qb_poly()
    # (QA) w as a series table: column s of QA at the monomial w_s
    qa_w = {
        tuple(int(k == s) for k in range(d)): _components_to_vecpoly(
            [qa.entry(l, s) for l in range(d)], d, exact
        )
        for s in range(d)
    }

    report = ConjugacyReport(mode=mode, tol=0.0 if exact else tol)
    parts = compose_series(nonlinear.nonlinearity, h, series, order_max,
                           mode=mode)
    for n, rhs in enumerate(parts, start=2):
        lhs = {}
        for m, hp in sorted(h.order_slice(n).items()):
            dx = hp.derivative().mul_sp(q)
            flow = qa.mul_vec(hp)
            lhs[m] = [list(c) for c in _components(dx - flow, d)]
        _jacobian_product(lhs, h.terms, qa_w, n, 1, exact, d)

        if mode == "normal-form":
            for m, p in sorted(series.order_slice(n).items()):
                cur = rhs.get(m)
                rhs[m] = (cur - p) if cur is not None else -p

        zero = VecPoly.zero(d, exact)
        worst = 0.0
        for m in sorted(set(lhs) | set(rhs)):
            left = lhs.get(m)
            lp = zero if left is None else _components_to_vecpoly(
                left, d, exact
            )
            worst = max(worst, _magnitude(lp - rhs.get(m, zero)))
        report.residuals[n] = worst
    return report


def _magnitude(p):
    """Largest absolute coefficient of ``p`` as a float, 0.0 only when
    ``p`` is exactly zero.  A nonzero magnitude below the float range reads
    as the smallest positive float, one above it as ``sys.float_info.max``.
    """
    if p.is_zero():
        return 0.0
    try:
        return min(max(float(p.max_abs()), math.ulp(0.0)), sys.float_info.max)
    except OverflowError:
        return sys.float_info.max


@dataclass
class ModeComparison:
    """Where (and whether) the two canonical corrections separate."""

    order_max: int
    phi: SeriesTable
    psi: SeriesTable
    h_obstruction: SeriesTable
    h_normal_form: SeriesTable
    differences: dict = field(default_factory=dict)

    @property
    def agree(self):
        return not self.differences

    @property
    def first_divergence(self):
        if not self.differences:
            return None
        return min(sum(m) for m in self.differences)


def compare_modes(nonlinear, order_max, tol=1e-12, resonance_tol=1e-9):
    """Run both modes and tabulate termwise differences of the corrections.

    The obstruction series and the normal-form correction solve different
    conjugacy identities; they always agree at order 2, generally not
    beyond.  Returns a ModeComparison whose ``differences`` maps each
    monomial where the corrections differ to the max absolute coefficient
    of the difference (floats, even in exact mode, for easy inspection;
    see ``_magnitude``).
    """
    phi, h1 = linearize(nonlinear, order_max, tol, resonance_tol)
    psi, h2 = normal_form(nonlinear, order_max, tol, resonance_tol)
    diffs = {}
    keys = sorted(set(m for m, _ in phi) | set(m for m, _ in psi))
    d = nonlinear.size
    exact = nonlinear.exact
    for m in keys:
        a = phi.get(m) or VecPoly.zero(d, exact)
        b = psi.get(m) or VecPoly.zero(d, exact)
        delta = a - b
        if not delta.is_zero():
            diffs[m] = _magnitude(delta)
    return ModeComparison(
        order_max=order_max,
        phi=phi,
        psi=psi,
        h_obstruction=h1,
        h_normal_form=h2,
        differences=diffs,
    )

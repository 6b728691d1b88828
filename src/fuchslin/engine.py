"""Formal linearization and normal forms, order by order.

For du/dx = A(x)u + (1/Q) f(x, u) with Fuchsian A and polynomial f, seek a
substitution u = w + h(x, w) (h of order >= 2 in w) transforming the system
into dw/dx = A(x)w + (1/Q) phi(x, w).  Matching orders in w, each
homogeneous degree n satisfies a linear problem

    d_x h_n + (d_w h_n) A w - A h_n = (1/Q) (g_n - phi_n)

whose left-hand operator, written in the canonical monomial basis, is
exactly a Fuchsian system of the induced size (kept sparse in exact mode,
as arrays in float mode) -- so the polynomial correction solver
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

One loop composes the right-hand sides on one row store, in blocks of
coefficient rows: P[p, k] holds slice k of (w + h)^m for every m of order
p, built once from the power one lower in its last nonzero index.  Order
n follows a pair plan (``plans.py``): triples (row, row, target row)
giving the new blocks P[p, n], which read h below order n, then the terms
of f - extra of order n and, in the normal-form mode, the Jacobian
product [(d_w h) psi]_n.  A factor that is a w-part (w^(m - e_i) or w_i,
coefficient 1) makes its pair a row copy.  A run asks for its plans
once; those of its orders not built yet in the process are built
together and kept for the rest of the process, so a later run to the
same or a lower order builds none, and a fresh process (each CLI
command) builds its plans again.  The loop's caller adds h and the
series to the store, order by order: the engine writes back its block
solves, which take and give store rows (``vectorize`` / ``devectorize``
only put them in basis order and back), and hands its output blocks to
its tables at the end, as rows; ``verify_conjugacy`` adds each order of
its tables, and of f, once as they are (a SeriesTable and
``NonlinearSystem.f`` keep each term as store rows) and Q and (QA) w
once as rows read off the linear part's ``q_coefficients`` and
``qb_coefficients``, and runs one more plan per order on the same store
for the whole residual,
Q d_x h + (d_w h)(QA) w - (QA) h less the composed rows (plus the series
in the normal-form mode).  Float mode executes a plan on complex128
arrays (one gather, one batched row convolution, one sum per run of equal
targets).  Exact mode runs the same pairs, skipping empty rows, on
integer rows: numerator tuples over one positive denominator per row.  A
product multiplies the denominators and convolves the numerators in
plain ints; a target sums them in one bucket per denominator and reduces
once, at the end, to the lcm of its buckets over one gcd.

All series loops iterate keys in sorted order, and the plans list
monomials in sorted order, so results are bit-for-bit reproducible
regardless of how the nonlinearity table was assembled (float addition is
not associative; a fixed order makes it deterministic).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .correction import solve_polynomial
from .model import AssumptionError, check_nonlinear_assumption
from .plans import (_C, _D, _E, _H, _R, _T, _count, _run_plans,
                    _verify_plans)
from .pnspace import (SeriesTable, _reduced_row, _term_poly, devectorize,
                      induced_system, multiindices, vectorize)


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
# the two executors of a plan
# ----------------------------------------------------------------------

# coefficients in one batch of row products (4 MB of complex128)
_BATCH = 1 << 18


class _FloatRows:
    """Row store of complex128 rows; a plan runs as one gather, one batched
    row convolution and one summation of each run of equal targets."""

    def __init__(self, d, kinds, orders):
        self.d = d
        self.off = np.full((kinds, orders), -1, np.intp)   # -1: not added
        self.length = np.zeros((kinds, orders), np.intp)
        self.data = np.zeros((256, 8), complex)
        self.used = 0

    def add(self, kind, order, block):
        """Append ``block``, trimmed to its last nonzero x-column."""
        cols = np.flatnonzero(block.any(axis=0))
        width = int(cols[-1]) + 1 if cols.size else 0
        need = self.used + len(block)
        rows, cap = self.data.shape
        if need > rows or width > cap:
            grown = np.zeros((max(need, 2 * rows) if need > rows else rows,
                              max(width, 2 * cap) if width > cap else cap),
                             complex)
            grown[:self.used, :cap] = self.data[:self.used]
            self.data = grown
        self.data[self.used:need, :width] = block[:, :width]
        self.off[kind, order] = self.used
        self.length[kind, order] = width
        self.used = need

    def block(self, kind, order):
        """Rows of field block (kind, order), None if it was not added."""
        start = self.off[kind, order]
        if start >= 0:
            return self.data[start:start + _count(self.d, order) * self.d,
                             :self.length[kind, order]]

    def field(self, kind, order, terms, less=None):
        """Append order ``order`` of ``terms``, a SeriesTable's rows, less
        rows ``less``."""
        d = self.d
        found = [terms.get(m) for m in multiindices(d, order)]
        width = max([t.shape[1] for t in found if t is not None]
                    + [0 if less is None else less.shape[1]])
        block = np.zeros((len(found) * d, width), complex)
        for pos, t in enumerate(found):
            if t is not None:
                block[pos * d:pos * d + d, :t.shape[1]] = t
        if less is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                block[:, :less.shape[1]] -= less
        self.add(kind, order, block)

    def derive(self, kind, order, source):
        """Append the x-derivative of field block (source, order)."""
        block = self.block(source, order)[:, 1:]
        self.add(kind, order, block * np.arange(1, block.shape[1] + 1))

    def run(self, pairs):
        """(pairs.size, x-length) array of the summed products and copies.

        Each side is gathered only as long as its longest source block, and
        products are taken in batches of whole runs of equal targets, about
        _BATCH coefficients a batch, so that large plans stay in bounded
        memory.  Overflow is left to show as a non-finite coefficient,
        which the block solve reports; numpy's warnings about it are
        silenced here.
        """
        left, la = self._index(pairs.a)
        right, lb = self._index(pairs.b)
        copy, lc = self._index(pairs.c)
        out = np.zeros((pairs.size, max(la + lb - 1, lc, 0)), complex)
        data, starts, count = self.data, pairs.starts, pairs.target.size
        with np.errstate(over="ignore", invalid="ignore"):
            if la and lb:
                step = _BATCH // (la + lb) + 1
                cuts = [0] if count <= step else np.unique(np.searchsorted(
                    starts, np.arange(0, count, step), side="right") - 1)
                for first, last in zip(cuts, list(cuts[1:]) + [None]):
                    runs = starts[first:last]
                    rows = slice(runs[0],
                                 count if last is None else starts[last])
                    prod = _convolve(data[left[rows], :la],
                                     data[right[rows], :lb])
                    if pairs.scale is not None:
                        prod *= pairs.scale[rows, None]
                    out[pairs.target[runs], :prod.shape[1]] = \
                        np.add.reduceat(prod, runs - runs[0], axis=0)
            if lc:
                out[pairs.c_target[pairs.c_starts], :lc] += np.add.reduceat(
                    data[copy, :lc], pairs.c_starts, axis=0)
        return out

    def _index(self, rows):
        """Store rows and the longest source block's length of a side."""
        kind, order, row = rows
        return (self.off[kind, order] + row,
                int(self.length[kind, order].max(initial=0)))

    def table(self, out, order):
        """SeriesTable rows of the nonzero terms of an output with rows
        mu * d + i, each copied out and trimmed to its last nonzero
        x-column."""
        d = self.d
        monomials = multiindices(d, order)
        if not out.shape[1]:
            return {}
        blocks = out.reshape(len(monomials), d, out.shape[1])
        nonzero = blocks.any(axis=1)
        lengths = out.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
        return {monomials[pos]: blocks[pos, :, :lengths[pos]].copy()
                for pos in np.flatnonzero(nonzero.any(axis=1)).tolist()}

    def magnitude(self, out):
        """Largest absolute coefficient of an output as a float: an inf or a
        nan reads as ``sys.float_info.max`` (``_ExactRows.magnitude``)."""
        return float(np.fmin(np.abs(out).max(initial=0.0), sys.float_info.max))


def _convolve(a, b):
    """Row-wise polynomial products of the coefficient rows of a and b."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), complex)
    for j in range(b.shape[1]):
        out[:, j:j + a.shape[1]] += a * b[:, j, None]
    return out


class _ExactRows:
    """Row store of integer rows: one row is (den, re, im), the numerator
    tuples ``re`` and ``im`` over one positive ``den``, with ``im`` None
    when every imaginary part is zero, and None when the row is empty.

    A plan's products multiply the denominators and convolve the numerators
    in plain ints, skipping pairs with an empty row; each target sums its
    products and copies in one bucket per denominator, and reduces once,
    when it is complete (``_reduce``).
    """

    def __init__(self, d, kinds, orders):
        self.d = d
        self.off = np.full((kinds, orders), -1, np.intp)   # -1: not added
        self.rows = []
        self.live = np.zeros(0, bool)

    def add(self, kind, order, block):
        self.off[kind, order] = len(self.rows)
        self.rows.extend(block)
        self.live = np.concatenate([self.live, np.fromiter(
            (r is not None for r in block), bool, len(block))])

    def block(self, kind, order):
        start = self.off[kind, order]
        if start >= 0:
            return self.rows[start:start + _count(self.d, order) * self.d]

    def field(self, kind, order, terms, less=None):
        empty = (None,) * self.d
        block = []
        for m in multiindices(self.d, order):
            block += terms.get(m, empty)
        if less is not None:
            block = list(map(_difference, block, less))
        self.add(kind, order, block)

    def derive(self, kind, order, source):
        self.add(kind, order, [*map(_derivative, self.block(source, order))])

    def run(self, pairs):
        """Integer rows of the summed products and copies, one per row."""
        rows, off, live = self.rows, self.off, self.live
        sums = [{} for _ in range(pairs.size)]
        kind, order, row = pairs.a
        left = off[kind, order] + row
        kind, order, row = pairs.b
        right = off[kind, order] + row
        keep = live[left] & live[right]
        scale = (pairs.scale[keep].tolist() if pairs.scale is not None
                 else itertools.repeat(1))
        for a, b, t, s in zip(left[keep].tolist(), right[keep].tolist(),
                              pairs.target[keep].tolist(), scale):
            den_a, re_a, im_a = rows[a]
            den_b, re_b, im_b = rows[b]
            acc_re, acc_im = sums[t].setdefault(den_a * den_b, ([], []))
            _conv_into(acc_re, re_a, re_b, s)
            if im_a is not None:
                _conv_into(acc_im, im_a, re_b, s)
                if im_b is not None:
                    _conv_into(acc_re, im_a, im_b, -s)
            if im_b is not None:
                _conv_into(acc_im, re_a, im_b, s)
        kind, order, row = pairs.c
        src = off[kind, order] + row
        keep = live[src]
        for c, t in zip(src[keep].tolist(), pairs.c_target[keep].tolist()):
            den, re, im = rows[c]
            acc_re, acc_im = sums[t].setdefault(den, ([], []))
            _add_into(acc_re, re)
            if im is not None:
                _add_into(acc_im, im)
        return [_reduce(buckets) for buckets in sums]

    def table(self, out, order):
        d = self.d
        return {m: rows for pos, m in enumerate(multiindices(d, order))
                for rows in [tuple(out[pos * d:pos * d + d])]
                if any(r is not None for r in rows)}

    def magnitude(self, out):
        """Largest absolute coefficient of an output as a float, 0.0 only
        when it is exactly zero: a nonzero magnitude below the float range
        reads as the smallest positive float, one above it as
        ``sys.float_info.max``.  A coefficient v / den converts to the
        float Fraction(v, den) gives."""
        live = [row for row in out if row is not None]
        if not live:
            return 0.0
        try:
            top = max(abs(complex(v / den, w / den))
                      for den, re, im in live
                      for v, w in zip(re, im or itertools.repeat(0)))
        except OverflowError:
            return sys.float_info.max
        return min(max(top, math.ulp(0.0)), sys.float_info.max)


def _derivative(row):
    """Integer row of the x-derivative of a row: the numerators times k,
    over the same denominator."""
    if row is None or len(row[1]) < 2:
        return None
    den, re, im = row
    re = tuple(k * v for k, v in enumerate(re[1:], 1))
    if im is not None and any(im[1:]):
        return den, re, tuple(k * v for k, v in enumerate(im[1:], 1))
    return den, re, None


def _conv_into(buf, a, b, s):
    """``buf += s * a * b`` on the int list ``buf``, extended as needed."""
    short = len(a) + len(b) - 1 - len(buf)
    if short > 0:
        buf.extend([0] * short)
    for i, x in enumerate(a):
        if x:
            x *= s
            for k, y in enumerate(b, i):
                buf[k] += x * y


def _add_into(buf, a):
    """``buf += a`` on the int list ``buf``, extended as needed."""
    n = len(buf)
    for k, v in enumerate(a[:n]):
        buf[k] += v
    buf.extend(a[n:])


def _difference(a, b):
    """Integer row of a - b; either may be None."""
    sums = {}
    for den, re, im, sign in [r + (s,) for r, s in ((a, 1), (b, -1)) if r]:
        acc_re, acc_im = sums.setdefault(den, ([], []))
        _conv_into(acc_re, re, (sign,), 1)
        _conv_into(acc_im, im or (), (sign,), 1)
    return _reduce(sums)


def _reduce(buckets):
    """One integer row from {den: (re, im)} numerator sums: the buckets
    brought to the lcm of their denominators, trailing zeros trimmed and
    one gcd divided out; None when the sum is zero."""
    if not buckets:
        return None
    den = math.lcm(*buckets)
    width = max(max(len(re), len(im)) for re, im in buckets.values())
    re, im = [0] * width, [0] * width
    for part, (p_re, p_im) in buckets.items():
        f = den // part
        for k, v in enumerate(p_re):
            re[k] += f * v
        for k, v in enumerate(p_im):
            im[k] += f * v
    return _reduced_row(den, re, im)


def _row_store(exact, d, order_max):
    """An empty store with room for every block of a run to ``order_max``."""
    return (_ExactRows if exact else _FloatRows)(d, _H + order_max,
                                                  order_max + 1)


# ----------------------------------------------------------------------
# composition of the right-hand side
# ----------------------------------------------------------------------


def compose_series(f_terms, h_table, extra, order_max, mode="obstruction"):
    """Yield the composed right-hand side's degree-n part, n = 2 .. order_max.

    ``f_terms`` is a {monomial: VecPoly} table of orders >= 2; ``h_table``
    a SeriesTable; ``extra`` holds the obstruction (phi) or normal-form
    (psi) terms, or None.  Each yielded part is a {monomial: VecPoly} table:

    obstruction:  [(f - extra)(x, w + h)]_n
    normal-form:  [f(x, w + h)]_n - [(d_w h) extra(x, w)]_n

    Order n is built when the caller asks for it, from the orders of h and
    extra below n as ``h_table`` and ``extra`` hold them at that moment;
    an obstruction part also subtracts the order-n terms extra holds then.
    The caller fills in order n - 1 before asking for order n and must not
    change lower orders afterwards: the slices of the powers (w + h)^m
    built from them are kept.
    """
    if mode not in ("obstruction", "normal-form"):
        raise ValueError(f"unknown mode {mode!r}")
    for m in f_terms:
        if sum(m) < 2:
            raise ValueError(f"term {m} of f has order below 2")
    d, exact = h_table.dim, h_table.exact
    rows = _row_store(exact, d, order_max)
    parts = _compose_rows(SeriesTable(d, exact, f_terms).rows, rows,
                          order_max, mode, extra is not None)
    for n in range(2, order_max + 1):
        if n > 2:
            rows.field(_H, n - 1, h_table.rows)
        for k in range(max(2, n - 1), n + 1) if extra is not None else ():
            rows.field(_E, k, extra.rows)
        yield {m: _term_poly(t, exact)
               for m, t in rows.table(next(parts), n).items()}


def _compose_rows(f_rows, rows, order_max, mode, extra):
    """``compose_series`` on ``rows``, yielding output rows, for f given as
    a SeriesTable's rows.  Before order n the caller adds the order-(n - 1)
    blocks of h and, if ``extra``, of extra; an obstruction part also
    subtracts an extra block of order n."""
    by_order = {}
    for m, t in f_rows.items():
        by_order.setdefault(sum(m), {})[m] = t
    fold = mode == "obstruction" and extra
    jacobian = mode == "normal-form" and extra
    # highest order of a term of f - extra, and so of a power in the table
    top = order_max if fold else min(max(by_order, default=0), order_max)
    plans = _run_plans(rows.d, order_max, top, jacobian)
    for n, (power, blocks, rhs) in enumerate(plans, start=2):
        # T[n] enters order n only through w^m; the engine knows extra's
        # order-n terms only after it, so T[n - 1] is read again here
        for k in range(max(2, n - 1), min(top, n) + 1):
            rows.field(_T, k, by_order.get(k, {}),
                       rows.block(_E, k) if fold else None)
        new = rows.run(power)
        for kind, start, stop in blocks:
            rows.add(kind, n, new[start:stop])
        yield rows.run(rhs)

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
    _require_nonresonance(nonlinear, order_max, resonance_tol)
    return _run_engine(nonlinear, order_max, "obstruction", tol,
                       basis_factory)


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
    _require_nonresonance(nonlinear, order_max, resonance_tol)
    return _run_engine(nonlinear, order_max, "normal-form", tol,
                       basis_factory)


def _require_nonresonance(nonlinear, order_max, resonance_tol):
    """Raise AssumptionError when the nonresonance check fails."""
    report = check_nonlinear_assumption(nonlinear, order_max, resonance_tol)
    if not report.passed:
        v = report.violations[0]
        raise AssumptionError(
            f"nonlinear nonresonance fails at residue {v.residue}, monomial "
            f"{v.monomial}, component {v.component}, k={v.k} "
            f"(|value| = {v.margin:.3e})"
        )


def _run_engine(nonlinear, order_max, mode, tol, basis_factory=None):
    """Both series of ``mode`` through ``order_max``, the nonresonance
    check already passed."""
    d, exact = nonlinear.size, nonlinear.exact
    rows = _row_store(exact, d, order_max)
    parts = _compose_rows(nonlinear.f.rows, rows, order_max, mode, True)
    for n, g in enumerate(parts, start=2):
        custom = None if basis_factory is None else basis_factory(d, n)
        block, basis = induced_system(nonlinear.linear, n, basis=custom)
        result = solve_polynomial(block, vectorize(g, basis, exact), tol)
        rows.add(_E, n, devectorize(result.phi, basis, exact))
        rows.add(_H, n, devectorize(result.y, basis, exact))
    return tuple(SeriesTable.from_rows(d, exact, {
        m: t for n in range(2, order_max + 1)
        for m, t in rows.table(rows.block(kind, n), n).items()})
        for kind in (_E, _H))


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


def verify_conjugacy(nonlinear, series, h, order_max, mode="obstruction",
                     tol=1e-9):
    """Residual of the conjugacy identity with denominators cleared.

    obstruction:  Q d_x h + (d_w h)(QA)w - (QA)h = [f - series](x, w + h)
    normal-form:  ... = f(x, w + h) - series(x, w) - (d_w h) series(x, w)

    checked order by order from 2 through ``order_max``; the report holds
    the maximal absolute coefficient of the difference per order (the row
    store's ``magnitude``).  Exact mode decides zero exactly: the report's
    tolerance is 0 whatever ``tol`` is, so it passes exactly when every
    difference is exactly zero.  A term of order below 2 in ``series`` or
    ``h`` raises ValueError; terms above ``order_max`` are not read.
    """
    if mode not in ("obstruction", "normal-form"):
        raise ValueError(f"unknown mode {mode!r}")
    for name, table in (("series", series), ("h", h)):
        for m in table.rows:
            if sum(m) < 2:
                raise ValueError(f"term {m} of {name} has order below 2")
    d, exact = nonlinear.size, nonlinear.exact
    normal = mode == "normal-form"

    report = ConjugacyReport(mode=mode, tol=0.0 if exact else tol)
    if order_max < 2:
        return report
    rows = _row_store(exact, d, order_max)
    qa, q = _linear_rows(nonlinear.linear)
    rows.add(_E, 1, qa)
    rows.add(_C, 0, q)
    for n in range(2, order_max + 1):
        rows.field(_E, n, series.rows)
    parts = _compose_rows(nonlinear.f.rows, rows, order_max, mode, True)
    plans = _verify_plans(d, order_max, normal)
    for n, rhs, plan in zip(range(2, order_max + 1), parts, plans):
        rows.field(_H, n, h.rows)
        rows.derive(_D, n, _H)
        rows.add(_R, n, rhs)
        report.residuals[n] = rows.magnitude(rows.run(plan))
    return report


def _linear_rows(linear):
    """The store blocks of (QA) w, a field block of order 1 (row mu * d + l:
    entry (l, s) of QA, w_s the monomial at position mu), and of Q and 1,
    read off ``qb_coefficients`` and ``q_coefficients`` in either ring."""
    coeffs, q = linear.qb_coefficients(), linear.q_coefficients()
    d = linear.size
    if not linear.exact:
        one = np.zeros(len(q), complex)
        one[0] = 1
        return (coeffs.transpose(2, 1, 0)[::-1].reshape(d * d, -1),
                np.array([q, one]))
    den = math.lcm(*(c[0] for c in coeffs))
    zero = [0] * len(coeffs)
    parts = {}
    for i, (den_i, entries) in enumerate(coeffs):
        for l, s, re, im in entries:
            part = parts.setdefault((l, s), ([*zero], [*zero]))
            part[0][i], part[1][i] = re * (den // den_i), im * (den // den_i)
    qa = [_reduced_row(den, *parts.get((l, m.index(1)), (zero, zero)))
          for m in multiindices(d, 1) for l in range(d)]
    return qa, [q, (1, (1,), None)]


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
    the row store's ``magnitude``), in monomial order.  The differences
    are taken on the tables' rows.  The nonresonance check runs once, for
    both modes.
    """
    _require_nonresonance(nonlinear, order_max, resonance_tol)
    phi, h1 = _run_engine(nonlinear, order_max, "obstruction", tol)
    psi, h2 = _run_engine(nonlinear, order_max, "normal-form", tol)
    rows = _row_store(nonlinear.exact, nonlinear.size, order_max)
    diffs = {}
    for n in range(2, order_max + 1):
        rows.field(_E, n, psi.rows)
        rows.field(_H, n, phi.rows, rows.block(_E, n))
        for m, part in rows.table(rows.block(_H, n), n).items():
            diffs[m] = rows.magnitude(part)
    return ModeComparison(
        order_max=order_max,
        phi=phi,
        psi=psi,
        h_obstruction=h1,
        h_normal_form=h2,
        differences=dict(sorted(diffs.items())),
    )

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
p, built once from the power one lower in its last nonzero index.  Every
block has a fixed place in the store, order by order, that depends only
on d (``plans._layout``), and the store is laid out whole when a run
starts.  Order n follows a pair plan (``plans.py``): store rows (row,
row, target row) giving the new blocks P[p, n], which read h below order
n and land in the store in one write, then the terms of f - extra of
order n and, in the normal-form mode, the Jacobian product
[(d_w h) psi]_n.  A factor that is a w-part (w^(m - e_i) or w_i,
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
arrays (one gather per side, one strided row product per batch, one sum
per run of equal targets).  Exact mode runs the same pairs, skipping
empty rows, on integer rows: numerator tuples over one positive
denominator per row.  A product multiplies the denominators and
convolves the numerators in plain ints; a target sums them in one bucket
per denominator and reduces once, at the end, to the lcm of its buckets
over one gcd.

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
from .plans import (_C, _D, _E, _H, _R, _T, _count, _layout, _run_plans,
                    _verify_plans)
from .pnspace import (SeriesTable, _multiindices, _reduced_row, _term_poly,
                      devectorize, induced_system, vectorize)


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

# coefficients in one batch of row products (4 MB of complex128), counted
# as the longer side's padded window, the shorter side and the product,
# each x-lengths la + lb - 1, lb and la + lb - 1 a row (``_convolve``)
_BATCH = 1 << 18


class _Places:
    """The fixed places of a row store's blocks through ``order_max``
    (``plans._layout``), and which blocks have been written."""

    def __init__(self, d, order_max):
        self.d = d
        self.layout = _layout(d, order_max)
        self.added = np.zeros(int(self.layout.block[-1]) + 1, bool)
        self._ids = self.layout.ids.tolist()
        self._first = self.layout.first.tolist()

    def _place(self, kind, order):
        """Id and first store row of block (kind, order)."""
        return self._ids[order][kind], self._first[order][kind]


class _FloatRows(_Places):
    """Row store of complex128 rows, one per row of the layout, as long as
    the longest block written; a plan runs as one gather of each side, one
    strided row product per batch and one summation of each run of equal
    targets, a fixed number of numpy calls per batch whatever the
    x-lengths."""

    def __init__(self, d, order_max):
        super().__init__(d, order_max)
        self.length = [0] * self.added.size
        self.data = np.zeros((self.layout.block.size, 8), complex)

    def _fit(self, width):
        """Room for rows of x-length ``width``."""
        rows, cap = self.data.shape
        if width > cap:
            grown = np.zeros((rows, max(width, 2 * cap)), complex)
            grown[:, :cap] = self.data
            self.data = grown

    def add(self, kind, order, block):
        """Write ``block`` at the place of block (kind, order), trimmed to
        its last nonzero x-column; a block written again is cleared past
        its new length."""
        cols = np.flatnonzero(block.any(axis=0))
        width = int(cols[-1]) + 1 if cols.size else 0
        i, start = self._place(kind, order)
        self._fit(width)
        rows = self.data[start:start + len(block)]
        rows[:, :width] = block[:, :width]
        if self.length[i] > width:
            rows[:, width:self.length[i]] = 0
        self.length[i] = width
        self.added[i] = True

    def powers(self, order, new, blocks):
        """Write the power blocks P[p, order] of a power plan's output
        ``new``, (kind, start, stop) each in ``blocks``, in one write: they
        follow each other in ``new`` as in the layout.  Each is trimmed to
        its last nonzero x-column.  An order's power blocks are written
        once."""
        if not blocks:
            return
        i, start = self._place(blocks[0][0], order)
        self.added[i:i + len(blocks)] = True
        if not new.shape[1]:
            return
        nonzero = np.logical_or.reduceat(
            new != 0, [first for _, first, _ in blocks], axis=0)
        widths = nonzero.shape[1] - nonzero[:, ::-1].argmax(axis=1)
        widths[~nonzero.any(axis=1)] = 0
        self.length[i:i + len(blocks)] = lengths = widths.tolist()
        width = max(lengths)
        self._fit(width)
        keep = np.arange(width) < widths.repeat(
            [stop - first for _, first, stop in blocks])[:, None]
        np.copyto(self.data[start:start + len(new), :width], new[:, :width],
                  where=keep)

    def block(self, kind, order):
        """Rows of field block (kind, order), None if it was not added."""
        i, start = self._place(kind, order)
        if self.added[i]:
            return self.data[start:start + _count(self.d, order) * self.d,
                             :self.length[i]]

    def field(self, kind, order, terms, less=None):
        """Write order ``order`` of ``terms``, a SeriesTable's rows, less
        rows ``less``, as block (kind, order)."""
        d = self.d
        found = [terms.get(m) for m in _multiindices(d, order)]
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
        """Write the x-derivative of field block (source, order) as block
        (kind, order)."""
        block = self.block(source, order)[:, 1:]
        self.add(kind, order, block * np.arange(1, block.shape[1] + 1))

    def run(self, pairs):
        """(pairs.size, x-length) array of the summed products and copies.

        Each side is gathered only as long as its longest source block,
        the longer one into the padded window of ``_convolve``.  Products
        are taken in batches of whole runs of equal targets, about _BATCH
        coefficients of padded window, shorter side and product a batch,
        so that large plans stay in bounded memory.  Overflow is left to show as a
        non-finite coefficient, which the block solve reports; numpy's
        warnings about it are silenced here.
        """
        left, right, copy = pairs.a, pairs.b, pairs.c
        length = self.length
        la, lb, lc = (max([length[i] for i in ids], default=0)
                      for ids in pairs.blocks)
        out = np.zeros((pairs.size, max(la + lb - 1, lc, 0)), complex)
        if la < lb:
            left, la, right, lb = right, lb, left, la
        data, starts, count = self.data, pairs.starts, pairs.target.size
        with np.errstate(over="ignore", invalid="ignore"):
            if la and lb:
                step = _BATCH // (2 * la + 3 * lb - 2) + 1
                cuts = [0] if count <= step else np.unique(np.searchsorted(
                    starts, np.arange(0, count, step), side="right") - 1)
                for first, last in zip(cuts, list(cuts[1:]) + [None]):
                    runs = starts[first:last]
                    rows = slice(runs[0],
                                 count if last is None else starts[last])
                    prod = _convolve(data, left[rows], la, right[rows], lb)
                    if pairs.scale is not None:
                        prod *= pairs.scale[rows, None]
                    out[pairs.target[runs], :prod.shape[1]] = \
                        np.add.reduceat(prod, runs - runs[0], axis=0)
            if lc:
                out[pairs.c_target[pairs.c_starts], :lc] += np.add.reduceat(
                    data[copy, :lc], pairs.c_starts, axis=0)
        return out

    def table(self, out, order):
        """SeriesTable rows of the nonzero terms of an output with rows
        mu * d + i, each copied out and trimmed to its last nonzero
        x-column."""
        d = self.d
        monomials = _multiindices(d, order)
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


def _convolve(data, long, ll, short, ls):
    """Row-wise polynomial products of store rows ``long`` (x-length ll)
    and ``short`` (x-length 1 <= ls <= ll), as one strided product.

    The long rows a are gathered into one flat buffer, each row after
    ls - 1 zeros and the last one before ls - 1 more, so that
    win[r, j, k] = a[r, k - j] is a view of it with strides (row, -column,
    column), zero where k - j falls outside a[r].  Then out[r, k] = sum_j b[r, j]
    win[r, j, k] sums over j in ascending order, as adding a times one
    column of b at a time does.  An inf or nan in b also meets the
    padding zeros, so its product row is nan where that sum would have
    skipped them.
    """
    rows, width = len(long), ll + ls - 1
    pad = np.zeros(rows * width + ls - 1, complex)
    pad[:rows * width].reshape(rows, width)[:, ls - 1:] = data[long, :ll]
    step = pad.itemsize
    win = np.ndarray((rows, ls, width), complex, pad, (ls - 1) * step,
                     (width * step, -step, step))
    return np.einsum("rj,rjk->rk", data[short, :ls], win)


class _ExactRows(_Places):
    """Row store of integer rows, one per row of the layout: one row is
    (den, re, im), the numerator tuples ``re`` and ``im`` over one
    positive ``den``, with ``im`` None when every imaginary part is zero,
    and None when the row is empty; ``live`` marks the rows that are not.

    A plan's products multiply the denominators and convolve the numerators
    in plain ints, skipping pairs with an empty row; each target sums its
    products and copies in one bucket per denominator, and reduces once,
    when it is complete (``_reduce``).
    """

    def __init__(self, d, order_max):
        super().__init__(d, order_max)
        self.rows = [None] * self.layout.block.size
        self.live = np.zeros(self.layout.block.size, bool)

    def _put(self, start, block):
        """Write the rows ``block`` from store row ``start`` on."""
        self.rows[start:start + len(block)] = block
        self.live[start:start + len(block)] = np.fromiter(
            (r is not None for r in block), bool, len(block))

    def add(self, kind, order, block):
        i, start = self._place(kind, order)
        self._put(start, block)
        self.added[i] = True

    def powers(self, order, new, blocks):
        if blocks:
            i, start = self._place(blocks[0][0], order)
            self._put(start, new)
            self.added[i:i + len(blocks)] = True

    def block(self, kind, order):
        i, start = self._place(kind, order)
        if self.added[i]:
            return self.rows[start:start + _count(self.d, order) * self.d]

    def field(self, kind, order, terms, less=None):
        empty = (None,) * self.d
        block = []
        for m in _multiindices(self.d, order):
            block += terms.get(m, empty)
        if less is not None:
            block = list(map(_difference, block, less))
        self.add(kind, order, block)

    def derive(self, kind, order, source):
        self.add(kind, order, [*map(_derivative, self.block(source, order))])

    def run(self, pairs):
        """Integer rows of the summed products and copies, one per row."""
        rows, live = self.rows, self.live
        sums = [{} for _ in range(pairs.size)]
        left, right = pairs.a, pairs.b
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
        keep = live[pairs.c]
        for c, t in zip(pairs.c[keep].tolist(),
                        pairs.c_target[keep].tolist()):
            den, re, im = rows[c]
            acc_re, acc_im = sums[t].setdefault(den, ([], []))
            _add_into(acc_re, re)
            if im is not None:
                _add_into(acc_im, im)
        return [_reduce(buckets) for buckets in sums]

    def table(self, out, order):
        d = self.d
        return {m: rows for pos, m in enumerate(_multiindices(d, order))
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
    return (_ExactRows if exact else _FloatRows)(d, order_max)


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
        # order-n terms only after it, so a folded T[n - 1] is read again
        # here
        for k in range(max(2, n - 1) if fold else n, min(top, n) + 1):
            rows.field(_T, k, by_order.get(k, {}),
                       rows.block(_E, k) if fold else None)
        rows.powers(n, rows.run(power), blocks)
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
          for m in _multiindices(d, 1) for l in range(d)]
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

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

One loop composes the right-hand sides on one row store, in blocks of
coefficient rows: P[p, k] holds slice k of (w + h)^m for every m of order
p, built once from the power one lower in its last nonzero index.  Order
n follows a pair plan, built by index arithmetic once per (d, n, p_max)
and cached: triples (row, row, target row) giving the new blocks P[p, n],
which read h below order n, then the terms of f - extra of order n and,
in the normal-form mode, the Jacobian product [(d_w h) psi]_n.  A factor
that is a w-part (w^(m - e_i) or w_i, coefficient 1) makes its pair a row
copy.  The loop's caller adds h and the series to the store, order by
order: the engine writes back its block solves, which take and give rows
through ``vectorize`` / ``devectorize``, and makes its tables at the end;
``verify_conjugacy`` adds each order of its tables once, and runs one
more plan per order on the same store for the whole residual,
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

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .correction import solve_polynomial
from .exact import from_int
from .model import AssumptionError, check_nonlinear_assumption
from .pnspace import (_int_row, _scalars, devectorize, induced_system,
                      multiindices, vectorize)
from .poly import VecPoly, sp_trim
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
# pair plans: which coefficient rows multiply into which
# ----------------------------------------------------------------------

# A composition run keeps its x-polynomials as coefficient rows, appended
# block by block to one row store.  A field block (kind _T for the terms
# of f - extra, _E for the extra terms, _H for h) holds the order-k part
# of a vector field, row mu * d + i for the monomial at position mu of
# ``multiindices(d, k)`` and component i.  The power block P[q, k] (kind
# _H - 1 + q) holds slice k of (w + h)^m for every m of order q, row
# mu * N_q + m; P[1, k] is h's field block, its m read as the component.
# The verifier adds kind _D for the x-derivative of h's block, _R for the
# composed right-hand side, _C for the rows Q and 1 (order 0), and (QA)w
# as the extra block of order 1.
_T, _E, _D, _R, _C, _H = range(6)
# coefficients in one batch of row products (4 MB of complex128)
_BATCH = 1 << 18


def _count(d, k):
    return math.comb(k + d - 1, d - 1)


@functools.lru_cache(maxsize=None)
def _exponents(d, k):
    """(N_k, d) exponents of the order-k monomials, in ``multiindices``
    order."""
    return np.array(multiindices(d, k), dtype=np.intp).reshape(-1, d)


@functools.lru_cache(maxsize=None)
def _monomial_keys(d, top):
    """Weights of a base-(top + 1) key, keys of every monomial of order at
    most top in ascending order, and each one's position in its order."""
    weights = (top + 1) ** np.arange(d - 1, -1, -1, dtype=np.intp)
    keys = np.concatenate([_exponents(d, k) @ weights
                           for k in range(top + 1)])
    pos = np.concatenate([np.arange(_count(d, k)) for k in range(top + 1)])
    order = np.argsort(keys)
    return weights, keys[order], pos[order]


def _positions(d, top, exps):
    """Position of each row of ``exps`` (orders <= top) in its order."""
    weights, keys, pos = _monomial_keys(d, top)
    return pos[np.searchsorted(keys, exps @ weights)]


def _last_index(exps):
    """Index of the last nonzero entry of each row."""
    return exps.shape[1] - 1 - np.argmax(exps[:, ::-1] > 0, axis=1)


class _Pairs(NamedTuple):
    """Row products and row copies summing into ``size`` output rows.

    A row is named by three arrays (kind, order, row in its block).
    Product p adds ``scale[p]`` (1 if None) times the convolution of rows
    a_p and b_p to output row ``target[p]``; copy c adds row c to
    ``c_target[c]``.  Both are sorted by target; ``starts`` and
    ``c_starts`` open the runs of equal targets.
    """

    size: int
    a: tuple
    b: tuple
    scale: object
    target: np.ndarray
    starts: np.ndarray
    c: tuple
    c_target: np.ndarray
    c_starts: np.ndarray


def _stack(parts, width):
    """Concatenated columns of ``parts``, as int32 to halve cached plans."""
    if not parts:
        return [np.zeros(0, np.int32)] * width
    return [np.concatenate(col).astype(np.int32) for col in zip(*parts)]


def _sorted_runs(target):
    """Stable order by target, and where each run of one target starts."""
    order = np.argsort(target, kind="stable")
    t = target[order]
    return order, np.flatnonzero(np.concatenate(([t.size > 0],
                                                 t[1:] != t[:-1])))


def _make_pairs(size, products, copies):
    """_Pairs from parts (a_kind, a_order, a_row, b_kind, b_order, b_row,
    target, scale) and copy parts (kind, order, row, target)."""
    prod = _stack(products, 8)
    order, starts = _sorted_runs(prod[6])
    prod = [col[order] for col in prod]
    scale = None if np.all(prod[7] == 1) else prod[7]
    copy = _stack(copies, 4)
    c_order, c_starts = _sorted_runs(copy[3])
    copy = [col[c_order] for col in copy]
    return _Pairs(size, tuple(prod[:3]), tuple(prod[3:6]), scale, prod[6],
                  starts, tuple(copy[:3]), copy[3], c_starts)


def _full(value, like):
    return np.full(like.size, value, np.intp)


@functools.lru_cache(maxsize=None)
def _splits(d, n):
    """Every pair of monomials (mu_a, mu_b) of orders >= 1 summing to
    order n: the order of mu_a, the positions of mu_a, mu_b and the sum,
    and the exponents of mu_a and of the sum."""
    parts = []
    for b in range(1, n):
        ea, eb = _exponents(d, b), _exponents(d, n - b)
        ia = np.repeat(np.arange(len(ea)), len(eb))
        ib = np.tile(np.arange(len(eb)), len(ea))
        total = ea[ia] + eb[ib]
        parts.append((_full(b, ia), ia, ib, _positions(d, n, total), ea[ia],
                      total))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _power_pairs(d, n, top):
    """Pairs giving P[p, n] for p = 2 .. min(top, n - 1), stacked in p, and
    each block's (kind, start, stop) in the output.

    Slice n of (w + h)^m is the sum over b of slice b of (w + h)^(m - e_i)
    times slice n - b of (w + h)_i, i the last nonzero index of m.  Where
    one factor is its w-part, w^(m - e_i) at b = p - 1 or w_i at
    n - b = 1, it is a monomial with coefficient 1 and the pair copies the
    other factor's row.
    """
    ps = np.arange(2, min(top, n - 1) + 1)
    n_n = _count(d, n)
    sizes = np.array([_count(d, p) for p in ps], dtype=np.intp)
    stops = np.cumsum(sizes * n_n)
    blocks = [(_H - 1 + p, start, stop) for p, start, stop
              in zip(ps.tolist(), (stops - sizes * n_n).tolist(),
                     stops.tolist())]
    if not ps.size:
        return _make_pairs(0, [], []), blocks
    exps = np.concatenate([_exponents(d, p) for p in ps])
    q_r = np.repeat(ps - 1, sizes)
    m_r = np.concatenate([np.arange(s) for s in sizes])
    size_r = np.repeat(sizes, sizes)
    lower_size_r = np.repeat([_count(d, p - 1) for p in ps], sizes)
    base_r = np.repeat(stops - sizes * n_n, sizes)
    i_r = _last_index(exps)
    lower = exps.copy()
    lower[np.arange(len(lower)), i_r] -= 1
    lower_pos = _positions(d, n, lower)
    lower_row = np.where(q_r == 1, _last_index(lower), lower_pos)

    b, mu_a, mu_b, mu = _splits(d, n)[:4]
    j = n - b
    # w^(m - e_i) has only the row m - e_i, and w_i only the row e_i, which
    # sits at position d - 1 - i of the order-1 monomials
    keep = (b > q_r[:, None]) | ((b == q_r[:, None])
                                 & (mu_a == lower_pos[:, None]))
    keep &= (j > 1) | (mu_b == d - 1 - i_r[:, None])
    r, s = np.nonzero(keep)
    target = base_r[r] + mu[s] * size_r[r] + m_r[r]
    low = (_H - 1 + q_r[r], b[s], mu_a[s] * lower_size_r[r] + lower_row[r])
    unit = (_full(_H, r), j[s], mu_b[s] * d + i_r[r])
    copy_unit = b[s] == q_r[r]
    copy_low = j[s] == 1
    prod = ~(copy_unit | copy_low)
    products = [tuple(x[prod] for x in low + unit)
                + (target[prod], _full(1, target[prod]))]
    copies = [tuple(x[copy_unit] for x in unit) + (target[copy_unit],),
              tuple(x[copy_low] for x in low) + (target[copy_low],)]
    return _make_pairs(int(stops[-1]), products, copies), blocks


def _term_pairs(d, n, top):
    """Parts giving [sum_m T_m (w + h)^m]_n, rows mu * d + i, from T[p] and
    P[p, n] for p <= min(top, n); at p = n, (w + h)^m starts with w^m."""
    n_n = _count(d, n)
    ps = np.arange(2, min(top, n - 1) + 1)
    sizes = np.array([_count(d, p) for p in ps], dtype=np.intp)
    # one pair per (term monomial m of order p, component i, mu)
    p_r = np.repeat(np.repeat(ps, sizes), d * n_n)
    m = np.repeat(np.concatenate([np.arange(s) for s in sizes] or [[]]),
                  d * n_n).astype(np.intp)
    i = np.tile(np.repeat(np.arange(d), n_n), int(sizes.sum()))
    mu = np.tile(np.arange(n_n), int(sizes.sum()) * d)
    products = [(_full(_T, m), p_r, m * d + i, _H - 1 + p_r, _full(n, m),
                 mu * np.repeat(np.repeat(sizes, sizes), d * n_n) + m,
                 mu * d + i, _full(1, m))]
    copies = []
    if n <= top:
        rows = np.arange(n_n * d)
        copies.append((_full(_T, rows), _full(n, rows), rows, rows))
    return products, copies


@functools.lru_cache(maxsize=None)
def _jacobian_pairs(d, n, low, high, sign):
    """Parts giving sign * [(d_w h) V]_n from h's blocks (kind _H) of orders
    a = low .. high and V's blocks (kind _E) of orders n + 1 - a: h_m w^m
    times V_l at w^v lands on m - e_l + v with factor m_l."""
    a, mu_a, mu_v, _, ea, total = _splits(d, n + 1)
    s, l = np.nonzero(ea * ((a >= low) & (a <= high))[:, None])
    target = total[s]
    target[np.arange(s.size), l] -= 1
    target = np.repeat(_positions(d, n, target) * d, d)
    s, l = np.repeat(s, d), np.repeat(l, d)
    i = np.tile(np.arange(d), s.size // d)
    return (_full(_H, s), a[s], mu_a[s] * d + i, _full(_E, s),
            n + 1 - a[s], mu_v[s] * d + l, target + i, sign * ea[s, l])


@functools.lru_cache(maxsize=None)
def _order_plan(d, n, top, jacobian):
    """The pair plan of order n, shared by both rings: the pairs of the new
    power blocks with their places, then those of the right-hand side
    [sum_m T_m (w + h)^m]_n, less [(d_w h) E]_n if ``jacobian``."""
    power, blocks = _power_pairs(d, n, top)
    products, copies = _term_pairs(d, n, top)
    if jacobian:
        products.append(_jacobian_pairs(d, n, 2, n - 1, -1))
    return power, blocks, _make_pairs(_count(d, n) * d, products, copies)


@functools.lru_cache(maxsize=None)
def _verify_pairs(d, n, normal):
    """Pairs giving the order-n residual of the conjugacy identity,
    Q d_x h + (d_w h)(QA)w - (QA)h - rhs, plus the series block if
    ``normal``, from the verifier's blocks: h's (kind _H), its x-derivative
    (_D), the composed right-hand side (_R), (QA)w (_E, order 1), the
    series (_E, order n) and the rows Q and 1 (_C, order 0)."""
    rows = np.arange(_count(d, n) * d)
    # target mu * d + i gets -(QA)_il times h_l; (QA)_il is component i of
    # (QA)w at w_l, which sits at position d - 1 - l of the order-1
    # monomials
    target = np.repeat(rows, d)
    mu, i = np.divmod(target, d)
    l = np.tile(np.arange(d), rows.size)
    qa_h = (_full(_H, target), _full(n, target), mu * d + l,
            _full(_E, target), _full(1, target), (d - 1 - l) * d + i,
            target, _full(-1, target))
    q_dh = (_full(_D, rows), _full(n, rows), rows, _full(_C, rows),
            _full(0, rows), _full(0, rows), rows, _full(1, rows))
    rhs = (_full(_R, rows), _full(n, rows), rows, _full(_C, rows),
           _full(0, rows), _full(1, rows), rows, _full(-1, rows))
    copies = [(_full(_E, rows), _full(n, rows), rows, rows)] if normal else []
    return _make_pairs(rows.size, [_jacobian_pairs(d, n, n, n, 1), qa_h, q_dh,
                                   rhs], copies)


# ----------------------------------------------------------------------
# the two executors of a plan
# ----------------------------------------------------------------------


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
        """Append order ``order`` of table ``terms``, less rows ``less``."""
        d = self.d
        polys = [terms.get(m) for m in multiindices(d, order)]
        width = max([len(p.coeffs) for p in polys if p is not None]
                    + [0 if less is None else less.shape[1]])
        block = np.zeros((len(polys) * d, width), complex)
        for pos, p in enumerate(polys):
            if p is not None and p.coeffs:
                block[pos * d:pos * d + d, :len(p.coeffs)] = \
                    np.array(p.coeffs).T
        if less is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                block[:, :less.shape[1]] -= less
        self.add(kind, order, block)

    def polys(self, kind, order, polys):
        """Append one row per scalar polynomial (tuple of coefficients)."""
        block = np.zeros((len(polys), max(map(len, polys))), complex)
        for r, p in enumerate(polys):
            block[r, :len(p)] = p
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
        """{monomial: VecPoly} of an output with rows mu * d + i."""
        d = self.d
        monomials = multiindices(d, order)
        if not out.shape[1]:
            return {}
        blocks = out.reshape(len(monomials), d, out.shape[1])
        nonzero = blocks.any(axis=1)
        lengths = out.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
        return {
            monomials[pos]: VecPoly(d, tuple(map(
                tuple, blocks[pos, :, :lengths[pos]].T.tolist())), False)
            for pos in np.flatnonzero(nonzero.any(axis=1)).tolist()
        }

    def magnitude(self, out, order):
        """Largest absolute coefficient of an output (see ``_magnitude``)."""
        return min(float(np.abs(out).max(initial=0.0)), sys.float_info.max)


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
        d = self.d
        block = []
        for m in multiindices(d, order):
            p = terms.get(m)
            block += ([_int_row(p.component(i)) for i in range(d)]
                      if p is not None else [None] * d)
        if less is not None:
            block = list(map(_difference, block, less))
        self.add(kind, order, block)

    def polys(self, kind, order, polys):
        self.add(kind, order, [_int_row(sp_trim(p)) for p in polys])

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
        return {
            m: VecPoly.from_components(
                [_scalars(r) for r in out[pos * d:pos * d + d]], True)
            for pos, m in enumerate(multiindices(d, order))
            if any(r is not None for r in out[pos * d:pos * d + d])
        }

    def magnitude(self, out, order):
        if all(r is None for r in out):
            return 0.0
        return max(map(_magnitude, self.table(out, order).values()))


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
    n = width
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    if not n:
        return None
    g = math.gcd(den, *re[:n], *im[:n])
    return (den // g, tuple(v // g for v in re[:n]),
            tuple(v // g for v in im[:n]) if any(im) else None)


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
    rows = _row_store(h_table.exact, h_table.dim, order_max)
    parts = _compose_rows(f_terms, rows, order_max, mode, extra is not None)
    for n in range(2, order_max + 1):
        if n > 2:
            rows.field(_H, n - 1, h_table.terms)
        for k in range(max(2, n - 1), n + 1) if extra is not None else ():
            rows.field(_E, k, extra.terms)
        yield rows.table(next(parts), n)


def _compose_rows(f_terms, rows, order_max, mode, extra):
    """``compose_series`` on ``rows``, yielding output rows.  Before order n
    the caller adds the order-(n - 1) blocks of h and, if ``extra``, of
    extra; an obstruction part also subtracts an extra block of order n."""
    by_order = {}
    for m, p in f_terms.items():
        if sum(m) < 2:
            raise ValueError(f"term {m} of f has order below 2")
        by_order.setdefault(sum(m), {})[m] = p
    fold = mode == "obstruction" and extra
    jacobian = mode == "normal-form" and extra
    # highest order of a term of f - extra, and so of a power in the table
    top = order_max if fold else min(max(by_order, default=0), order_max)
    for n in range(2, order_max + 1):
        # T[n] enters order n only through w^m; the engine knows extra's
        # order-n terms only after it, so T[n - 1] is read again here
        for k in range(max(2, n - 1), min(top, n) + 1):
            rows.field(_T, k, by_order.get(k, {}),
                       rows.block(_E, k) if fold else None)
        power, blocks, rhs = _order_plan(rows.d, n, min(top, n), jacobian)
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
    d, exact = nonlinear.size, nonlinear.exact
    rows = _row_store(exact, d, order_max)
    parts = _compose_rows(nonlinear.nonlinearity, rows, order_max, mode, True)
    for n, g in enumerate(parts, start=2):
        custom = None if basis_factory is None else basis_factory(d, n)
        block, basis = induced_system(nonlinear.linear, n, basis=custom)
        result = solve_polynomial(block, vectorize(g, basis, exact), tol)
        rows.add(_E, n, devectorize(result.phi, basis, exact))
        rows.add(_H, n, devectorize(result.y, basis, exact))
    return tuple(SeriesTable(d, exact, {
        m: p for n in range(2, order_max + 1)
        for m, p in rows.table(rows.block(kind, n), n).items()})
        for kind in (_E, _H))


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
    difference is exactly zero.  A term of order below 2 in ``series`` or
    ``h`` raises ValueError; terms above ``order_max`` are not read.
    """
    if mode not in ("obstruction", "normal-form"):
        raise ValueError(f"unknown mode {mode!r}")
    for name, table in (("series", series), ("h", h)):
        for m in table.terms:
            if sum(m) < 2:
                raise ValueError(f"term {m} of {name} has order below 2")
    linear = nonlinear.linear
    d, exact = nonlinear.size, nonlinear.exact
    qa = linear.qb_poly()
    normal = mode == "normal-form"

    report = ConjugacyReport(mode=mode, tol=0.0 if exact else tol)
    rows = _row_store(exact, d, order_max)
    # (QA) w as a field block: column s of QA at the monomial w_s
    rows.polys(_E, 1, [qa.entry(l, m.index(1))
                       for m in multiindices(d, 1) for l in range(d)])
    rows.polys(_C, 0, [linear.q_poly(), (from_int(1, exact),)])
    for n in range(2, order_max + 1):
        rows.field(_E, n, series.terms)
    parts = _compose_rows(nonlinear.nonlinearity, rows, order_max, mode, True)
    for n, rhs in enumerate(parts, start=2):
        rows.field(_H, n, h.terms)
        rows.derive(_D, n, _H)
        rows.add(_R, n, rhs)
        report.residuals[n] = rows.magnitude(
            rows.run(_verify_pairs(d, n, normal)), n)
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

"""Pair plans: which coefficient rows the engine multiplies into which.

The engine composes the right-hand sides of one order at a time on one row
store (``engine.py``): blocks of coefficient rows, each named by a kind,
an order and a row.  A pair plan lists, for each output row, the row
products and row copies that sum into it (``_Pairs``).  Which rows those
are depends only on the monomials involved, so a plan depends only on
(d, n, top, mode): it is index arithmetic on monomial exponents
(``pnspace._monomials``, ``pnspace._positions``), with no ring.

A run asks for the plans of all its orders at once (``_run_plans``,
``_verify_plans``).  Those not built yet in the process are built
together, in one pass of array operations, and kept in ``_PLANS`` for the
rest of the process, so a later run to the same or a lower order builds
none; nothing is built at import.  A power plan is built at full top only;
a lower top reads its prefix (``_lower_top_powers``).  The power pairs are
enumerated as ranges of a split table, with no cross product of rows and
splits; the right-hand side and the verifier expand a table of entries per
target monomial over its d components.  Every plan lists its pairs by
target, and each target's pairs in one fixed order, which the frozen plan
digests of ``tests/test_engine.py`` pin: float sums follow it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .pnspace import _monomials, _positions


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
# every plan built in this process, by ("power", d, n, top) (a prefix of
# top n's), ("rhs", d, n, top, jacobian) and ("verify", d, n, normal)
_PLANS = {}


def _count(d, k):
    return math.comb(k + d - 1, d - 1)


def _last_index(exps):
    """Index of the last nonzero entry of each row."""
    return exps.shape[1] - 1 - np.argmax(exps[:, ::-1] > 0, axis=1)


class _Pairs(NamedTuple):
    """Row products and row copies summing into ``size`` output rows.

    A row is named by three arrays (kind, order, row in its block).
    Product p adds ``scale[p]`` (1 if None) times the convolution of rows
    a_p and b_p to output row ``target[p]``; copy c adds row c to
    ``c_target[c]``.  Both are sorted by target; ``starts`` and
    ``c_starts`` open the runs of equal targets.  The other columns are
    int32, to halve cached plans.
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


def _ranges(starts, counts):
    """The ranges [starts[k], starts[k] + counts[k]) one after another, as
    int32, and the k of each entry."""
    counts = np.asarray(counts)
    k = np.arange(counts.size, dtype=np.int32).repeat(counts)
    shift = np.asarray(starts - (counts.cumsum() - counts), np.int32)
    return np.arange(k.size, dtype=np.int32) + shift[k], k


def _table(size, *cols):
    """(len(cols), size) int32 table, one row per column of ``cols``; a
    scalar fills its row."""
    table = np.empty((len(cols), size), np.int32)
    for j, col in enumerate(cols):
        table[j] = col
    return table


def _plans(sizes, prod, cut, copy, c_cut):
    """One _Pairs per plan of ``sizes[j]`` targets, from a table of the
    products, rows (a's three, b's three, target[, scale]), and one of the
    copies (kind, order, row, target), both listed target by target, with
    their ``_cut``.  The plans' arrays are views of the tables."""
    cuts, starts = cut
    c_cuts, c_starts = c_cut
    scaled = [False] * len(sizes)
    if len(prod) > 7:
        ones = np.concatenate(([0], (prod[7] != 1).cumsum()))[cuts].tolist()
        scaled = [a < b for a, b in zip(ones, ones[1:])]
    for j, size in enumerate(sizes):
        a0, a1, a2, b0, b1, b2, target, *scale = prod[:, cuts[j]:cuts[j + 1]]
        c0, c1, c2, c_target = copy[:, c_cuts[j]:c_cuts[j + 1]]
        yield _Pairs(size, (a0, a1, a2), (b0, b1, b2),
                     scale[0] if scaled[j] else None, target, starts[j],
                     (c0, c1, c2), c_target, c_starts[j])


def _cut(sizes, counts):
    """Where each plan's entries begin (the total last), and where its
    runs of one target start, for entries listed target by target,
    ``counts[t]`` for target t."""
    counts = np.asarray(counts)
    ends = counts.cumsum()
    t_cuts = np.array([0, *sizes]).cumsum()
    cuts = np.concatenate(([0], ends))[t_cuts]
    live = counts.nonzero()[0]
    l_cuts = live.searchsorted(t_cuts)
    firsts = (ends - counts)[live] - cuts[:-1].repeat(l_cuts[1:] - l_cuts[:-1])
    l_cuts = l_cuts.tolist()
    return cuts.tolist(), [firsts[l0:l1] for l0, l1 in zip(l_cuts,
                                                          l_cuts[1:])]


def _splits(d, top, n, b):
    """Every product mu_a mu_b of an order-b and an order-(n - b)
    monomial, for each pair (n[k], b[k]) in turn, mu_a major: k, the
    positions of mu_a and mu_b, and the exponents of mu_a and of the
    product."""
    exps, off, count = _monomials(d, top)
    right = count[n - b]
    local, k = _ranges(0, count[b] * right)
    ia, ib = np.divmod(local, right[k])
    ea = exps[off[b][k] + ia]
    return k, ia, ib, ea, ea + exps[off[n - b][k] + ib]


def _groups(d, orders):
    """Position and order of every monomial of each order in ``orders``,
    one order after another."""
    nu, j = _ranges(0, _monomials(d, max(orders))[2][orders])
    return nu, np.asarray(orders, np.int32)[j]


def _cached(keys, build):
    """The plans of ``keys``.  When some are not built yet, one call of
    ``build`` on their orders (key[2]) gives them by key, with any others
    it builds alongside, and all are kept."""
    missing = [key[2] for key in keys if key not in _PLANS]
    if missing:
        _PLANS.update(build(missing))
    return [_PLANS[key] for key in keys]


def _run_plans(d, order_max, top, jacobian):
    """The plans of a composition run to ``order_max``, shared by both
    rings.  For each order n = 2 .. order_max, with top min(top, n): the
    pairs of the new power blocks with their places, then those of the
    right-hand side [sum_m T_m (w + h)^m]_n, less [(d_w h) E]_n if
    ``jacobian``."""
    orders = range(2, order_max + 1)
    power = _cached([("power", d, n, min(top, n)) for n in orders],
                    lambda ns: _lower_top_powers(d, ns, top))
    rhs = _cached([("rhs", d, n, min(top, n), jacobian) for n in orders],
                  lambda ns: {("rhs", d, n, min(top, n), jacobian): plan
                              for n, plan in zip(ns, _rhs_plans(
                                  d, ns, top, jacobian))})
    return [(*pb, r) for pb, r in zip(power, rhs)]


def _lower_top_powers(d, orders, top):
    """Power plans of ``orders`` at ``top``, by key, each a prefix of the
    order's plan at full top n (built first where missing), made of views:
    its blocks p <= top come first and its pairs run by target."""
    full = _cached([("power", d, n, n) for n in orders],
                   lambda ns: {("power", d, n, n): plan for n, plan
                               in zip(ns, _power_plans(d, ns))})
    plans = {}
    for n, (pairs, blocks) in zip(orders, full):
        if top < n - 1:
            blocks = blocks[:max(top - 1, 0)]
            size = blocks[-1][2] if blocks else 0
            cut = int(pairs.target.searchsorted(size))
            c_cut = int(pairs.c_target.searchsorted(size))
            pairs = _Pairs(
                size, tuple(a[:cut] for a in pairs.a),
                tuple(b[:cut] for b in pairs.b), None, pairs.target[:cut],
                pairs.starts[:pairs.starts.searchsorted(cut)],
                tuple(c[:c_cut] for c in pairs.c), pairs.c_target[:c_cut],
                pairs.c_starts[:pairs.c_starts.searchsorted(c_cut)])
        plans["power", d, n, min(top, n)] = pairs, blocks
    return plans


def _verify_plans(d, order_max, normal):
    """The verifier's plan of each order n = 2 .. order_max.  Both modes'
    plans are built together: they share their products."""
    return _cached([("verify", d, n, normal)
                    for n in range(2, order_max + 1)],
                   lambda ns: {("verify", d, n, mode): plan
                               for n, plans in zip(ns, _residual_plans(d, ns))
                               for mode, plan in zip((False, True), plans)})


def _power_plans(d, orders):
    """(pairs, blocks) giving the power blocks P[p, n] for p = 2 .. n - 1,
    stacked in p, for each n in ``orders``; a block is (kind, start, stop)
    in the output.

    Row mu of slice n of (w + h)^m sums, over the splits mu = mu_a + mu_b
    with mu_a of order b, row mu_a of slice b of (w + h)^(m - e_i) times
    row mu_b of slice n - b of (w + h)_i, i the last nonzero index of m.
    With q = |m| - 1, slice q of (w + h)^(m - e_i) is w^(m - e_i) and
    slice 1 of (w + h)_i is w_i, monomials with coefficient 1.  So target
    (p, mu, m) takes
    * at b = q, a copy of row mu - m + e_i of h's order-(n - q) block;
    * at q < b < n - 1, the product of each split of mu, a range of the
      split table ordered by (mu, b);
    * at b = n - 1, a copy of row mu - e_i of P[q, n - 1],
    each copy where its row is a monomial.  Targets run in order, row
    mu * N_p + m of block p, each taking its pairs in the order above.
    """
    top_n = max(orders) + 1
    exps, off, count = _monomials(d, top_n)
    blocks, segments = [], []
    for n in orders:
        blocks.append([])
        stop = 0
        for p in range(2, n):
            start, stop = stop, stop + _count(d, p) * _count(d, n)
            blocks[-1].append((_H - 1 + p, start, stop))
            segments.append((n, p, start))
    seg_n, seg_p, seg_start = np.array(segments, np.int32).reshape(-1, 3).T
    local, t = _ranges(0, count[seg_n] * count[seg_p])
    n, p = seg_n[t], seg_p[t]
    q = p - 1
    mu, m = np.divmod(local, count[p])
    target = seg_start[t] + local
    at = np.arange(t.size)
    lower = exps[off[p] + m]          # m, then m - e_i
    i = _last_index(lower).astype(np.int32)
    lower[at, i] -= 1
    lower_row = np.where(q == 1, _last_index(lower),
                         _positions(d, top_n, lower)).astype(np.int32)
    # products: the splits of mu with q < b < n - 1, grouped by mu
    split_n, split_b = np.array([(k, b) for k in orders
                                 for b in range(2, k - 1)],
                                np.int32).reshape(-1, 2).T
    k, ia, ib, _, total = _splits(d, top_n, split_n, split_b)
    group = off[split_n[k]] + _positions(d, top_n, total)
    by_mu = np.argsort(group, kind="stable")
    b, ia, ib = split_b[k][by_mu], ia[by_mu], ib[by_mu]
    key = group[by_mu].astype(np.intp) * (top_n + 1) + b
    first = (off[n] + mu).astype(np.intp) * (top_n + 1)
    lo = np.searchsorted(key, first + q, side="right")
    counts = np.searchsorted(key, first + n - 1) - lo
    s, r = _ranges(lo, counts)
    b = b[s]
    prod = _table(s.size, _H - 1 + q[r], b, ia[s] * count[q][r] + lower_row[r],
                  _H, n[r] - b, ib[s] * d + i[r], target[r])
    # copies: at b = q, then at b = n - 1
    ends = exps[off[n] + mu][:, None] - np.stack((lower, np.eye(
        d, dtype=lower.dtype)[i]), 1)
    valid = (ends >= 0).all(axis=2)
    rows = _positions(d, top_n, np.maximum(ends, 0).reshape(-1, d))
    copy = np.empty((4, t.size, 2), np.int32)
    copy[0, :, 0] = _H
    copy[0, :, 1] = _H - 1 + q
    copy[1, :, 0] = n - q
    copy[1, :, 1] = n - 1
    copy[2, :, 0] = rows[::2] * d + i
    copy[2, :, 1] = rows[1::2] * count[q] + lower_row
    copy[3] = target[:, None]
    sizes = [own[-1][2] if own else 0 for own in blocks]
    return list(zip(_plans(sizes, prod, _cut(sizes, counts), copy[:, valid],
                           _cut(sizes, valid.sum(axis=1))), blocks))


def _rhs_plans(d, orders, top, jacobian):
    """Pairs giving [sum_m T_m (w + h)^m]_n, rows mu * d + i, less
    [(d_w h) E]_n if ``jacobian``, for each n in ``orders``.  Row
    nu * d + i takes row i of T_m times row nu * N_p + m of P[p, n], for
    each m of order p = 2 .. min(top, n - 1) in turn, then the Jacobian
    pairs; T[n] enters by w^m alone, as a copy, when n <= top."""
    _, off, count = _monomials(d, max(orders) + 1)
    nu, n = _groups(d, orders)
    g, group = _ranges(off[2], off[np.maximum(np.minimum(top, n - 1), 1) + 1]
                       - off[2])
    p = (np.searchsorted(off, g, side="right") - 1).astype(np.int32)
    m = g - off[p]
    parts = [_table(g.size, _T, p, m * d, _H - 1 + p, n[group],
                    nu[group] * count[p] + m, group, 1)]
    if jacobian:
        parts.append(_jacobian_part(d, orders, [(k, a) for k in orders
                                                for a in range(2, k)], -1))
    plans, = _component_plans(d, orders, parts, [False] * len(parts), _T,
                              [[k <= top for k in orders]])
    return plans


def _residual_plans(d, orders):
    """Pairs giving the order-n residual of the conjugacy identity, for
    each n in ``orders``, in the obstruction and the normal-form mode:
    Q d_x h + (d_w h)(QA)w - (QA)h - rhs, plus the series block in the
    normal-form mode, from the verifier's blocks: h's (kind _H), its
    x-derivative (_D), the composed right-hand side (_R), (QA)w (_E, order
    1), the series (_E, order n) and the rows Q and 1 (_C, order 0).  Row
    nu * d + i takes, in order, the Jacobian pairs of (QA)w, -(QA)_il
    times h_l for each l ((QA)_il is component i of (QA)w at w_l, which
    sits at position d - 1 - l of the order-1 monomials), Q d_x h and
    -rhs."""
    nu, n = _groups(d, orders)
    group = np.arange(nu.size)
    by_l, l = np.divmod(np.arange(nu.size * d), d)
    parts = [_jacobian_part(d, orders, [(k, k) for k in orders], 1),
             _table(l.size, _H, n[by_l], nu[by_l] * d + l, _E, 1,
                    (d - 1 - l) * d, by_l, -1),
             _table(nu.size, _D, n, nu * d, _C, 0, 0, group, 1),
             _table(nu.size, _R, n, nu * d, _C, 0, 1, group, -1)]
    return zip(*_component_plans(d, orders, parts, [False, True, False, False],
                                 _E, [[False] * len(orders),
                                      [True] * len(orders)]))


def _jacobian_part(d, orders, splits, sign):
    """Entries giving sign * [(d_w h) V]_n from h's blocks (kind _H) of
    orders a and V's blocks (kind _E) of orders n + 1 - a, for each (n, a)
    in ``splits``: h_m w^m times V_l at w^v lands on m - e_l + v with
    factor m_l.  They run by split, then by l."""
    first = np.zeros(max(orders) + 1, np.int32)
    first[list(orders)] = np.cumsum([0] + [_count(d, k) for k in orders])[:-1]
    n, a = np.array(splits, np.int32).reshape(-1, 2).T
    k, ia, ib, ea, total = _splits(d, max(orders) + 1, n + 1, a)
    s, l = np.nonzero(ea)
    total = total[s]
    total[np.arange(s.size), l] -= 1
    n, a = n[k[s]], a[k[s]]
    return _table(s.size, _H, a, ia[s] * d, _E, n + 1 - a, ib[s] * d + l,
                  first[n] + _positions(d, max(orders) + 1, total),
                  sign * ea[s, l])


def _component_plans(d, orders, parts, on_b, copy_kind, copied):
    """One _Pairs per n in ``orders`` and variant of ``copied``, whose
    targets are the rows nu * d + i of the order-n monomials nu.

    A part is a table of entries (a's kind, order and x, b's kind, order
    and x, group, scale): group is the index of the target monomial among
    those of all ``orders`` in turn (``_groups``).  Every component i of
    that monomial takes the pair (a, b) of each of its entries, part by
    part in the order given, with i added to the x of a, or of b where
    ``on_b`` holds for the part.  Where a variant's flag for order n
    holds, its plan also copies block (copy_kind, n) row by row; the
    variants share their products.
    """
    sizes = [_count(d, n) * d for n in orders]
    entries = np.concatenate(parts, axis=1)
    counts = np.bincount(entries[6], minlength=sum(sizes) // d)
    by_target = np.repeat(np.arange(counts.size), d)
    e, t = _ranges((np.cumsum(counts) - counts)[by_target],
                   counts[by_target])
    e = np.argsort(entries[6], kind="stable")[e]
    prod = entries[:7 if np.all(entries[7] == 1) else 8, e]
    i = t % d
    if any(on_b):
        b_side = np.repeat(on_b, [part.shape[1] for part in parts])[e]
        prod[5] += np.where(b_side, i, 0)
        i = np.where(b_side, 0, i)
    prod[2] += i
    rows = np.concatenate([np.arange(size, dtype=np.int32) for size in sizes])
    prod[6] = rows[t]
    cut = _cut(sizes, counts[by_target])
    plans = []
    for flags in copied:
        has = np.repeat(flags, sizes)
        copy = _table(int(has.sum()), copy_kind,
                      np.repeat(np.asarray(orders, np.int32), sizes)[has],
                      rows[has], rows[has])
        plans.append(_plans(sizes, prod, cut, copy, _cut(sizes, has)))
    return plans

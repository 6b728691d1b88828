"""Pair plans: which coefficient rows the engine multiplies into which.

The engine composes the right-hand sides of one order at a time on one row
store (``engine.py``): blocks of coefficient rows, each named by a kind
and an order, at fixed places of a layout that depends only on d
(``_layout``).  A pair plan lists, for each output row, the products and
copies of store rows that sum into it (``_Pairs``).  Which rows those are
depends only on the monomials involved, so a plan depends only on (d, n,
top, mode): it is index arithmetic on monomial exponents
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

import functools
import math
from typing import NamedTuple

import numpy as np

from .pnspace import _monomials, _positions


# A composition run keeps its x-polynomials as coefficient rows in one row
# store, in blocks.  A field block (kind _T for the terms of f - extra, _E
# for the extra terms, _H for h) holds the order-k part of a vector field,
# row mu * d + i for the monomial at position mu of ``multiindices(d, k)``
# and component i.  The power block P[q, k] (kind _H - 1 + q) holds slice
# k of (w + h)^m for every m of order q, row mu * N_q + m; P[1, k] is h's
# field block, its m read as the component.  The verifier adds kind _D for
# the x-derivative of h's block, _R for the composed right-hand side, _C
# for the rows Q and 1 (order 0), and (QA)w as the extra block of order 1.
_T, _E, _D, _R, _C, _H = range(6)
# every plan built in this process, by ("power", d, n, top) (a prefix of
# top n's), ("rhs", d, n, top, jacobian) and ("verify", d, n, normal)
_PLANS = {}


def _count(d, k):
    return math.comb(k + d - 1, d - 1)


def _last_index(exps):
    """Index of the last nonzero entry of each row."""
    return exps.shape[1] - 1 - np.argmax(exps[:, ::-1] > 0, axis=1)


class _Layout(NamedTuple):
    """The row store's blocks through one order, in layout order; a block
    is named by its index in that order, its id."""

    ids: np.ndarray     # id of block (kind, k) at [k, kind], -1: none
    first: np.ndarray   # its first store row at [k, kind], -1: none
    block: np.ndarray   # the id of each store row's block


@functools.lru_cache(maxsize=None)
def _layout(d, top):
    """Fixed places of the row store's blocks of orders 0 .. ``top``.

    Order by order, each order k takes the six field blocks (kinds _T to
    _H) of N_k * d rows, then P[p, k] for p = 2 .. k - 1, N_p * N_k rows
    each; order 0's field blocks take two rows at d = 1, for Q and 1.  A
    block's place does not depend on ``top``: the layout through a lower
    order is a prefix of this one.
    """
    ids = np.full((top + 1, _H + max(top, 2) - 1), -1, np.intp)
    sizes = []
    for k in range(top + 1):
        count = _count(d, k)
        field = count * d if k else max(d, 2)
        kinds = _H + 1 + max(k - 2, 0)
        ids[k, :kinds] = np.arange(len(sizes), len(sizes) + kinds)
        sizes += [field] * (_H + 1) + [_count(d, p) * count
                                       for p in range(2, k)]
    sizes = np.array(sizes)
    first = np.where(ids >= 0, (sizes.cumsum() - sizes)[ids], -1)
    return _Layout(ids, first, np.repeat(
        np.arange(sizes.size, dtype=np.int32), sizes))


class _Pairs(NamedTuple):
    """Row products and row copies summing into ``size`` output rows.

    A row is named by its store row (``_layout``).  Product p adds
    ``scale[p]`` (1 if None) times the convolution of store rows a[p] and
    b[p] to output row ``target[p]``; copy q adds store row c[q] to
    ``c_target[q]``.  Both are sorted by target; ``starts`` and
    ``c_starts`` open the runs of equal targets.  ``blocks`` lists the
    ids of the distinct blocks a, b and c read, in turn, from which a
    float run takes each side's x-length.  The other columns are int32,
    to halve cached plans.
    """

    size: int
    a: np.ndarray
    b: np.ndarray
    scale: object
    target: np.ndarray
    starts: np.ndarray
    c: np.ndarray
    c_target: np.ndarray
    c_starts: np.ndarray
    blocks: tuple


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


def _plans(block, sizes, prod, cut, copy, c_cut):
    """One _Pairs per plan of ``sizes[j]`` targets, from a table of the
    products, rows (a, b, target[, scale]), and one of the copies (c,
    target), both listed target by target, with their ``_cut``; a and b
    and c are store rows, whose blocks ``block`` gives.  The plans' arrays
    are views of the tables."""
    cuts, starts = cut
    c_cuts, c_starts = c_cut
    scaled = [False] * len(sizes)
    if len(prod) > 3:
        ones = np.concatenate(([0], (prod[3] != 1).cumsum()))[cuts].tolist()
        scaled = [a < b for a, b in zip(ones, ones[1:])]
    read = _read(block, ((prod[0], cuts), (prod[1], cuts), (copy[0], c_cuts)))
    for j, (size, ids) in enumerate(zip(sizes, read)):
        a, b, target, *scale = prod[:, cuts[j]:cuts[j + 1]]
        c, c_target = copy[:, c_cuts[j]:c_cuts[j + 1]]
        yield _Pairs(size, a, b, scale[0] if scaled[j] else None, target,
                     starts[j], c, c_target, c_starts[j], ids)


def _read(block, sides):
    """For each plan j, the ids of the distinct blocks each of ``sides``
    reads, as a tuple of ascending lists.  A side is (rows, cuts): its
    store rows plan by plan, plan j's at rows[cuts[j]:cuts[j + 1]]."""
    plans, width = len(sides[0][1]) - 1, int(block[-1]) + 1
    seen = np.zeros(len(sides) * plans * width, bool)
    for k, (rows, cuts) in enumerate(sides):
        seen[block.take(rows) + np.arange(
            k * plans * width, (k + 1) * plans * width, width).repeat(
                np.diff(cuts))] = True
    found = np.flatnonzero(seen)
    bounds = found.searchsorted(np.arange(0, seen.size + 1, width)).tolist()
    ids = (found % width).tolist()
    lists = [ids[i:j] for i, j in zip(bounds, bounds[1:])]
    return [tuple(lists[j::plans]) for j in range(plans)]


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
    plans, cut = {}, []
    for n, (pairs, blocks) in zip(orders, full):
        if top < n - 1:
            blocks = blocks[:max(top - 1, 0)]
            size = blocks[-1][2] if blocks else 0
            end = int(pairs.target.searchsorted(size))
            c_end = int(pairs.c_target.searchsorted(size))
            pairs = _Pairs(
                size, pairs.a[:end], pairs.b[:end], None, pairs.target[:end],
                pairs.starts[:pairs.starts.searchsorted(end)],
                pairs.c[:c_end], pairs.c_target[:c_end],
                pairs.c_starts[:pairs.c_starts.searchsorted(c_end)], None)
            cut.append((n, pairs))
        plans["power", d, n, min(top, n)] = pairs, blocks
    if cut:
        # the blocks each prefix reads, found for all of them in one pass
        read = _read(_layout(d, max(orders)).block, [
            (np.concatenate([getattr(p, side) for _, p in cut]),
             np.cumsum([0] + [getattr(p, side).size for _, p in cut]))
            for side in ("a", "b", "c")])
        for (n, pairs), ids in zip(cut, read):
            key = "power", d, n, top
            plans[key] = pairs._replace(blocks=ids), plans[key][1]
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
    lay = _layout(d, max(orders))
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
    prod = _table(s.size, lay.first[b, _H - 1 + q[r]] + ia[s] * count[q][r]
                  + lower_row[r], lay.first[n[r] - b, _H] + ib[s] * d + i[r],
                  target[r])
    # copies: at b = q, then at b = n - 1
    ends = exps[off[n] + mu][:, None] - np.stack((lower, np.eye(
        d, dtype=lower.dtype)[i]), 1)
    valid = (ends >= 0).all(axis=2)
    rows = _positions(d, top_n, np.maximum(ends, 0).reshape(-1, d))
    copy = np.empty((2, t.size, 2), np.int32)
    copy[0, :, 0] = lay.first[n - q, _H] + rows[::2] * d + i
    copy[0, :, 1] = lay.first[n - 1, _H - 1 + q] + rows[1::2] * count[q] \
        + lower_row
    copy[1] = target[:, None]
    sizes = [own[-1][2] if own else 0 for own in blocks]
    return list(zip(_plans(lay.block, sizes, prod, _cut(sizes, counts),
                           copy[:, valid], _cut(sizes, valid.sum(axis=1))),
                    blocks))


def _rhs_plans(d, orders, top, jacobian):
    """Pairs giving [sum_m T_m (w + h)^m]_n, rows mu * d + i, less
    [(d_w h) E]_n if ``jacobian``, for each n in ``orders``.  Row
    nu * d + i takes row i of T_m times row nu * N_p + m of P[p, n], for
    each m of order p = 2 .. min(top, n - 1) in turn, then the Jacobian
    pairs; T[n] enters by w^m alone, as a copy, when n <= top."""
    _, off, count = _monomials(d, max(orders) + 1)
    first = _layout(d, max(orders)).first
    nu, n = _groups(d, orders)
    g, group = _ranges(off[2], off[np.maximum(np.minimum(top, n - 1), 1) + 1]
                       - off[2])
    p = (np.searchsorted(off, g, side="right") - 1).astype(np.int32)
    m = g - off[p]
    parts = [_table(g.size, first[p, _T] + m * d, first[n[group], _H - 1 + p]
                    + nu[group] * count[p] + m, group, 1)]
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
    first = _layout(d, max(orders)).first
    nu, n = _groups(d, orders)
    group = np.arange(nu.size)
    by_l, l = np.divmod(np.arange(nu.size * d), d)
    parts = [_jacobian_part(d, orders, [(k, k) for k in orders], 1),
             _table(l.size, first[n[by_l], _H] + nu[by_l] * d + l,
                    first[1, _E] + (d - 1 - l) * d, by_l, -1),
             _table(nu.size, first[n, _D] + nu * d, first[0, _C], group, 1),
             _table(nu.size, first[n, _R] + nu * d, first[0, _C] + 1, group,
                    -1)]
    return zip(*_component_plans(d, orders, parts, [False, True, False, False],
                                 _E, [[False] * len(orders),
                                      [True] * len(orders)]))


def _jacobian_part(d, orders, splits, sign):
    """Entries giving sign * [(d_w h) V]_n from h's blocks (kind _H) of
    orders a and V's blocks (kind _E) of orders n + 1 - a, for each (n, a)
    in ``splits``: h_m w^m times V_l at w^v lands on m - e_l + v with
    factor m_l.  They run by split, then by l."""
    group = np.zeros(max(orders) + 1, np.int32)
    group[list(orders)] = np.cumsum([0] + [_count(d, k) for k in orders])[:-1]
    first = _layout(d, max(orders)).first
    n, a = np.array(splits, np.int32).reshape(-1, 2).T
    k, ia, ib, ea, total = _splits(d, max(orders) + 1, n + 1, a)
    s, l = np.nonzero(ea)
    total = total[s]
    total[np.arange(s.size), l] -= 1
    n, a = n[k[s]], a[k[s]]
    return _table(s.size, first[a, _H] + ia[s] * d,
                  first[n + 1 - a, _E] + ib[s] * d + l,
                  group[n] + _positions(d, max(orders) + 1, total),
                  sign * ea[s, l])


def _component_plans(d, orders, parts, on_b, copy_kind, copied):
    """One _Pairs per n in ``orders`` and variant of ``copied``, whose
    targets are the rows nu * d + i of the order-n monomials nu.

    A part is a table of entries (a's store row, b's store row, group,
    scale): group is the index of the target monomial among those of all
    ``orders`` in turn (``_groups``), and a row is that of component 0.
    Every component i of that monomial takes the pair (a, b) of each of
    its entries, part by part in the order given, with i added to the row
    of a, or of b where ``on_b`` holds for the part.  Where a variant's
    flag for order n holds, its plan also copies block (copy_kind, n) row
    by row; the variants share their products.
    """
    lay = _layout(d, max(orders))
    sizes = [_count(d, n) * d for n in orders]
    entries = np.concatenate(parts, axis=1)
    counts = np.bincount(entries[2], minlength=sum(sizes) // d)
    by_target = np.repeat(np.arange(counts.size), d)
    e, t = _ranges((np.cumsum(counts) - counts)[by_target],
                   counts[by_target])
    e = np.argsort(entries[2], kind="stable")[e]
    prod = entries[:3 if np.all(entries[3] == 1) else 4, e]
    i = t % d
    if any(on_b):
        b_side = np.repeat(on_b, [part.shape[1] for part in parts])[e]
        prod[1] += np.where(b_side, i, 0)
        i = np.where(b_side, 0, i)
    prod[0] += i
    rows = np.concatenate([np.arange(size, dtype=np.int32) for size in sizes])
    prod[2] = rows[t]
    cut = _cut(sizes, counts[by_target])
    copied_rows = np.repeat(lay.first[list(orders), copy_kind], sizes) + rows
    plans = []
    for flags in copied:
        has = np.repeat(flags, sizes)
        copy = _table(int(has.sum()), copied_rows[has], rows[has])
        plans.append(_plans(lay.block, sizes, prod, cut, copy,
                            _cut(sizes, has)))
    return plans

"""Vector-valued homogeneous polynomials in the state variable.

Degree-n homogeneous maps w -> P(w) in d components form a space of
dimension N = d * (n+d-1)! / (n! (d-1)!).  The canonical basis consists of
the maps w^m e_i; basis elements are ordered component-major (all i = 0
first), multi-indices lexicographically ascending within a component.  That
ordering makes the conjugation operator

    (J_M q)(w) = (d_w q)(w) M w - M q(w)

upper triangular whenever M is upper triangular, with diagonal
<lambda, m> - lambda_i -- which is why its spectrum can be predicted
straight from the spectrum of M (``_slot_values``, for its shifts too).

J_M is linear in M, and which entry of M adds into which entry of J_M,
with which integer coefficient, depends only on (d, n).  Those
O(N (d^2 + d)) terms are listed once per (d, n), in the canonical basis,
and cached as a sparse plan in the form each mode reads: exact mode
takes M's integer parts over one denominator (``CMatrix.entries``),
multiplies each nonzero real or imaginary numerator by each of its
coefficients once and adds the products into integer (row, col, re, im)
entries over the same denominator, with one gcd divided out at the end
(J has integer coefficients, so J(A + iB) = J(A) + i J(B)); float mode
builds J of a whole stack of matrices as complex128 arrays, one gather
and one scatter-add per rank of a term within its entry.  A custom basis
permutes the rows and columns of the canonical result.

Substituting the residues A_j for M gives the size-N system each
homogeneous block of the conjugacy equation satisfies.  ``induced_system``
keeps it in the system's one operator form, ``qb_coefficients``: J of
QB's S + 2 coefficients, J_{B_inf} on top, as one complex128 array, or in
exact mode per coefficient as (den, [(row, col, re, im), ...]), integer
parts over one denominator, from the system's integer entries, with no
dense N x N matrix and no ``ExactComplex`` or ``Fraction`` arithmetic.
Its Q is the system's (``q_coefficients``) and the spectrum of J_{B_inf}
is predicted from the system's float spectrum of B_inf.  ``vectorize`` /
``devectorize`` permute the engine's store rows (row mu * d + i:
component i of the monomial at position mu of ``multiindices(d, n)``)
into basis order and back, as they are: complex128 array rows, or in
exact mode integer rows (den, re, im), the form in which
``correction.solve_polynomial`` takes and gives a block's vectors.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import MappingProxyType
import numpy as np

from .exact import ExactComplex
from .matrices import CMatrix, ShapeError, mat_eigenvalues
from .poly import VecPoly

def multiindices(d, n):
    """All m in N^d with |m| = n, lexicographically ascending."""
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in multiindices(d - 1, n - first):
            out.append((first,) + rest)
    return out


def pn_dimension(d, n):
    return d * math.comb(n + d - 1, d - 1)


class PnBasis:
    """Ordered canonical basis of the degree-n homogeneous maps."""

    __slots__ = ("d", "n", "items", "positions", "_index")

    def __init__(self, d, n, order=None):
        if d < 1:
            raise ShapeError("need d >= 1")
        if n < 0:
            raise ValueError("need n >= 0")
        self.d = d
        self.n = n
        monomials = multiindices(d, n)
        canonical = tuple((m, i) for i in range(d) for m in monomials)
        if order is None:
            self.items = canonical
        else:
            # Any enumeration order is legal as long as it is a permutation
            # of the canonical slots; solutions must not depend on it.
            items = tuple((tuple(m), i) for m, i in order)
            if sorted(items) != sorted(canonical):
                raise ValueError("order is not a permutation of the basis")
            self.items = items
        self._index = {item: pos for pos, item in enumerate(self.items)}
        # position of each canonical slot in this basis; None when canonical
        self.positions = None if self.items == canonical else np.array(
            [self._index[item] for item in canonical], dtype=np.intp)

    @property
    def size(self):
        return len(self.items)

    def index(self, m, i):
        return self._index[(tuple(m), i)]

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return f"PnBasis(d={self.d}, n={self.n}, size={self.size})"


@functools.lru_cache(maxsize=None)
def _exponents(d, k):
    """(N_k, d) exponents of the order-k monomials, in ``multiindices``
    order."""
    return np.array(multiindices(d, k), dtype=np.intp).reshape(-1, d)


def _monomials(d, top):
    """Exponents of every monomial of order <= top, order by order in
    ``multiindices`` order, where each order starts (the total last) and
    how many each has, both int32.  Tables are kept for tops 3 mod 4, so
    it may list up to three more orders."""
    return _monomial_table(d, top | 3)


@functools.lru_cache(maxsize=None)
def _monomial_table(d, top):
    counts = np.array([math.comb(k + d - 1, d - 1) for k in range(top + 1)],
                      np.int32)
    return (np.concatenate([_exponents(d, k) for k in range(top + 1)]),
            np.concatenate(([0], counts.cumsum())).astype(np.int32), counts)


@functools.lru_cache(maxsize=None)
def _monomial_keys(d, top):
    """Weights of a base-(top + 1) key, keys of every monomial of order at
    most top in ascending order, and each one's position in its order."""
    exps, off, counts = _monomial_table(d, top)
    weights = (top + 1) ** np.arange(d - 1, -1, -1, dtype=np.intp)
    keys = exps @ weights
    order = np.argsort(keys)
    pos = np.arange(len(exps), dtype=np.int32) - off[:-1].repeat(counts)
    return weights, keys[order], pos[order]


def _positions(d, top, exps):
    """Position of each row of ``exps`` (orders <= top) in its order, as
    int32."""
    weights, keys, pos = _monomial_keys(d, top | 3)
    return pos[np.searchsorted(keys, exps @ weights)]


def _conjugation_terms(d, n):
    """J_M in the canonical basis as its terms: entry e = j d + k of M,
    times an integer coefficient, adds into J_M[row, col].

    Column col = i N_n + mu is the basis map w^m e_i, m at position mu.
    It takes m_j M[j, k] at row (m - e_j + e_k, i) for each j with
    m_j > 0 and each k, then -M[k, i] at row (m, k) for each k.
    Returns arrays (row N + col, e, coefficient), sorted by target with a
    stable sort, so each target keeps the order of that list, and each
    term's rank among its target's terms.
    """
    exps = _exponents(d, n)
    count = len(exps)
    size = d * count
    i, mu = np.divmod(np.arange(size), count)
    m = exps[mu]
    eye = np.eye(d, dtype=np.intp)
    # per column, the d * d terms (j, k), then the d terms k; a term with
    # m_j = 0 is dropped below, so its exponents are clipped at 0 only to
    # have a position (of order up to n + 1)
    moved = m[:, None, None] - eye[:, None] + eye
    rows = np.concatenate([
        (i[:, None] * count + _positions(d, n + 1, np.maximum(
            moved, 0).reshape(-1, d)).reshape(size, d * d)),
        np.arange(d) * count + mu[:, None]], axis=1)
    entry = np.broadcast_to(np.concatenate([
        np.arange(d * d), np.arange(d) * d]), rows.shape).copy()
    entry[:, d * d:] += i[:, None]
    coef = np.concatenate([np.repeat(m, d, axis=1),
                           np.full((size, d), -1)], axis=1)
    live = coef != 0
    target = (rows * size + np.arange(size)[:, None])[live]
    entry, coef = entry[live], coef[live]
    order = np.argsort(target, kind="stable")
    target, entry, coef = target[order], entry[order], coef[order]
    starts = np.flatnonzero(np.concatenate(([True],
                                            target[1:] != target[:-1])))
    rank = np.arange(target.size) - np.repeat(
        starts, np.diff(np.append(starts, target.size)))
    return target, entry, coef, rank


@functools.lru_cache(maxsize=None)
def _float_layers(d, n):
    """Layer t: (target, e, coefficient) of the rank-t term of every entry
    of J that has one; a layer's targets are distinct."""
    target, entry, coef, rank = _conjugation_terms(d, n)
    return tuple((target[rank == t], entry[rank == t],
                  coef[rank == t].astype(complex))
                 for t in range(rank.max() + 1))


@functools.lru_cache(maxsize=None)
def _exact_feeds(d, n):
    """Per entry e: (coefficient, ((col, row), ...)) for each coefficient
    it enters J with."""
    target, entry, coef, _ = _conjugation_terms(d, n)
    row, col = np.divmod(target, pn_dimension(d, n))
    return tuple(
        tuple((int(c), tuple(zip(col[sel].tolist(), row[sel].tolist())))
              for c in np.unique(coef[entry == e])
              for sel in [(entry == e) & (coef == c)])
        for e in range(d * d))


def conjugation_arrays(mats, basis):
    """J of each matrix of a (K, d, d) complex stack, as (K, N, N) complex128
    in ``basis``.

    Layer t of the plan adds the t-th term of every entry at once, so each
    entry sums its terms one after another in the defining order
    (``np.add.reduceat`` groups the terms of a run pairwise, which rounds
    differently).
    """
    d, size = basis.d, basis.size
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[1:] != (d, d):
        raise ShapeError(f"matrices must be {d}x{d} for this basis")
    flat = mats.reshape(len(mats), d * d)
    out = np.zeros((len(mats), size * size), complex)
    for target, entry, coef in _float_layers(d, basis.n):
        out[:, target] += flat[:, entry] * coef
    out = out.reshape(len(mats), size, size)
    if basis.positions is None:
        return out
    slot = np.argsort(basis.positions)    # canonical slot at each position
    return out[:, slot[:, None], slot]


def conjugation_entries(entries, basis):
    """J_M in ``basis`` as (den, [(row, col, re, im), ...]), the integer
    parts of its nonzero entries over their least common denominator, for
    the exact M whose nonzero entries are ``entries`` in that form
    (``CMatrix.entries``).

    J has integer coefficients, so J(A + iB) = J(A) + i J(B), and J of
    M's numerators over M's denominator is J_M: each nonzero real or
    imaginary numerator of an entry of M is multiplied once per
    coefficient it enters J with and added into the entries it feeds, and
    one gcd is divided out at the end.
    """
    d = basis.d
    feeds = _exact_feeds(d, basis.n)
    den, entries = entries
    parts = ({}, {})    # (col, row) -> int, real and imaginary
    for j, k, *values in entries:
        for part, value in zip(parts, values):
            if not value:
                continue
            for coef, slots in feeds[j * d + k]:
                scaled = value * coef
                for slot in slots:
                    part[slot] = part.get(slot, 0) + scaled
    re, im = parts
    pos = None if basis.positions is None else basis.positions.tolist()
    out = []
    for col, row in dict.fromkeys([*re, *im]):
        a, b = re.get((col, row), 0), im.get((col, row), 0)
        if a or b:
            out.append((row, col, a, b) if pos is None
                       else (pos[row], pos[col], a, b))
    g = math.gcd(den, *(v for *_, a, b in out for v in (a, b)))
    return den // g, [(row, col, a // g, b // g) for row, col, a, b in out]


def conjugation_matrix(mat, basis):
    """J_mat in ``basis`` as a dense N x N CMatrix, from the same plan."""
    if mat.shape != (basis.d, basis.d):
        raise ShapeError(f"matrix must be {basis.d}x{basis.d} for this basis")
    if not mat.exact:
        return CMatrix.from_numpy(conjugation_arrays([mat.to_numpy()],
                                                     basis)[0])
    return CMatrix.from_entries(basis.size,
                                conjugation_entries(mat.entries(), basis))


def conjugation_spectrum(mat, basis, eigenvalues=None):
    """Predicted eigenvalue for each basis slot: <lambda, m> - lambda_i.

    Pairs the i-th float eigenvalue of ``mat`` (``eigenvalues`` when
    given, e.g. a cached spectrum, and then ``mat`` is not read and may be
    None) with component i, so the returned list is exact as a multiset;
    the per-slot pairing is canonical only when ``mat`` is triangular with
    its diagonal in order.
    """
    lam = mat_eigenvalues(mat) if eigenvalues is None else eigenvalues
    values = _slot_values(lam, _exponents(basis.d, basis.n)).T.ravel()
    if basis.positions is not None:
        values = values[np.argsort(basis.positions)]
    return values.tolist()


def _slot_values(eigenvalues, exps):
    """<lambda, m> - lambda_i, row m of ``exps``, column i, as a complex
    array, with <lambda, m> summed one component after another, as sum()
    does: the values whose shifts ``model.singular_shifts`` decides."""
    lam = np.asarray(eigenvalues, complex)
    shift = np.zeros(len(exps), complex)
    for j in range(len(lam)):
        shift = shift + exps[:, j] * lam[j]
    return shift[:, None] - lam


class InducedBlock:
    """The degree-n block of a Fuchsian system.

    It hands the solver what a system does.  Q is the system's own
    (``q_coefficients``: a complex128 array, or in exact mode its integer
    row).  The operator is QB's S + 2 coefficients, each replaced by its
    J, with J_{B_inf} on top (``qb_coefficients``), in the form the system
    keeps them: one (S + 2, N, N) complex128 array from one
    ``conjugation_arrays`` call, or in exact mode per coefficient its
    integer entries over one denominator, (den, [(row, col, re, im), ...]),
    from ``conjugation_entries`` on the system's integer entries.  The
    spectrum of J_{B_inf} comes from the system's float spectrum of B_inf
    alone (``conjugation_spectrum``); no matrix is read for it.
    """

    __slots__ = ("size", "s", "exact", "q_coefficients", "_spec", "_coeffs")

    def __init__(self, linear, basis):
        self.size, self.s, self.exact = basis.size, linear.s, linear.exact
        self.q_coefficients = linear.q_coefficients
        self._spec = conjugation_spectrum(None, basis,
                                          linear.residue_spectrum("inf"))
        coeffs = linear.qb_coefficients()
        self._coeffs = ([conjugation_entries(c, basis) for c in coeffs]
                        if self.exact else conjugation_arrays(coeffs, basis))

    def residue_spectrum(self, j):
        """Eigenvalues of J_{B_inf} from those of B_inf (j is 'inf')."""
        return self._spec

    def qb_coefficients(self):
        """J of QB's x^i coefficients, i = 0 .. S + 1, the top one
        J_{B_inf} (see the class docstring for the form)."""
        return self._coeffs


def induced_system(linear, n, basis=None):
    """The size-N Fuchsian system governing the degree-n homogeneous block.

    Accepts a FuchsianSystem or anything with a ``linear`` attribute holding
    one, and returns ``(InducedBlock, basis)``.  A custom ``basis`` (e.g. a
    permuted enumeration) may be supplied; results of downstream solves are
    enumeration-independent.
    """
    if hasattr(linear, "linear"):
        linear = linear.linear
    if basis is None:
        basis = PnBasis(linear.size, n)
    elif basis.d != linear.size or basis.n != n:
        raise ShapeError("basis does not match system size / order")
    return InducedBlock(linear, basis), basis


def _ratio_row(parts):
    """Integer row of a scalar polynomial given as the (num, den) of each
    coefficient's real and imaginary part: trailing zero degrees trimmed,
    the numerators over the lcm of the denominators, ``im`` None when
    every imaginary part is zero; None when nothing is left."""
    n = len(parts)
    while n and not (parts[n - 1][0][0] or parts[n - 1][1][0]):
        n -= 1
    if not n:
        return None
    parts = parts[:n]
    den = math.lcm(*(q for pair in parts for _, q in pair))
    re = tuple(p * (den // q) for (p, q), _ in parts)
    im = tuple(p * (den // q) for _, (p, q) in parts)
    return den, re, im if any(im) else None


def _int_row(coeffs):
    """Integer row of a tuple of ExactComplex, None if it is zero."""
    return _ratio_row([(c.re.as_integer_ratio(), c.im.as_integer_ratio())
                       for c in coeffs])


def _reduced_row(den, re, im):
    """The integer row of the numerator sequences ``re`` and ``im`` over
    ``den``: trailing zero degrees trimmed and one gcd divided out; None
    when nothing is left."""
    if not (any(re) or any(im)):
        return None
    n = len(re)
    while not (re[n - 1] or im[n - 1]):
        n -= 1
    re, im = tuple(re[:n]), tuple(im[:n]) if any(im) else None
    g = math.gcd(den, *re, *(im or ()))
    if g == 1:
        return den, re, im
    return (den // g, tuple(v // g for v in re),
            im and tuple(v // g for v in im))


def _scalars(row):
    """Tuple of ExactComplex of an integer row."""
    if row is None:
        return ()
    den, re, im = row
    if im is None:
        return tuple(ExactComplex(Fraction(v, den)) for v in re)
    return tuple(ExactComplex(Fraction(v, den), Fraction(w, den))
                 for v, w in zip(re, im))


def _term_rows(p, exact):
    """A SeriesTable's rows of the vector polynomial ``p``: in exact mode
    the integer rows of its components, else its (d, width) complex128
    array, row i component i."""
    if exact:
        return tuple(_int_row(p.component(i)) for i in range(p.dim))
    return np.array(p.coeffs, complex).reshape(-1, p.dim).T


def _term_poly(rows, exact):
    """The vector polynomial of a SeriesTable's rows (see ``_term_rows``),
    top coefficients that are exactly zero dropped."""
    if exact:
        return VecPoly.from_components([_scalars(r) for r in rows], True)
    return VecPoly.from_coeffs(map(tuple, rows.T.tolist()), False,
                               dim=len(rows))


class SeriesTable:
    """Homogeneous term table: {monomial m: vector polynomial in x}.

    Holds all orders of one formal series (h, phi, psi, or the f of a
    system); order n is the slice with |m| = n.  ``rows`` keeps each
    nonzero term as the engine's store rows of its d components, one
    storage for both rings: in exact mode a tuple of integer rows
    (den, re, im), None for a zero component, in float mode a (d, width)
    complex128 array.  The engine, the document reader and the writer
    hand these rows on as they are; a VecPoly is built only when a caller
    reads a term (``get``, ``terms``, ``order_slice``, ``items_sorted``,
    iteration), and ``set`` converts one back.
    """

    __slots__ = ("dim", "exact", "rows")

    def __init__(self, dim, exact, terms=None):
        self.dim = dim
        self.exact = exact
        self.rows = {}
        if terms:
            for m, p in terms.items():
                self.set(m, p)

    @classmethod
    def from_rows(cls, dim, exact, rows):
        """A table holding ``rows``, {monomial: rows} of nonzero terms, as
        they are."""
        table = cls(dim, exact)
        table.rows = rows
        return table

    def set(self, m, p):
        m = tuple(int(v) for v in m)
        if len(m) != self.dim:
            raise ShapeError(
                f"monomial {m} does not match dimension {self.dim}")
        if p.dim != self.dim:
            raise ShapeError("table entry has wrong vector dimension")
        if p.is_zero():
            self.rows.pop(m, None)
        else:
            self.rows[m] = _term_rows(p, self.exact)

    def get(self, m):
        rows = self.rows.get(tuple(m))
        return None if rows is None else _term_poly(rows, self.exact)

    @property
    def terms(self):
        """Read-only {monomial: VecPoly} of every term, built on each read;
        ``set`` changes the table."""
        return MappingProxyType({m: _term_poly(rows, self.exact)
                                 for m, rows in self.rows.items()})

    def order_slice(self, n):
        return {m: _term_poly(rows, self.exact)
                for m, rows in self.rows.items() if sum(m) == n}

    def rows_sorted(self):
        """(monomial, rows) of every term, by order, then monomial."""
        return sorted(self.rows.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def items_sorted(self):
        return [(m, _term_poly(rows, self.exact))
                for m, rows in self.rows_sorted()]

    def max_order(self):
        return max((sum(m) for m in self.rows), default=0)

    def copy(self):
        return SeriesTable.from_rows(self.dim, self.exact, dict(self.rows))

    def __iter__(self):
        return iter(self.items_sorted())

    def __contains__(self, m):
        return tuple(m) in self.rows

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return (
            f"SeriesTable(dim={self.dim}, terms={len(self.rows)}, "
            f"order<={self.max_order()})"
        )


def _slots(basis):
    """Basis position of each store row (see the module docstring)."""
    slots = np.arange(basis.size).reshape(basis.d, -1).T.ravel()
    return slots if basis.positions is None else basis.positions[slots]


def vectorize(rows, basis, exact=False):
    """Store rows in basis order: row p of the result is the store row of
    the component at basis position p, rows of an (N, width) complex array
    or, in exact mode, of a list of integer rows."""
    if len(rows) != basis.size:
        raise ShapeError("row count does not match basis size")
    order = np.argsort(_slots(basis))
    return [rows[p] for p in order.tolist()] if exact else rows[order]


def devectorize(stacked, basis, exact=False):
    """Inverse of vectorize: basis-order rows back in store order."""
    if len(stacked) != basis.size:
        raise ShapeError("stacked vector length does not match basis size")
    slots = _slots(basis)
    return [stacked[p] for p in slots.tolist()] if exact else stacked[slots]

"""Seeded input generator for the three benchmark workloads.

Every input is plain data (``fractions.Fraction`` scalars), produced from
``random.Random`` seeded by the workload name, the run seed and the round
index, so the same arguments always give the same inputs and no program
code influences them.  Each job records its class (dimension d, number of
extra poles S, truncation order or spectrum sign) and why that class is in
the mix.

The residue matrices are upper triangular, so their spectra are their
diagonals and the assumptions the program checks hold by construction:

* series workloads: diagonal entries in [1, 1.9] (tenths), so every
  <lambda, m> - lambda_i with |m| >= 2 is positive, for each residue and
  for the residue sum, and no integer shift can vanish;
* analytic route: diagonals in sixths in [2/3, 5/2] (positive poles) or
  eighths in [-11/8, -1/8] (one nonpositive pole, so one or two ladder
  rungs), whose pairwise differences within a matrix are never integers
  (no Frobenius resonance) and whose values are never nonpositive
  integers; the residue-sum diagonal is redrawn until it is not an integer
  either.  Poles are half-integers in [-3, 3] at least 1 apart: with gaps
  of 1/2 and spectra up to 9/2 the a-posteriori certificate misses its
  1e-9 allowance in about one solve in twenty.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("exact-cli", "float-series", "analytic-route")

# Seed reserved for confirming a claimed gain; never used to tune anything.
HELD_OUT_SEED = 1009

# (d, S, order): one system of each class per round.
EXACT_CLI_CLASSES = (
    (1, 0, 6, "scalar block, deep order: many small exact solves"),
    (1, 1, 6, "scalar block with an extra pole: S=1 phi of x-degree 1"),
    (2, 0, 3, "d=2 blocks of size 6 and 8 through the exact Rodrigues path"),
    (2, 1, 4, "d=2, S=1: longer Q, wider exact polynomials"),
    (3, 0, 2, "d=3, S=0: the largest exact block the round can afford"),
    (3, 1, 2, "d=3, S=1: size-18 block with a cubic Q"),
)

FLOAT_SERIES_CLASSES = (
    (1, 0, 16, "d=1, S=0 to order 16: where float accuracy collapses"),
    (1, 1, 16, "d=1, S=1 to order 16: deep composition, tame series"),
    (2, 0, 8, "d=2, S=0 to order 8: growing h, accuracy at risk"),
    (2, 1, 8, "d=2, S=1 to order 8: composition-heavy"),
    (3, 0, 4, "d=3, S=0 to order 4: dense float blocks up to size 45"),
    (3, 1, 5, "d=3, S=1 to order 5: composition with a cubic Q"),
)

# (d, S, nonpositive): one linear problem of each class per round.
ANALYTIC_CLASSES = tuple(
    (d, s, neg, ("nonpositive spectrum: shift-ladder rungs before the moments"
                 if neg else "positive spectra: moments directly"))
    for d in (1, 2, 3) for s in (0, 1, 2) for neg in (False, True)
)

EVAL_POINTS_PER_SOLVE = 2


def _rng(workload, seed, round_index):
    return random.Random(f"fuchslin-bench:{workload}:{seed}:{round_index}")


def _distinct_poles(rng, count, num_range, denominators,
                    min_gap=Fraction(1, 2)):
    """Poles num/den; the default gap only keeps half-integers distinct."""
    poles = []
    while len(poles) < count:
        c = Fraction(rng.randint(*num_range), rng.choice(denominators))
        if all(abs(c - p) >= min_gap for p in poles):
            poles.append(c)
    return poles


def _series_residues(rng, d, n_poles):
    mats = []
    for _ in range(n_poles):
        rows = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = Fraction(rng.randint(10, 19), 10)
            for j in range(i + 1, d):
                rows[i][j] = Fraction(rng.randint(-1, 1), 3)
        mats.append(rows)
    return mats


def _multiindices(d, n):
    if d == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n, -1, -1)
            for rest in _multiindices(d - 1, n - k)]


def _vecpoly(rng, d, degree, numerators=(-4, 4)):
    """Rows (ascending x-power) of length-d vectors; the top row is nonzero."""
    rows = [[Fraction(rng.randint(*numerators), 2) for _ in range(d)]
            for _ in range(degree + 1)]
    if not any(rows[-1]):
        rows[-1][0] = Fraction(1)
    return rows


def _series_job(rng, job_id, d, s, order, why):
    """A nonlinear system: every monomial of order 2-3 at x-degree 3."""
    nonlinearity = {
        m: _vecpoly(rng, d, 3)
        for n in (2, 3) for m in _multiindices(d, n)
    }
    return {
        "id": job_id,
        "class": f"d{d}-S{s}-n{order}",
        "why": why,
        "d": d,
        "S": s,
        "order": order,
        "poles": _distinct_poles(rng, s + 2, (-4, 4), (1, 2)),
        "residues": _series_residues(rng, d, s + 2),
        "nonlinearity": nonlinearity,
    }


def _analytic_residues(rng, d, n_poles, negative_pole):
    while True:
        mats = []
        for j in range(n_poles):
            rows = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                if j == negative_pole:
                    rows[i][i] = -Fraction(4 * rng.randint(0, 2) + i + 1, 8)
                else:
                    rows[i][i] = Fraction(3 * rng.randint(1, 4) + i + 1, 6)
                for k in range(i + 1, d):
                    rows[i][k] = Fraction(rng.randint(-1, 1), 2)
            mats.append(rows)
        sums = [sum(m[i][i] for m in mats) for i in range(d)]
        if all(v.denominator != 1 for v in sums):
            return mats


def _analytic_job(rng, job_id, d, s, negative, why):
    n_poles = s + 2
    poles = _distinct_poles(rng, n_poles, (-6, 6), (2,), min_gap=1)
    negative_pole = rng.randrange(n_poles) if negative else None
    residues = _analytic_residues(rng, d, n_poles, negative_pole)
    g = _vecpoly(rng, d, rng.randint(s + 1, s + 4), numerators=(-3, 3))
    points = [
        complex(Fraction(rng.randint(-8, 8), 4),
                Fraction(rng.randint(2, 6), 8))
        for _ in range(EVAL_POINTS_PER_SOLVE)
    ]
    return {
        "id": job_id,
        "class": f"d{d}-S{s}-{'nonpos' if negative else 'pos'}",
        "why": why,
        "d": d,
        "S": s,
        "poles": poles,
        "residues": residues,
        "g": g,
        "points": points,
    }


def generate(workload, seed, round_index):
    """The job list of one round: one job per class, in class order."""
    rng = _rng(workload, seed, round_index)
    prefix = f"{workload}/s{seed}/r{round_index}"
    if workload == "exact-cli":
        classes = EXACT_CLI_CLASSES
    elif workload == "float-series":
        classes = FLOAT_SERIES_CLASSES
    elif workload == "analytic-route":
        return [_analytic_job(rng, f"{prefix}/{k}", d, s, neg, why)
                for k, (d, s, neg, why) in enumerate(ANALYTIC_CLASSES)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [_series_job(rng, f"{prefix}/{k}", d, s, order, why)
            for k, (d, s, order, why) in enumerate(classes)]


def _pair(q):
    text = str(q)
    return [int(text) if q.denominator == 1 else text, 0]


def to_document(job):
    """The exact-mode JSON document (README schema) for a series job."""
    return {
        "dimension": job["d"],
        "S": job["S"],
        "poles": [_pair(p) for p in job["poles"]],
        "matrices": [[[_pair(v) for v in row] for row in mat]
                     for mat in job["residues"]],
        "nonlinearity": [
            {"multiindex": list(m),
             "coeff": [[_pair(v) for v in row] for row in coeff]}
            for m, coeff in sorted(job["nonlinearity"].items())
        ],
    }

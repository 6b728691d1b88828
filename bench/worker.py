"""One benchmark round in a fresh process.

    python3 bench/worker.py --workload W --seed N --round R --trace 0|1
                            --t0 MONOTONIC [--spans FILE]

``bench/run.py`` starts this script with BLAS/OpenMP pinned to one
thread.  The worker puts the checkout's ``src`` on ``sys.path``, imports
the package, builds the round's inputs (set-up), runs the job list
(timed, with a speed calibration before each job and after the last),
checks every job's output (untimed, tracing off) and prints one JSON
object on stdout.  ``--t0`` is the parent's ``time.monotonic()`` just
before it started this process, so ``setup_s`` covers interpreter
start-up, imports and input construction, and ``probe_s`` covers
interpreter start-up and the numpy/scipy import alone.  ``run.py`` scales
job times by the calibrations and set-up by the probe.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy  # noqa: F401  (imported before the package: the speed probe)
import scipy.integrate  # noqa: F401
import scipy.linalg  # noqa: F401

PROBE_DONE = time.monotonic()


def calibrate():
    """Seconds taken by a fixed mix of the work the program does.

    Python-level complex and rational arithmetic and small dense complex
    matrix products, from benchmark code only, so no program change moves
    it.  The worker times it just before and just after each job; it
    tracks the machine's speed at that moment (see run.py).
    """
    started = time.perf_counter()
    a = numpy.arange(1, 401, dtype=complex).reshape(20, 20) / 400
    for _ in range(800):
        a = a @ a
        a /= abs(a).max()
    z, acc = 0.5 + 0.25j, 0j
    for k in range(80000):
        acc = acc * z + k
    q = Fraction(0)
    for k in range(1, 2500):
        q = q * Fraction(k % 7 + 1, k % 5 + 2) + Fraction(1, k % 11 + 1)
    return time.perf_counter() - started


# The package goes on the path only now, so nothing under src/ (such as a
# sitecustomize module) can run during the probe.
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fuchslin import (analytic, cli, correction, document, engine, exact,
                      matrices, model, poly)

import tracing
import workloads

# Float-series tolerance on the conjugacy residual of each order, relative
# to max(1, largest coefficient of h and of the series at that order).  It
# is the float bound of acceptance criterion 9, fixed before measuring.
FLOAT_REL_TOL = 1e-9
# Analytic route against the exact polynomial route on the same problem:
# |phi_analytic - phi_exact| relative to max(1, |phi_exact|), and the
# handle's value against the exact polynomial solution y at each point.
ROUTE_TOL = 1e-7
EVAL_TOL = 1e-6

DIGESTS = Path(__file__).resolve().parent / "exact_digests.json"


def _exact(q):
    return exact.ExactComplex(q)


def build_float_system(job):
    """Complex-float NonlinearSystem from a job, via public constructors."""
    linear = model.FuchsianSystem(
        tuple(complex(p) for p in job["poles"]),
        tuple(matrices.CMatrix.from_rows(
            [[complex(v) for v in row] for row in mat], False)
            for mat in job["residues"]),
    )
    terms = {
        m: poly.VecPoly.from_coeffs(
            [tuple(complex(v) for v in row) for row in coeff], False,
            dim=job["d"])
        for m, coeff in job["nonlinearity"].items()
    }
    return model.NonlinearSystem(linear, terms)


def build_linear_problem(job):
    """Exact (FuchsianSystem, g) for an analytic-route job."""
    system = model.FuchsianSystem(
        tuple(_exact(p) for p in job["poles"]),
        tuple(matrices.CMatrix.from_rows(
            [[_exact(v) for v in row] for row in mat], True)
            for mat in job["residues"]),
    )
    g = poly.VecPoly.from_coeffs(
        [tuple(_exact(v) for v in row) for row in job["g"]], True,
        dim=job["d"])
    return system, g


class Outcome:
    """Result of one job: stage times, outputs to check, and its verdict."""

    def __init__(self, job):
        self.job = job
        self.stages = {}
        self.output = None
        self.wall_s = 0.0
        self.failed = False   # errored, bad exit code or missed a tolerance
        self.wrong = False    # returned an answer that fails a hard check
        self.notes = []
        self.digest = None
        self.accuracy = 0.0

    def time(self, stage, started):
        self.stages[stage] = self.stages.get(stage, 0.0) + \
            time.perf_counter() - started

    def fail(self, note, wrong=False):
        self.failed = True
        self.wrong = self.wrong or wrong
        self.notes.append(note)


# ----------------------------------------------------------------------
# exact-cli
# ----------------------------------------------------------------------


def setup_exact_cli(jobs, workdir):
    inputs = []
    for k, job in enumerate(jobs):
        text = json.dumps(workloads.to_document(job), sort_keys=True)
        path = workdir / f"job{k}.json"
        path.write_text(text, encoding="utf-8")
        inputs.append({"doc": str(path), "dir": workdir,
                       "key": hashlib.sha256(text.encode()).hexdigest(),
                       "prefix": f"job{k}"})
    # the CLI parses each document itself; check once here that they load
    for item in inputs:
        document.load_document(item["doc"], exact=True)
    return inputs


def run_exact_cli(item, outcome, tracer):
    order = str(outcome.job["order"])
    files = {}
    for mode, command in (("obstruction", "linearize"),
                          ("normal-form", "normal-form")):
        tables = item["dir"] / f"{item['prefix']}-{mode}.json"
        report = item["dir"] / f"{item['prefix']}-{mode}-verify.json"
        stage = "linearize" if mode == "obstruction" else "normal_form"
        started = time.perf_counter()
        with tracer.span(f"stage.{stage}"):
            code = cli.main([command, item["doc"], "--exact",
                             "--order", order, "--out", str(tables)])
        outcome.time(stage, started)
        if code != 0:
            outcome.fail(f"{command} exited {code}")
            return
        started = time.perf_counter()
        with tracer.span("stage.verify"):
            code = cli.main(["verify", item["doc"], "--exact",
                             "--tables", str(tables), "--out", str(report)])
        outcome.time("verify", started)
        if code != 0:
            outcome.fail(f"verify {mode} exited {code}", wrong=code == 4)
            return
        files[mode] = (tables, report)
    outcome.output = files


def check_exact_cli(item, outcome, recorded):
    s = outcome.job["S"]
    blob = hashlib.sha256()
    for mode in ("obstruction", "normal-form"):
        tables, report = outcome.output[mode]
        tables_bytes = tables.read_bytes()
        report_bytes = report.read_bytes()
        blob.update(tables_bytes)
        blob.update(report_bytes)
        verdict = json.loads(report_bytes)
        if verdict["max_residual"] != 0 or not verdict["passed"]:
            outcome.fail(f"{mode}: exact residual {verdict['max_residual']}",
                         wrong=True)
        for entry in json.loads(tables_bytes)["series"]:
            if len(entry["coeff"]) > s + 1:
                outcome.fail(f"{mode}: term {entry['multiindex']} has "
                             f"x-degree > S", wrong=True)
    outcome.digest = blob.hexdigest()
    want = recorded.get(item["key"])
    if want is not None and want != outcome.digest:
        outcome.fail("report bytes differ from the recorded digest",
                     wrong=True)


def recorded_digests():
    """Input document sha256 -> report sha256 (see record_digests.py)."""
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# float-series
# ----------------------------------------------------------------------


def setup_float_series(jobs, workdir):
    return [build_float_system(job) for job in jobs]


def run_float_series(nl, outcome, tracer):
    order = outcome.job["order"]
    results = {}
    for mode, stage in (("obstruction", "linearize"),
                        ("normal-form", "normal_form")):
        runner = (engine.linearize if mode == "obstruction"
                  else engine.normal_form)
        started = time.perf_counter()
        with tracer.span(f"stage.{stage}"):
            series, h = runner(nl, order)
        outcome.time(stage, started)
        started = time.perf_counter()
        with tracer.span("stage.verify"):
            report = engine.verify_conjugacy(nl, series, h, order, mode=mode)
        outcome.time("verify", started)
        results[mode] = (series, h, report)
    outcome.output = results


def check_float_series(nl, outcome):
    s = outcome.job["S"]
    worst = 0.0
    parts = []
    for mode in ("obstruction", "normal-form"):
        series, h, report = outcome.output[mode]
        for n, residual in sorted(report.residuals.items()):
            size = max([1.0] + [float(p.max_abs()) for p in
                                list(h.order_slice(n).values()) +
                                list(series.order_slice(n).values())])
            worst = max(worst, residual / size)
        for m, p in series:
            if p.degree > s:
                outcome.fail(f"{mode}: term {m} has x-degree > S", wrong=True)
        parts.append({"series": document.series_table_json(series),
                      "h": document.series_table_json(h),
                      "residuals": {str(n): r for n, r in
                                    sorted(report.residuals.items())}})
    outcome.accuracy = worst
    if worst > FLOAT_REL_TOL:
        outcome.fail(f"relative residual {worst:.3e} > {FLOAT_REL_TOL:g}")
    outcome.digest = hashlib.sha256(
        document.dumps_canonical(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# analytic-route
# ----------------------------------------------------------------------


def setup_analytic_route(jobs, workdir):
    return [build_linear_problem(job) for job in jobs]


def run_analytic_route(problem, outcome, tracer):
    system, g = problem
    started = time.perf_counter()
    with tracer.span("stage.solve_analytic"):
        result = analytic.solve_analytic(system, g)
    outcome.time("solve_analytic", started)
    started = time.perf_counter()
    with tracer.span("stage.eval"):
        values = [result.y.eval(x) for x in outcome.job["points"]]
    outcome.time("eval", started)
    outcome.output = (result, values)


def check_analytic_route(problem, outcome):
    system, g = problem
    result, values = outcome.output
    if not result.y.certificate.passed:
        outcome.fail("certificate did not pass", wrong=True)
    reference = correction.solve_polynomial(system, g)
    scale = max([1.0] + [abs(complex(v)) for row in reference.phi.coeffs
                         for v in row])
    err = 0.0
    for i in range(outcome.job["S"] + 1):
        for a, b in zip(result.phi.coefficient(i),
                        reference.phi.coefficient(i)):
            err = max(err, abs(complex(a) - complex(b)) / scale)
    outcome.accuracy = err
    if err > ROUTE_TOL:
        outcome.fail(f"route error {err:.3e} > {ROUTE_TOL:g}")
    for x, got in zip(outcome.job["points"], values):
        want = [complex(v) for v in reference.y.eval(_exact_point(x))]
        size = max([1.0] + [abs(v) for v in want])
        gap = max(abs(a - b) for a, b in zip(got, want))
        if gap > EVAL_TOL * size:
            outcome.fail(f"y({x}) off by {gap:.3e} "
                         f"(> {EVAL_TOL:g} x {size:.3g})")
    outcome.digest = hashlib.sha256(document.dumps_canonical({
        "phi": [[repr(complex(v)) for v in row] for row in result.phi.coeffs],
        "y": [[repr(v) for v in row] for row in values],
    }).encode()).hexdigest()


def _exact_point(x):
    return exact.ExactComplex(Fraction(x.real), Fraction(x.imag))


# ----------------------------------------------------------------------


RUNNERS = {
    "exact-cli": (setup_exact_cli, run_exact_cli),
    "float-series": (setup_float_series, run_float_series),
    "analytic-route": (setup_analytic_route, run_analytic_route),
}


class _NoTracer:
    """Stands in for tracing.Tracer in an untraced worker."""

    current_job = -1

    def span(self, name):
        return contextlib.nullcontext()


def run_round(workload, seed, round_index, trace, t0, spans_path=None):
    """Set up, run and check one round; returns the worker's JSON object."""
    workdir = Path(tempfile.mkdtemp(prefix="round-", dir=_scratch_dir()))
    try:
        jobs = workloads.generate(workload, seed, round_index)
        setup, run = RUNNERS[workload]
        inputs = setup(jobs, workdir)
        setup_s = time.monotonic() - t0

        tracer = _NoTracer()
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        outcomes = [Outcome(job) for job in jobs]
        calib_s = []
        wall_s = 0.0
        for k, (item, outcome) in enumerate(zip(inputs, outcomes)):
            calib_s.append(calibrate())
            tracer.current_job = k
            job_started = time.perf_counter()
            try:
                with tracer.span("job"):
                    run(item, outcome, tracer)
            except Exception as exc:  # a job that raises is a failed job
                outcome.fail(f"{type(exc).__name__}: {exc}")
            outcome.wall_s = time.perf_counter() - job_started
            wall_s += outcome.wall_s
        calib_s.append(calibrate())
        leftover = []
        layer = None
        if trace:
            leftover = tracer.uninstall()
            layer = tracer.metrics()
            if spans_path:
                tracer.write_spans(spans_path)

        recorded = recorded_digests() if workload == "exact-cli" else {}
        for item, outcome in zip(inputs, outcomes):
            if outcome.output is None:
                continue
            try:
                if workload == "exact-cli":
                    check_exact_cli(item, outcome, recorded)
                elif workload == "float-series":
                    check_float_series(item, outcome)
                else:
                    check_analytic_route(item, outcome)
            except Exception as exc:
                outcome.fail(f"check raised {type(exc).__name__}: {exc}",
                             wrong=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stages = {}
    for outcome in outcomes:
        for stage, value in outcome.stages.items():
            stages[stage] = stages.get(stage, 0.0) + value
    return {
        "workload": workload,
        "seed": seed,
        "round": round_index,
        "trace": bool(trace),
        "setup_s": setup_s,
        "probe_s": PROBE_DONE - t0,
        "calib_s": calib_s,
        "wall_s": wall_s,
        "stages": stages,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [
            {"id": o.job["id"], "class": o.job["class"], "why": o.job["why"],
             "wall_s": o.wall_s, "stages": o.stages, "failed": o.failed,
             "wrong": o.wrong, "notes": o.notes, "digest": o.digest,
             "accuracy": o.accuracy,
             "key": item.get("key") if isinstance(item, dict) else None}
            for item, o in zip(inputs, outcomes)
        ],
        "wrappers_left": leftover,
        "per_layer": layer,
    }


def _scratch_dir():
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    try:
        result = run_round(args.workload, args.seed, args.round, args.trace,
                           args.t0, args.spans)
    except Exception:
        traceback.print_exc()
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

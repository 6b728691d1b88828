"""The fuchslin benchmark: one command for every workload.

    python3 bench/run.py --workload exact-cli --seed 1 --seconds 35 --trace 0

Each round runs in a fresh worker process (``bench/worker.py``), one at a
time, with BLAS/OpenMP pinned to one thread.  A round is one pass over the
workload's job mix with inputs generated from (workload, seed, round).

``--trace 0`` runs ``--seconds / ROUND_S`` rounds (at least MIN_ROUNDS),
which take about ``--seconds`` on the reference machine, and reports the
end-to-end metrics as medians over rounds, scaled by the speed references
described below.
``--trace 1`` runs round 0 untraced, then round 0 again traced, and reports
the per-layer metrics of the traced worker plus ``trace_overhead``.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with every end-to-end metric of the workload, per-round figures and
the environment.  See bench/METRICS.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
# Typical time of one round (worker start, set-up, jobs and checks) on the
# 2-vCPU x86_64 machine where the benchmark was defined.  A ``--trace 0``
# run makes ``--seconds / ROUND_S`` rounds: a count fixed by the arguments
# alone, not by how fast the machine happens to be, so two runs with the
# same seed and ``--seconds`` attempt the same jobs and fail the same ones.
ROUND_S = {"exact-cli": 6.5, "float-series": 8.5, "analytic-route": 4.9}
# A run must end within 180 s: a worker still running this long after the
# run started is killed, and the run fails.
DEADLINE_S = 170.0

# Per workload: the stage times it reports, besides wall/setup/memory.
STAGES = {
    "exact-cli": ("linearize", "normal_form", "verify"),
    "float-series": ("linearize", "normal_form", "verify"),
    "analytic-route": ("solve_analytic", "eval"),
}
ACCURACY = {"float-series": "float_rel_residual",
            "analytic-route": "route_err"}

# The machine's speed drifts by a fifth within minutes, and by as much
# within seconds (other guests on the host), so times are scaled by speed
# references taken in the worker from benchmark code only, which no program
# change can alter:
# * each job's time by CALIB_REF_S / (mean of the calibrations the worker
#   timed just before and just after that job; see worker.calibrate);
# * set-up by PROBE_REF_S / (median of ``probe_s``, the worker's own
#   interpreter start-up and numpy/scipy import, over that round and its
#   two neighbours): start-up tracks set-up, not compute.
# The references are their typical times on the 2-vCPU x86_64 machine where
# the benchmark was defined, so scaled times read as seconds there.  The
# report line keeps the unscaled times.
CALIB_REF_S = 0.03
PROBE_REF_S = 0.6


def worker_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FUCHSLIN_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload, seed, round_index, trace, deadline, spans=None):
    """Start one worker, wait for it, return its JSON object or None."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(round_index),
           "--trace", str(int(trace))]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                            env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - t0, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"round {round_index} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(err)
        return None
    return json.loads(out.strip().splitlines()[-1])


def environment():
    import importlib.metadata as md

    def version(name):
        try:
            return md.version(name)
        except md.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "machine": platform.machine()}


def tally(rounds):
    jobs = [j for r in rounds for j in r["jobs"]]
    failures = [f"{j['id']} [{j['class']}]: {'; '.join(j['notes'])}"
                for j in jobs if j["failed"]]
    correct = not any(j["wrong"] for j in jobs) and \
        not any(r["wrappers_left"] for r in rounds)
    return jobs, failures, correct


def per_class_median(rounds, value, scaled=True):
    """Sum over job classes of the class's median over rounds.

    Every round runs one job of each class on fresh inputs; summing the
    class medians gives the time of a typical pass over the mix and is
    steadier than the median of whole-round totals.  With ``scaled``, each
    job's time is first multiplied by its speed scale.
    """
    by_class = {}
    for r in rounds:
        for job in r["jobs"]:
            scale = job["scale"] if scaled else 1.0
            by_class.setdefault(job["class"], []).append(scale * value(job))
    return sum(statistics.median(v) for v in by_class.values())


def round_count(workload, seconds):
    return max(MIN_ROUNDS, int(seconds / ROUND_S[workload]))


def untraced(workload, seed, seconds, started):
    rounds = []
    for round_index in range(round_count(workload, seconds)):
        result = run_worker(workload, seed, round_index, False,
                            started + DEADLINE_S)
        if result is None:
            return None
        rounds.append(result)

    probes = [r["probe_s"] for r in rounds]
    for i, r in enumerate(rounds):
        nearby = probes[max(i - 1, 0):i + 2]
        r["setup_scale"] = PROBE_REF_S / statistics.median(nearby)
        calib = r["calib_s"]
        for k, job in enumerate(r["jobs"]):
            job["scale"] = 2 * CALIB_REF_S / (calib[k] + calib[k + 1])

    jobs, failures, correct = tally(rounds)
    metrics = {
        "wall_s": (per_class_median(rounds, lambda j: j["wall_s"]), "s"),
        "setup_s": (statistics.median(r["setup_scale"] * r["setup_s"]
                                      for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    report = dict(metrics)
    report["wall_unscaled_s"] = (
        per_class_median(rounds, lambda j: j["wall_s"], scaled=False), "s")
    report["setup_unscaled_s"] = (
        statistics.median(r["setup_s"] for r in rounds), "s")
    report["probe_s"] = (statistics.median(r["probe_s"] for r in rounds), "s")
    report["calib_s"] = (statistics.median(c for r in rounds
                                           for c in r["calib_s"]), "s")
    report["fail_frac"] = (len(failures) / len(jobs), "ratio")
    for stage in STAGES[workload]:
        report[f"{stage}_s"] = (per_class_median(
            rounds, lambda j: j["stages"].get(stage, 0.0)), "s")
    if workload in ACCURACY:
        report[ACCURACY[workload]] = (max(j["accuracy"] for j in jobs),
                                      "ratio")
    return {
        "correct": correct, "attempted": len(jobs), "failed": len(failures),
        "metrics": metrics, "report": report, "rounds": rounds,
        "failures": failures,
    }


def traced(workload, seed, started):
    deadline = started + DEADLINE_S
    plain = run_worker(workload, seed, 0, False, deadline)
    spans = ROOT / ".bench_work" / f"spans-{workload}-{seed}.bin"
    spans.parent.mkdir(exist_ok=True)
    traced_round = run_worker(workload, seed, 0, True, deadline, spans)
    if plain is None or traced_round is None:
        return None
    rounds = [plain, traced_round]
    jobs, failures, correct = tally(rounds)
    same = [a["digest"] for a in plain["jobs"]] == \
        [b["digest"] for b in traced_round["jobs"]]
    if not same:
        failures.append("traced and untraced output digests differ")
        correct = False
    metrics = {name: (traced_round["per_layer"][name], unit)
               for name, (unit, _) in tracing.PER_LAYER.items()}
    metrics["trace_overhead"] = (traced_round["wall_s"] / plain["wall_s"],
                                 "ratio")
    accuracy = max(j["accuracy"] for j in traced_round["jobs"])
    for workload_name, name in ACCURACY.items():
        metrics[name] = (accuracy if workload == workload_name else 0.0,
                         "ratio")
    return {
        "correct": correct, "attempted": len(jobs), "failed": len(failures),
        "metrics": metrics, "report": dict(metrics), "rounds": rounds,
        "failures": failures, "spans_file": str(spans.relative_to(ROOT)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="fuchslin benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "fuchslin" / "__init__.py").is_file():
        print(f"no fuchslin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced(args.workload, args.seed, started)
    else:
        result = untraced(args.workload, args.seed, args.seconds, started)
    if result is None:
        print("a worker failed to start or finish", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["report"].items()},
        "rounds": [{"round": r["round"], "trace": r["trace"],
                    "wall_s": r["wall_s"], "setup_s": r["setup_s"],
                    "probe_s": r["probe_s"], "calib_s": r["calib_s"],
                    "setup_scale": r.get("setup_scale"),
                    "peak_rss_mb": r["peak_rss_mb"], "stages": r["stages"],
                    "jobs": {j["class"]: j["wall_s"] for j in r["jobs"]}}
                   for r in result["rounds"]],
        "failures": result["failures"],
    }
    if "spans_file" in result:
        report["spans_file"] = result["spans_file"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

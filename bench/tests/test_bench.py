"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

They run reduced job mixes in-process (the smallest classes of each
workload) so that they finish in well under a minute.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.fixture
def small_mix(monkeypatch):
    """Keep two cheap classes per workload."""
    monkeypatch.setattr(workloads, "EXACT_CLI_CLASSES",
                        workloads.EXACT_CLI_CLASSES[:2])
    monkeypatch.setattr(workloads, "FLOAT_SERIES_CLASSES",
                        tuple(c[:2] + (6,) + c[3:]
                              for c in workloads.FLOAT_SERIES_CLASSES[:2]))
    monkeypatch.setattr(workloads, "ANALYTIC_CLASSES",
                        workloads.ANALYTIC_CLASSES[:2])


def _bindings():
    """Every module and class attribute of the package, by identity."""
    import fuchslin.cli  # noqa: F401  (the last module a round imports)
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if name != "fuchslin" and not name.startswith("fuchslin."):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = id(member)
    return seen


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["wall_s", "setup_s", "peak_rss_mb"]
    assert [m["name"] for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER) + ["trace_overhead"] + \
        list(run.ACCURACY.values())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    for name, unit_better in tracing.PER_LAYER.items():
        assert declared[name] == unit_better, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    first = workloads.generate(workload, 5, 2)
    assert first == workloads.generate(workload, 5, 2)
    assert first != workloads.generate(workload, 6, 2)
    assert first != workloads.generate(workload, 5, 3)
    if workload == "exact-cli":
        docs = [workloads.to_document(job) for job in first]
        assert docs == [workloads.to_document(job)
                        for job in workloads.generate(workload, 5, 2)]


def test_documents_load_in_exact_mode(tmp_path):
    from fuchslin import document
    for k, job in enumerate(workloads.generate("exact-cli", 1, 0)):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(workloads.to_document(job)))
        doc = document.load_document(str(path), exact=True)
        assert (doc.dimension, doc.s) == (job["d"], job["S"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_cleans_up(workload, small_mix):
    before = _bindings()
    plain = worker.run_round(workload, 3, 0, False, time.monotonic())
    traced = worker.run_round(workload, 3, 0, True, time.monotonic())
    again = worker.run_round(workload, 3, 0, True, time.monotonic())

    assert not any(j["wrong"] for j in plain["jobs"] + traced["jobs"])
    assert [j["digest"] for j in plain["jobs"]] == \
        [j["digest"] for j in traced["jobs"]]
    assert all(j["digest"] for j in plain["jobs"])

    assert traced["wrappers_left"] == [] and again["wrappers_left"] == []
    assert _bindings() == before

    assert list(traced["per_layer"]) == list(tracing.PER_LAYER)
    for name, (unit, _) in tracing.PER_LAYER.items():
        if unit in ("count", "bytes"):
            assert traced["per_layer"][name] == again["per_layer"][name], name


def test_traced_run_sees_the_layers_it_should(small_mix):
    exact = worker.run_round("exact-cli", 1, 0, True, time.monotonic())
    layer = exact["per_layer"]
    assert layer["exact.mul_calls"] > 0 and layer["cli.self_s"] > 0
    assert layer["document.report_bytes"] > 0
    assert layer["analytic.solve_ivp_calls"] == 0

    analytic = worker.run_round("analytic-route", 1, 0, True, time.monotonic())
    layer = analytic["per_layer"]
    assert layer["analytic.solve_ivp_calls"] > 0
    assert layer["analytic.ode_rhs_evals"] >= layer["analytic.solve_ivp_calls"]
    assert layer["correction.shift_up_calls"] >= 1   # the nonpositive class
    assert layer["engine.compose_calls"] == 0
    assert 0.0 <= layer["analytic.cert_margin_min"] <= 1.0


def test_a_changed_exact_report_is_wrong(small_mix, monkeypatch):
    first = worker.run_round("exact-cli", 2, 0, False, time.monotonic())
    assert not any(j["failed"] for j in first["jobs"])
    forged = {job["key"]: "0" * 64 for job in first["jobs"]}
    monkeypatch.setattr(worker, "recorded_digests", lambda: forged)
    second = worker.run_round("exact-cli", 2, 0, False, time.monotonic())
    assert all(j["wrong"] for j in second["jobs"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_count_does_not_depend_on_speed(workload, monkeypatch):
    """Jobs attempted (hence failed) are fixed by seed and --seconds."""
    rounds_started = []
    for delay in (0.0, 0.05):
        calls = []

        def fake_worker(workload, seed, round_index, trace, deadline,
                        delay=delay, calls=calls):
            calls.append(round_index)
            time.sleep(delay)
            job = {"id": f"r{round_index}", "class": "c", "failed": False,
                   "wrong": False, "notes": [], "wall_s": 0.1, "stages": {},
                   "accuracy": 0.0}
            return {"round": round_index, "jobs": [job], "probe_s": 0.5,
                    "calib_s": [0.03, 0.03], "setup_s": 0.5,
                    "peak_rss_mb": 1.0, "wrappers_left": []}

        monkeypatch.setattr(run, "run_worker", fake_worker)
        result = run.untraced(workload, 1, 0.1, time.monotonic())
        assert result["attempted"] == len(calls)
        rounds_started.append(calls)
    assert rounds_started[0] == rounds_started[1] == \
        list(range(run.round_count(workload, 0.1)))
    assert run.round_count(workload, 40) >= run.MIN_ROUNDS

"""Self-tests for the benchmark. Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
from measure import PROBE_REF_S, TAIL_MIN_SAMPLES, SpeedProbe, tail
from tracing import PER_LAYER, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tail_needs_ten_samples_beyond_it():
    assert TAIL_MIN_SAMPLES == 100
    assert tail(list(range(100))) == 89
    assert tail(list(range(200, 0, -1))) == 180
    with pytest.raises(ValueError):
        tail(list(range(99)))


def test_speed_probe_uses_the_samples_that_bracket_a_span():
    probe = SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    probe.samples = [0.001, 0.003, 0.002, 0.004, 0.002]
    assert probe.factor(1.5, 1.9) == pytest.approx(PROBE_REF_S / 0.0025)
    assert probe.factor(0.5, 3.5) == pytest.approx(PROBE_REF_S / 0.0024)
    assert probe.factor(4.5, 4.9) == pytest.approx(PROBE_REF_S / 0.002)
    assert probe.spent(0.5, 3.5) == pytest.approx(0.009)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0, True],
        ["b", 1.0, 4.0, 0, 0, True],
        ["c", 2.0, 3.0, 1, 0, True],
        ["d", 3.5, 6.0, 0, 0, True],  # overlaps b: the union [1, 6] is covered once
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.5])


def test_tracer_nests_spans_and_restores_patched_attributes():
    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Layer.inner(x) * 2

    class Mod:
        pass

    Mod.outer = staticmethod(outer)
    original = Layer.__dict__["inner"]
    tracer = Tracer()
    targets = [(Layer, "inner", "span", "inner"), (Mod, "outer", "count", "outer")]
    with tracer.installed(targets):
        tracer.begin_request("r")
        with tracer.span("top"):
            assert Mod.outer(1) == 4
    assert Layer.__dict__["inner"] is original
    assert [s[0] for s in tracer.spans] == ["top", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 0
    assert tracer.counts["outer"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert inputs.input_digest(workload, 7) == inputs.input_digest(workload, 7)
    assert inputs.input_digest(workload, 7) != inputs.input_digest(workload, 8)


def test_analyze_round_covers_every_request_cell():
    rounds = inputs.analyze_rounds(3)
    assert len({json.dumps([r.name, r.advice]) for requests in rounds for r in requests}) > 94
    requests = rounds[0]
    assert len(requests) == 94
    assert {(r.players, r.menu_kind, r.support_kind, r.mode) for r in requests} == {
        (p, m, s, mode)
        for p in inputs.PLAYERS
        for m in inputs.MENU_KINDS
        for s in inputs.SUPPORTS
        for mode in inputs.MODES
    }
    for r in requests:
        assert abs(sum(p for _, p in r.advice) - 1.0) < 1e-12
        assert all(not menu[0].sanctions for menu in r.menus)


def test_analyze_check_rejects_a_wrong_verdict(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from normsim import cli
    from workloads import _analyze_round, _write_requests

    requests = [r for r in inputs.analyze_rounds(5)[0] if r.players == 2][:12]
    argvs = _write_requests(requests, tmp_path)
    for r, (_, _, rc, stdout, error) in zip(requests, _analyze_round(cli, argvs, None)):
        assert error is None and checks.check_analyze(r, rc, stdout) == []
        wrong = json.loads(stdout)
        wrong["advice"]["holds"] = not wrong["advice"]["holds"]
        assert checks.check_analyze(r, rc, json.dumps(wrong))


def test_benchmark_json_names_what_the_code_reports():
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(PER_LAYER.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_all_runs_every_workload_and_prefixes_its_metrics():
    result = _result(_run("--seed", "2", "--seconds", "1", "--trace", "0"))
    assert result["correct"] is True
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]
    }


def test_traced_counts_repeat_exactly_and_show_the_underflow():
    runs = [
        _result(_run("--workload", "crowded_village", "--seed", "4", "--trace", "1"))
        for _ in range(2)
    ]
    for result in runs:
        assert set(result["metrics"]) == set(PER_LAYER)
        assert result["failed"] > 0
        assert result["metrics"]["agents.wm_update.failed"]["value"] > 0
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs
    ]
    assert counts[0] == counts[1]


def test_fails_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

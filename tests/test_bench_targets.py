"""The benchmark's call sites, run on seed 1 in the quick suite.

The tracer wraps normsim functions and agent methods by name, looking each one
up in its owner's `__dict__`, and each workload calls normsim through a few
helpers of `bench/workloads.py`. A traced name that moves or goes, or a
refactor that breaks a helper's calls or outputs, breaks every benchmark run;
these guards show it in the quick suite, not only in the benchmark's own slow
self-tests."""
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("cli", "games", "sanctions", "orchard", "agents", "harness")
SEED = 1


@pytest.fixture
def bench(monkeypatch):
    """The bench modules, importable by their own names as `bench/run.py` sets them up."""
    monkeypatch.syspath_prepend(str(BENCH))
    return types.SimpleNamespace(**{name: importlib.import_module(name)
                                    for name in ("tracing", "inputs", "checks", "workloads")})


@pytest.fixture
def normsim():
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"normsim.{name}") for name in MODULES})


def test_every_traced_name_is_defined_where_the_tracer_looks(bench, normsim):
    targets = bench.tracing.normsim_targets(normsim)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in owner.__dict__]
    assert missing == []


def test_village_episodes_pass_the_bench_checks(bench, normsim):
    """One crowded_village config of each (N, mode), its completed steps checked."""
    seen = set()
    for config in bench.inputs.village_configs(SEED):
        sim = normsim.harness.parse_sim_config(config)
        key = sim.env.num_background, sim.env.background_mode
        if key in seen:
            continue
        seen.add(key)
        _, step_s, _, dump, digest = bench.workloads._episode(normsim, sim, None, None)
        assert len(step_s) == len(dump["steps"]) >= 1
        assert bench.checks.check_village(config, dump) == []
        assert bench.workloads._episode(normsim, sim, None, None)[4] == digest
    assert len(seen) == 4


def test_grid_passes_pass_the_bench_checks(bench, normsim, tmp_path):
    """Both default grids at jobs 1 and 2 write the same files."""
    harness = normsim.harness
    cfgs = [harness.parse_experiment_config(c) for c in bench.inputs.grid_configs(SEED)]
    _, rows, serial = bench.workloads._grid_pass(harness, cfgs, tmp_path / "jobs1", 1)
    assert bench.workloads._check_rows(rows) == []
    assert not [row.status for row in rows if row.status.startswith("failed")]
    _, parallel_rows, parallel = bench.workloads._grid_pass(harness, cfgs, tmp_path / "jobs2", 2)
    assert (parallel_rows, parallel) == (rows, serial)


def test_analyze_requests_pass_the_bench_checks(bench, normsim, tmp_path):
    """A few 2-player sanction_analysis requests of each menu kind."""
    requests = [r for r in bench.inputs.analyze_rounds(SEED)[0] if r.players == 2]
    requests = [r for kind in bench.inputs.MENU_KINDS
                for r in [r for r in requests if r.menu_kind == kind][:2]]
    assert len(requests) == 2 * len(bench.inputs.MENU_KINDS)
    argvs = bench.workloads._write_requests(requests, tmp_path / "round")
    results = bench.workloads._analyze_round(normsim.cli, argvs, None)
    for r, (_, _, rc, stdout, error) in zip(requests, results):
        assert error is None, r.name
        assert bench.checks.check_analyze(r, rc, stdout) == []

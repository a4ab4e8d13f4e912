"""Experiment harness: grids, seeding, aggregation, files, config parsing."""
import dataclasses
import json
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from normsim import harness
from normsim.harness import ConfigError, ExperimentConfig, TrialResult
from normsim.institutions import Institution, make_institution
from normsim.orchard import EnvConfig


def small_cfg(**kwargs):
    kwargs.setdefault("num_crops_grid", (2,))
    kwargs.setdefault("num_background_grid", (1, 2))
    kwargs.setdefault("trials", 2)
    kwargs.setdefault("env_overrides", (("max_timesteps", 6), ("eval_window", 3)))
    return ExperimentConfig("single_nonauthoritative", **kwargs)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="experiment"):
        ExperimentConfig("harvest_festival")
    with pytest.raises(ValueError, match="focal_kinds"):
        ExperimentConfig("single_nonauthoritative", focal_kinds=("normative", "normative"))
    with pytest.raises(ValueError, match="num_background_grid"):
        ExperimentConfig("single_nonauthoritative", num_background_grid=(0,))
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig("single_nonauthoritative", trials=0)
    with pytest.raises(ValueError, match="not permitted"):
        ExperimentConfig("single_nonauthoritative", env_overrides=(("seed", 1),))
    for num_crops in (1, 9):
        with pytest.raises(ValueError, match=r"num_crops must be in \[2, 5\]"):
            ExperimentConfig("multi_institution", num_crops=num_crops)
    with pytest.raises(ValueError, match="seed_base must be >= 0"):
        ExperimentConfig("single_nonauthoritative", seed_base=-1)


def test_grid_declaration_order():
    cfg = ExperimentConfig("single_nonauthoritative", num_crops_grid=(2, 3),
                           num_background_grid=(1, 2))
    assert cfg.grid() == ((2, 1), (2, 2), (3, 1), (3, 2))
    multi = ExperimentConfig("multi_institution", num_institutions_grid=(2, 3),
                             num_background_grid=(4,))
    assert multi.grid() == ((2, 4), (3, 4))


def test_trial_seed():
    a = harness.trial_seed(42, "single_nonauthoritative", (2, 1), 0)
    assert a == harness.trial_seed(42, "single_nonauthoritative", (2, 1), 0)
    seeds = {
        harness.trial_seed(42, exp, (c1, c2), t)
        for exp in harness.EXPERIMENTS
        for c1 in (2, 3)
        for c2 in (1, 2)
        for t in (0, 1, 2)
    }
    assert len(seeds) == 24
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert harness.trial_seed(43, "single_nonauthoritative", (2, 1), 0) != a


def test_cell_infeasible():
    cfg = ExperimentConfig("multi_institution")
    assert harness.cell_infeasible(cfg, (5, 1)) is None
    reason = harness.cell_infeasible(cfg, (6, 1))
    assert "6 institutions" in reason
    assert harness.cell_infeasible(small_cfg(), (6, 1)) is None


def test_cell_env_single_nonauthoritative():
    env = harness.cell_env(small_cfg(), (3, 2), seed=99)
    assert env.num_crops == 3 and env.crop_names == ("apples", "bananas", "peaches")
    assert env.num_background == 2
    assert env.background_mode == "defy_institution"
    assert len(env.institutions) == 1 and not env.institutions[0].authoritative
    assert env.seed == 99
    assert env.max_timesteps == 6 and env.eval_window == 3  # overrides applied


def test_cell_env_multi_institution():
    cfg = ExperimentConfig("multi_institution", num_crops=4)
    env = harness.cell_env(cfg, (3, 2), seed=7)
    assert env.num_crops == 4
    assert [inst.crops for inst in env.institutions] == [(0,), (1,), (2,)]
    assert [inst.authoritative for inst in env.institutions] == [True, False, False]
    assert env.background_mode == "follow_authoritative"


# Reference copies of the per-family cell code before `cell_shape`: each family
# spelled out in its own branch.
def ref_grid(self) -> tuple[tuple[int, int], ...]:
    """Cell coordinates in declaration order."""
    if self.experiment == "single_nonauthoritative":
        return tuple(product(self.num_crops_grid, self.num_background_grid))
    return tuple(product(self.num_institutions_grid, self.num_background_grid))


def ref_cell_infeasible(cfg: ExperimentConfig, coords: tuple[int, int]) -> str | None:
    """A reason string when the cell cannot be built, else None."""
    if cfg.experiment == "multi_institution":
        k = coords[0]
        if k > cfg.num_crops:
            return f"{k} institutions need {k} distinct crops but only {cfg.num_crops} exist"
    return None


def ref_cell_env(cfg: ExperimentConfig, coords: tuple[int, int], seed: int) -> EnvConfig:
    """The EnvConfig for one grid cell."""
    overrides = dict(cfg.env_overrides)
    if cfg.experiment == "single_nonauthoritative":
        num_crops, num_background = coords
        institutions = (make_institution(0, crop=0, authoritative=False),)
        mode = "defy_institution"
    else:
        k, num_background = coords
        num_crops = cfg.num_crops
        institutions = tuple(
            make_institution(i, crop=i, authoritative=(i == 0)) for i in range(k)
        )
        mode = "follow_authoritative"
    return EnvConfig(
        institutions=institutions,
        num_background=num_background,
        background_mode=mode,
        num_crops=num_crops,
        seed=seed,
        **overrides,
    )


def ref_reference_institution(env: EnvConfig) -> int:
    authoritative = [inst.id for inst in env.institutions if inst.authoritative]
    return authoritative[0] if authoritative else env.institutions[0].id


def ref_cell_shape(cfg: ExperimentConfig, coords: tuple[int, int]) -> tuple[int, int, int]:
    """(num_crops, num_background, num_institutions) for the metrics row."""
    if cfg.experiment == "single_nonauthoritative":
        return coords[0], coords[1], 1
    return cfg.num_crops, coords[1], coords[0]


def random_overrides(rng) -> tuple[tuple[str, float], ...]:
    """A random subset of the permitted env overrides, some of them out of range."""
    draw = {
        "discussion_turns": lambda: int(rng.integers(-1, 4)),
        "max_timesteps": lambda: int(rng.integers(0, 12)),
        "eval_window": lambda: int(rng.integers(0, 12)),
        "harvest_reward": lambda: float(rng.choice([-1.0, 1.0, 2.5, 1e308])),
    }
    keys = [k for k in harness.ENV_OVERRIDE_KEYS if rng.random() < 0.4]
    return tuple((k, draw[k]() if k in draw else float(rng.uniform(-0.2, 1.0))) for k in keys)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(8))
def test_cell_shape_matches_per_family_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        axis = lambda: tuple(int(v) for v in rng.choice(np.arange(1, 7), rng.integers(1, 4), False))
        cfg = ExperimentConfig(
            str(rng.choice(harness.EXPERIMENTS)),
            num_crops_grid=axis(), num_background_grid=axis(), num_institutions_grid=axis(),
            num_crops=int(rng.integers(2, 6)), env_overrides=random_overrides(rng),
        )
        assert cfg.grid() == ref_grid(cfg)
        for coords in cfg.grid():
            assert harness.cell_shape(cfg, coords) == ref_cell_shape(cfg, coords)
            assert harness.cell_infeasible(cfg, coords) == ref_cell_infeasible(cfg, coords)
            env = outcome(harness.cell_env, cfg, coords, seed)
            assert env == outcome(ref_cell_env, cfg, coords, seed)
            if isinstance(env, EnvConfig):
                assert ref_reference_institution(env) == 0  # run_cell's reference institution


def test_run_cell_statuses():
    ok = harness.run_cell(small_cfg(), (2, 1), "normative", 0)
    assert ok.status == "ok"
    assert ok.alignment_inst is not None and ok.transcript.startswith("=" * 50)

    skipped = harness.run_cell(ExperimentConfig("multi_institution"), (6, 1), "normative", 0)
    assert skipped.status.startswith("skipped: ")
    assert skipped.alignment_inst is None and skipped.transcript == ""

    broken = small_cfg(env_overrides=(("eval_window", 20),))
    failed = harness.run_cell(broken, (2, 1), "normative", 0)
    assert failed.status.startswith("failed: ValueError: eval_window")


def test_failed_status_is_one_line(tmp_path, monkeypatch):
    def two_line_failure(env, agents):
        raise ValueError("first problem\nsecond problem")

    monkeypatch.setattr(harness, "run_episode", two_line_failure)
    harness.run_experiment(small_cfg(num_background_grid=(1,), trials=1), tmp_path, jobs=1)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2  # the header and the one cell's row
    assert lines[1].endswith(",failed: ValueError: first problem; second problem")


def trial(status="ok", inst=1.0, comm=0.0, steps=2, welfare=4.0):
    return TrialResult(status,
                       None if status != "ok" else inst,
                       None if status != "ok" else comm,
                       None if status != "ok" else steps,
                       None if status != "ok" else welfare)


def test_aggregate_population_std():
    cfg = small_cfg(trials=3)
    results = [trial(inst=1.0), trial(inst=0.0), trial(inst=0.5)]
    row = harness._aggregate(cfg, "normative", (2, 1), results)
    assert row.trial_count == 3
    assert row.alignment_inst_mean == 0.5
    assert row.alignment_inst_std == np.array([1.0, 0.0, 0.5]).std()  # ddof=0
    assert row.alignment_inst_std == pytest.approx(0.408248290463863)
    assert (row.num_crops, row.num_background, row.num_institutions) == (2, 1, 1)


def test_aggregate_bad_statuses():
    cfg = small_cfg(trials=2)
    skipped = harness._aggregate(cfg, "normative", (2, 1), [trial("skipped: nope")] * 2)
    assert skipped.trial_count == 0 and skipped.status == "skipped: nope"
    assert skipped.alignment_inst_mean is None
    failed = harness._aggregate(cfg, "normative", (2, 1), [trial(), trial("failed: boom")])
    assert failed.status == "failed: boom" and failed.trial_count == 2
    assert failed.group_welfare_mean is None


def test_run_experiment_files(tmp_path):
    cfg = small_cfg(focal_kinds=("normative", "baseline"))
    rows = harness.run_experiment(cfg, tmp_path, jobs=1)
    assert len(rows) == 4  # 2 kinds x 2 cells
    assert [r.focal_kind for r in rows] == ["normative", "normative", "baseline", "baseline"]
    assert all(r.status == "ok" and r.trial_count == 2 for r in rows)

    csv_text = (tmp_path / "metrics.csv").read_text()
    assert csv_text.splitlines()[0] == harness.METRICS_HEADER
    assert len(csv_text.splitlines()) == 5

    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["experiment"] == "single_nonauthoritative"
    assert payload["seed_base"] == 42 and payload["trials"] == 2
    assert [r["focal_kind"] for r in payload["rows"]] == [r.focal_kind for r in rows]

    transcripts = sorted(p.name for p in tmp_path.glob("ep_*.txt"))
    assert transcripts == [
        "ep_baseline-2-1_0.txt", "ep_baseline-2-1_1.txt",
        "ep_baseline-2-2_0.txt", "ep_baseline-2-2_1.txt",
        "ep_normative-2-1_0.txt", "ep_normative-2-1_1.txt",
        "ep_normative-2-2_0.txt", "ep_normative-2-2_1.txt",
    ]


def test_run_experiment_jobs_invariance(tmp_path):
    cfg = small_cfg(num_background_grid=(1,), env_overrides=(("max_timesteps", 4), ("eval_window", 2)))
    harness.run_experiment(cfg, tmp_path / "serial", jobs=1)
    harness.run_experiment(cfg, tmp_path / "pool", jobs=2)
    assert (tmp_path / "serial/metrics.csv").read_bytes() == (tmp_path / "pool/metrics.csv").read_bytes()
    assert (tmp_path / "serial/metrics.json").read_bytes() == (tmp_path / "pool/metrics.json").read_bytes()


def test_run_experiment_pool_never_outnumbers_tasks(tmp_path, monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = small_cfg(env_overrides=(("max_timesteps", 4), ("eval_window", 2)))
    num_tasks = len(cfg.focal_kinds) * len(cfg.grid()) * cfg.trials
    harness.run_experiment(cfg, tmp_path / "serial", jobs=1)
    harness.run_experiment(cfg, tmp_path / "wide", jobs=5000)
    assert sizes == [num_tasks]
    for name in ("metrics.csv", "metrics.json"):
        assert (tmp_path / "wide" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_skipped_cells_leave_metrics_empty(tmp_path):
    cfg = ExperimentConfig(
        "multi_institution",
        num_institutions_grid=(2, 6),
        num_background_grid=(1,),
        trials=1,
        env_overrides=(("max_timesteps", 4), ("eval_window", 2)),
    )
    rows = harness.run_experiment(cfg, tmp_path, jobs=1)
    assert rows[0].status == "ok"
    assert rows[1].status.startswith("skipped")
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[2].split(",")[:6] == ["multi_institution", "normative", "5", "1", "6", "0"]
    assert ",,,,,," in lines[2]
    assert not list(tmp_path.glob("ep_*-6-1_*.txt"))


def test_load_metrics_roundtrip(tmp_path):
    cfg = small_cfg()
    rows = harness.run_experiment(cfg, tmp_path, jobs=1)
    from_json = harness.load_metrics(tmp_path / "metrics.json")
    from_csv = harness.load_metrics(tmp_path / "metrics.csv")
    assert len(from_json) == len(from_csv) == len(rows)
    for a, b in zip(from_json, from_csv):
        assert set(a) == set(b) == set(harness.METRICS_HEADER.split(","))
        for key, value in a.items():
            if isinstance(value, float):
                assert b[key] == pytest.approx(value, abs=5e-7)
            else:
                assert b[key] == value


def test_load_metrics_schema_errors(tmp_path):
    bad_json = tmp_path / "m.json"
    bad_json.write_text(json.dumps({"rows": [{"experiment": "x"}]}))
    with pytest.raises(ConfigError, match="row schema"):
        harness.load_metrics(bad_json)
    bad_json.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError, match="rows"):
        harness.load_metrics(bad_json)
    bad_csv = tmp_path / "m.csv"
    bad_csv.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        harness.load_metrics(bad_csv)
    # every column holds the type the CSV path converts to
    for key, value in [("num_crops", "five"), ("alignment_inst_mean", "0.5"),
                       ("focal_kind", ["normative"]), ("trial_count", True),
                       ("trial_count", 3.0), ("group_welfare_mean", 1e400), ("status", None)]:
        bad_json.write_text(json.dumps({"rows": [{**metric_row("baseline", 1.0, 0.0, 3.5),
                                                  key: value}]}))
        with pytest.raises(ConfigError, match="value types"):
            harness.load_metrics(bad_json)
    good = {**metric_row("baseline", 1, None, 3.5), "steps_to_convergence_mean": None}
    bad_json.write_text(json.dumps({"rows": [good]}))
    assert harness.load_metrics(bad_json) == [good]
    # a CSV row with too few or too many fields, a non-finite number, or a cell
    # that is no number, which names its column
    def csv_row(**cells):
        values = {**metric_row("baseline", 1.0, 0.0, 3.5), **cells}.values()
        return ",".join(harness.format_value(v) for v in values)

    row = csv_row()
    for line, match in [("single_nonauthoritative,baseline,2", "row schema"),
                        (row + ",extra", "row schema"),
                        (row.replace("3.500000", "nan"), "value types"),
                        (row.replace("3.500000", "inf"), "value types"),
                        (csv_row(num_crops="five"), "m.csv: num_crops 'five' is not a number"),
                        (csv_row(alignment_comm_mean="high"),
                         "m.csv: alignment_comm_mean 'high' is not a number")]:
        bad_csv.write_text(f"{harness.METRICS_HEADER}\n{line}\n")
        with pytest.raises(ConfigError, match=match):
            harness.load_metrics(bad_csv)
    bad_csv.write_text(f"{harness.METRICS_HEADER}\n{row}\n")
    assert harness.load_metrics(bad_csv)[0]["group_welfare_mean"] == 3.5


def metric_row(kind, inst, comm, welfare, experiment="single_nonauthoritative",
               crops=2, background=1, institutions=1):
    return {
        "experiment": experiment, "focal_kind": kind, "num_crops": crops,
        "num_background": background, "num_institutions": institutions,
        "trial_count": 3, "alignment_inst_mean": inst, "alignment_inst_std": 0.0,
        "alignment_comm_mean": comm, "alignment_comm_std": 0.0,
        "steps_to_convergence_mean": 1.0, "group_welfare_mean": welfare, "status": "ok",
    }


def test_build_comparison():
    rows = [
        metric_row("normative", 0.0, 1.0, 4.0),
        metric_row("baseline", 1.0, 0.0, 3.5),
        metric_row("normative", 0.5, 0.5, 9.0, crops=3, background=2),
    ]
    cells = harness.build_comparison(rows)
    assert len(cells) == 2
    first = cells[0]
    assert (first["normative_alignment_inst"], first["baseline_alignment_inst"]) == (0.0, 1.0)
    assert (first["normative_welfare"], first["baseline_welfare"]) == (4.0, 3.5)
    lonely = cells[1]
    assert lonely["baseline_welfare"] is None
    assert lonely["normative_welfare"] == 9.0


def test_comparison_table_layout():
    cells = harness.build_comparison([
        metric_row("normative", 0.0, 1.0, 4.0),
        metric_row("baseline", 1.0, 0.0, 3.5),
    ])
    table = harness.comparison_table(cells)
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["experiment", "num_crops"]
    assert "0.000000" in lines[1] and "3.500000" in lines[1]
    assert all(line == line.rstrip() for line in lines)


def test_parse_sim_config_minimal():
    cfg = harness.parse_sim_config(
        {"env": {"institutions": [{"crop": "apples", "authoritative": True}], "num_background": 2}}
    )
    assert cfg.focal_kind == "normative" and cfg.oracle_kind == "scripted"
    assert cfg.env.num_background == 2 and cfg.env.num_crops == 5
    assert cfg.env.institutions[0].name == "Ophilia"
    assert cfg.chat is None


def test_parse_sim_config_chat():
    cfg = harness.parse_sim_config({
        "env": {"institutions": [{"crop": "apples", "authoritative": True}]},
        "focal": "baseline",
        "oracle": {"kind": "chat", "base_url": "http://localhost:9", "model": "m",
                   "temperature": 0.5},
    })
    assert cfg.oracle_kind == "chat"
    assert cfg.chat.base_url == "http://localhost:9"
    assert cfg.chat.temperature == 0.5 and cfg.chat.timeout_secs == 60.0
    # default num_background when the key is absent
    assert cfg.env.num_background == 4


def test_parse_sim_config_scripted_keeps_chat_settings():
    cfg = harness.parse_sim_config({
        "env": {"institutions": [{"crop": "apples", "authoritative": True}]},
        "oracle": {"kind": "scripted", "base_url": "http://localhost:9", "model": "m",
                   "timeout_secs": 0.5},
    })
    assert cfg.oracle_kind == "scripted"
    assert cfg.chat == harness.ChatConfig(base_url="http://localhost:9", model="m",
                                          timeout_secs=0.5)
    # one of the two is not enough, and is no error for the scripted oracle
    cfg = harness.parse_sim_config({
        "env": {"institutions": [{"crop": "apples", "authoritative": True}]},
        "oracle": {"kind": "scripted", "base_url": "http://localhost:9"},
    })
    assert cfg.chat is None
    with pytest.raises(ConfigError) as exc:
        harness.parse_sim_config({
            "env": {"institutions": [{"crop": "apples", "authoritative": True}]},
            "oracle": {"kind": "scripted", "base_url": "", "model": "m", "timeout_secs": 0},
        })
    assert exc.value.errors == (
        "oracle.timeout_secs must be > 0",
        "oracle.base_url is required for the chat oracle",
    )


def test_parse_sim_config_collects_every_error():
    with pytest.raises(ConfigError) as exc:
        harness.parse_sim_config({
            "bogus": 1,
            "focal": "wizard",
            "beta": 2.0,
            "env": {"num_background": -1, "background_mode": "riot",
                    "institutions": [{"crop": "corn"}]},
            "oracle": {"kind": "chat"},
        })
    errors = exc.value.errors
    joined = "\n".join(errors)
    for fragment in (
        "unknown key bogus",
        "focal must be one of",
        "beta must be in (0, 1)",
        "env.num_background must be >= 0",
        "env.background_mode must be one of",
        "unknown crop",
        "oracle.base_url is required",
        "oracle.model is required",
    ):
        assert fragment in joined, fragment
    assert str(exc.value) == joined

    with pytest.raises(ConfigError, match="env section is required"):
        harness.parse_sim_config({})
    with pytest.raises(ConfigError, match="JSON object"):
        harness.parse_sim_config([1])


def test_parse_sim_config_institution_entries():
    cfg = harness.parse_sim_config({"env": {"institutions": [
        {"name": "Ophilia", "crop": "bananas", "authoritative": True},
        {"rotation": ["plums", "apples"]},
    ]}})
    inst, rot = cfg.env.institutions
    assert inst.authoritative
    assert inst.crops == (1,)
    assert rot.name == "Bram"
    assert rot.crops == (4, 0)

    def entry_errors(entry) -> tuple[str, ...]:
        with pytest.raises(ConfigError) as exc:
            harness.parse_sim_config({"env": {"institutions": [entry]}})
        return exc.value.errors

    for bad, message in [
        ("nope", "must be an object"),
        ({"name": ""}, "name"),
        ({"crop": "mangoes"}, "unknown crop"),
        ({}, "'crop' or 'rotation'"),
        ({"crop": "apples", "authoritative": "yes"}, "authoritative"),
        ({"rotation": []}, "rotation"),
    ]:
        errors = entry_errors(bad)
        assert all(line.startswith("env.institutions[0]") for line in errors), errors
        assert any(message in line for line in errors), (bad, errors)
    # every fault of an entry is its own line: checks first, then its keys in order
    assert entry_errors({"bogus": 1, "crop": "mangoes", "authoritative": "yes"}) == (
        "env.institutions[0] names unknown crop 'mangoes'; "
        "expected one of apples, bananas, peaches, oranges, plums",
        "unknown key env.institutions[0].bogus",
        "env.institutions[0].authoritative must be a boolean",
    )
    with pytest.raises(ConfigError) as exc:
        harness.parse_sim_config({"env": 5})
    assert exc.value.errors == ("env must be an object",)


def test_parse_experiment_config():
    cfg = harness.parse_experiment_config({"experiment": "multi_institution"})
    assert cfg.focal_kinds == ("normative",)
    assert cfg.num_institutions_grid == (2, 3, 4, 5)
    assert cfg.trials == 3 and cfg.seed_base == 42

    cfg = harness.parse_experiment_config({
        "experiment": "single_nonauthoritative",
        "focal": ["normative", "baseline"],
        "num_crops_grid": [2, 3],
        "trials": 1,
        "seed_base": 7,
        "env": {"max_timesteps": 6, "eval_window": 3},
    })
    assert cfg.focal_kinds == ("normative", "baseline")
    assert cfg.num_crops_grid == (2, 3)
    assert dict(cfg.env_overrides) == {"max_timesteps": 6, "eval_window": 3}


def test_parse_experiment_config_collects_every_error():
    with pytest.raises(ConfigError) as exc:
        harness.parse_experiment_config({
            "experiment": "bake_off",
            "focal": ["normative", "normative"],
            "num_background_grid": [0],
            "trials": 0,
            "num_crops": 9,
            "env": {"seed": 1},
            "mystery": True,
        })
    joined = "\n".join(exc.value.errors)
    for fragment in (
        "unknown key mystery",
        "experiment must be one of",
        "focal must name distinct kinds",
        "num_background_grid must be a non-empty array",
        "trials must be >= 1",
        "num_crops must be in [2, 5]",
        "env override not permitted: seed",
    ):
        assert fragment in joined, fragment


# ---------------------------------------------------------------------------
# Config keys and JSON types, section by section (docs/config.md)
# ---------------------------------------------------------------------------

INT, NUM, BOOL = "an integer", "a number", "a boolean"
WRONG_TYPES = {
    INT: ["3", 4.5, 2.0, True, None, float("nan"), float("inf")],
    NUM: ["1", True, None, [1], float("nan"), float("inf"), float("-inf")],
    BOOL: [1, 0, "true", None],
}
INSTITUTIONS = [{"crop": "apples", "authoritative": True}]

# Each section's documented keys: key -> (JSON kind or None, a valid value).
ENV_DOC = {
    "institutions": (None, INSTITUTIONS),
    "num_background": (INT, 2),
    "background_mode": (None, "follow_authoritative"),
    "num_crops": (INT, 3),
    "discussion_turns": (INT, 2),
    "max_timesteps": (INT, 10),
    "eval_window": (INT, 4),
    "sanction_cost_received": (NUM, 0.5),
    "sanction_cost_sent": (NUM, 0),
    "harvest_reward": (NUM, 2),
    "monoculture_bonus": (NUM, 0.25),
    "seed": (INT, 7),
}
SIM_DOC = {
    "env": (None, {"institutions": INSTITUTIONS}),
    "focal": (None, "baseline"),
    "beta": (NUM, 0.3),
    "sanction_threshold": (NUM, 1),
    "observe_others": (BOOL, False),
    "oracle": (None, {"kind": "scripted"}),
}
ORACLE_DOC = {
    "kind": (None, "scripted"),
    "base_url": (None, "http://localhost:9"),
    "model": (None, "m"),
    "temperature": (NUM, 0.5),
    "timeout_secs": (NUM, 5),
}
EXPERIMENT_DOC = {
    "experiment": (None, "multi_institution"),
    "focal": (None, ["normative", "baseline"]),
    "num_crops_grid": (None, [2]),
    "num_background_grid": (None, [1]),
    "num_institutions_grid": (None, [2]),
    "num_crops": (INT, 4),
    "trials": (INT, 2),
    "seed_base": (INT, 5),
    "beta": (NUM, 0.3),
    "sanction_threshold": (NUM, 1),
    "observe_others": (BOOL, False),
    "env": (None, {}),
}
INSTITUTION_DOC = {
    "name": (None, "Ada"),
    "crop": (None, "bananas"),
    "rotation": (None, ["peaches", "plums"]),
    "authoritative": (BOOL, True),
}
OVERRIDE_DOC = {
    "discussion_turns": (INT, 2),
    "max_timesteps": (INT, 10),
    "eval_window": (INT, 4),
    "sanction_cost_received": (NUM, 0.5),
    "sanction_cost_sent": (NUM, 0),
    "harvest_reward": (NUM, 2),
    "monoculture_bonus": (NUM, 0.25),
}

class Section(NamedTuple):
    doc: dict  # the documented keys
    cls: type  # the config dataclass behind the section
    prefix: str  # of the section's error lines
    base: dict  # a valid section
    wrap: Callable  # section -> the whole config holding it
    parse: Callable
    unknown: str  # the error for a key the section refuses


SECTIONS = {
    "env": Section(
        ENV_DOC, harness.EnvConfig, "env.", {"institutions": INSTITUTIONS},
        lambda s: {"env": s}, harness.parse_sim_config, "unknown key env.{}",
    ),
    "simulate": Section(
        SIM_DOC, harness.SimConfig, "", {"env": {"institutions": INSTITUTIONS}},
        lambda s: s, harness.parse_sim_config, "unknown key {}",
    ),
    "oracle": Section(
        ORACLE_DOC, harness.ChatConfig, "oracle.",
        {"kind": "chat", "base_url": "http://localhost:9", "model": "m"},
        lambda s: {"env": {"institutions": INSTITUTIONS}, "oracle": s},
        harness.parse_sim_config, "unknown key oracle.{}",
    ),
    "scripted_oracle": Section(
        ORACLE_DOC, harness.ChatConfig, "oracle.", {"kind": "scripted"},
        lambda s: {"env": {"institutions": INSTITUTIONS}, "oracle": s},
        harness.parse_sim_config, "unknown key oracle.{}",
    ),
    "institution": Section(
        INSTITUTION_DOC, Institution, "env.institutions[0].",
        {"crop": "apples", "authoritative": True},
        lambda s: {"env": {"institutions": [s]}}, harness.parse_sim_config,
        "unknown key env.institutions[0].{}",
    ),
    "experiment": Section(
        EXPERIMENT_DOC, ExperimentConfig, "", {"experiment": "single_nonauthoritative"},
        lambda s: s, harness.parse_experiment_config, "unknown key {}",
    ),
    "env_overrides": Section(
        OVERRIDE_DOC, harness.EnvConfig, "env.", {},
        lambda s: {"experiment": "single_nonauthoritative", "env": s},
        harness.parse_experiment_config, "env override not permitted: {}",
    ),
}


def section_errors(section: str, changes: dict) -> list[str]:
    sec = SECTIONS[section]
    try:
        sec.parse(sec.wrap({**sec.base, **changes}))
    except ConfigError as exc:
        return list(exc.errors)
    return []


@pytest.mark.parametrize("section", SECTIONS)
def test_config_section_accepts_exactly_its_documented_keys(section):
    sec = SECTIONS[section]
    for key, (_, value) in sec.doc.items():
        assert section_errors(section, {key: value}) == [], key
    # every field of the config class that is not documented is refused
    candidates = {f.name for f in dataclasses.fields(sec.cls)} | {"bogus"}
    for key in sorted(candidates - set(sec.doc)):
        assert sec.unknown.format(key) in section_errors(section, {key: 1}), key
    docs = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    for key in sec.doc:
        assert f"`{key}`" in docs, key


@pytest.mark.parametrize("section", SECTIONS)
def test_config_section_wrong_types(section):
    sec = SECTIONS[section]
    typed = [(key, kind) for key, (kind, _) in sec.doc.items() if kind is not None]
    assert typed
    for key, kind in typed:
        for value in WRONG_TYPES[kind]:
            errors = section_errors(section, {key: value})
            assert errors == [f"{sec.prefix}{key} must be {kind}"], (key, value)


def test_config_numbers_become_floats():
    cfg = harness.parse_experiment_config({
        "experiment": "single_nonauthoritative", "beta": 1 / 4,
        "env": {"harvest_reward": 2, "max_timesteps": 10},
    })
    overrides = dict(cfg.env_overrides)
    assert overrides == {"harvest_reward": 2.0, "max_timesteps": 10}
    assert type(overrides["harvest_reward"]) is float and type(overrides["max_timesteps"]) is int
    sim = harness.parse_sim_config({"env": {"institutions": INSTITUTIONS, "sanction_cost_sent": 0}})
    assert type(sim.env.sanction_cost_sent) is float and sim.env.num_background == 4
    assert harness.ENV_OVERRIDE_KEYS == tuple(OVERRIDE_DOC)

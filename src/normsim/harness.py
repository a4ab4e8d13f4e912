"""Experiment grids: cell expansion, seeded trials, aggregation, persistence.

Two experiment families are built in. In both, institution i declares crop i,
and the background community reacts in unison to institution 0:

- `single_nonauthoritative`: one institution, which the community defies.
  Grid axes: number of crops x number of background agents.
- `multi_institution`: several institutions over `num_crops` crops; the
  community follows institution 0, the one authoritative institution. Grid
  axes: number of institutions x number of background agents.

`cell_shape` is the one place where the families' cells differ in shape.

Trials are embarrassingly parallel; workers return plain records and the
parent sorts them by cell coordinates before aggregating and writing files,
so output bytes cannot depend on scheduling; the process pool is imported
only for `jobs > 1`. Every float in metrics.csv is rendered with %.6f and the
across-trial std is the population std (ddof=0).
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import product, repeat, zip_longest
from pathlib import Path

import numpy as np

from .agents import _BETA, _OBSERVE_OTHERS, _SANCTION_THRESHOLD
from .agents import build_roster, learner_violations, roster_violations
from .games import _is_number, dumps_pretty, load_json
from .institutions import CROP_NAMES, Institution, institution_name, make_institution
from .oracle import ChatConfig
from .orchard import (
    WELFARE_OVERFLOW,
    EnvConfig,
    alignment_metric,
    group_welfare,
    raise_violations,
    render_transcript,
    run_episode,
    steps_to_convergence,
)

# Each experiment family, with the cell-shape field that its first grid axis
# sets. The second axis sets num_background; the field a family does not vary
# is fixed: one institution, or `num_crops` crops. The order seeds trials.
_FIRST_AXIS = {"single_nonauthoritative": "num_crops", "multi_institution": "num_institutions"}
EXPERIMENTS = tuple(_FIRST_AXIS)
FOCAL_KINDS = ("normative", "baseline")
GRID_AXES = ("num_crops_grid", "num_background_grid", "num_institutions_grid")

# The config field annotations a JSON scalar fills, with the JSON kind and its
# check. Annotations are strings: every config module imports
# `from __future__ import annotations`.
_JSON_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", _is_number),  # finite
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
}


def _settings(cls) -> dict[str, str]:
    """The integer, number and boolean fields of a config dataclass that have a
    default (so not `Institution.id`, an array position), each with its
    annotation, in declaration order."""
    return {f.name: f.type for f in fields(cls)
            if f.init and f.type in _JSON_KINDS and f.default is not MISSING}


# EnvConfig settings an experiment may override: all but those each cell sets.
ENV_OVERRIDE_KEYS = tuple(
    key for key in _settings(EnvConfig) if key not in ("num_crops", "num_background", "seed")
)


class ConfigError(ValueError):
    """A config file failed validation; `errors` lists every violation found."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    """A full grid definition. Axis fields not used by the experiment are ignored.

    Construction checks every range rule and raises one ValueError listing
    all violations, one per line.
    """

    experiment: str
    focal_kinds: tuple[str, ...] = ("normative",)
    num_crops_grid: tuple[int, ...] = (2, 3, 4, 5)
    num_background_grid: tuple[int, ...] = (1, 2, 3, 4, 5)
    num_institutions_grid: tuple[int, ...] = (2, 3, 4, 5)
    num_crops: int = 5  # crop count for multi_institution cells
    trials: int = 3
    seed_base: int = 42
    beta: float = _BETA
    sanction_threshold: float = _SANCTION_THRESHOLD
    observe_others: bool = _OBSERVE_OTHERS
    env_overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        kinds = tuple(self.focal_kinds)
        object.__setattr__(self, "focal_kinds", kinds)
        object.__setattr__(self, "env_overrides", tuple(self.env_overrides))
        violations = []
        if self.experiment not in EXPERIMENTS:
            violations.append(f"experiment must be one of {', '.join(EXPERIMENTS)}")
        if not kinds or any(k not in FOCAL_KINDS for k in kinds) or len(set(kinds)) != len(kinds):
            violations.append(
                f"focal must name distinct kinds from: {', '.join(FOCAL_KINDS)} (focal_kinds)"
            )
        for label in GRID_AXES:
            axis = getattr(self, label)
            if (
                not isinstance(axis, (list, tuple))
                or not axis
                or any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in axis)
            ):
                violations.append(f"{label} must be a non-empty array of positive integers")
            else:
                object.__setattr__(self, label, tuple(axis))
        if not 2 <= self.num_crops <= len(CROP_NAMES):
            violations.append(f"num_crops must be in [2, {len(CROP_NAMES)}]")
        if self.trials < 1:
            violations.append("trials must be >= 1")
        if self.seed_base < 0:
            violations.append("seed_base must be >= 0")
        violations += learner_violations(self.beta, self.sanction_threshold)
        bad = [k for k, _ in self.env_overrides if k not in ENV_OVERRIDE_KEYS]
        if bad:
            violations.append(f"env override not permitted: {', '.join(bad)}")
        raise_violations(violations)

    def grid(self) -> tuple[tuple[int, int], ...]:
        """Cell coordinates in declaration order: the family's first axis (see
        `cell_shape`) by `num_background_grid`."""
        first = getattr(self, _FIRST_AXIS[self.experiment] + "_grid")
        return tuple(product(first, self.num_background_grid))


def cell_shape(cfg: ExperimentConfig, coords: tuple[int, int]) -> tuple[int, int, int]:
    """(num_crops, num_background, num_institutions) of the cell at `coords`."""
    shape = {"num_crops": cfg.num_crops, "num_institutions": 1}
    shape[_FIRST_AXIS[cfg.experiment]] = coords[0]
    return shape["num_crops"], coords[1], shape["num_institutions"]


def trial_seed(seed_base: int, experiment: str, coords: tuple[int, int], trial: int) -> int:
    """64-bit episode seed from the run's seed and the trial's coordinates."""
    key = (EXPERIMENTS.index(experiment) + 1, coords[0], coords[1], trial)
    ss = np.random.SeedSequence(entropy=seed_base, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def cell_infeasible(cfg: ExperimentConfig, coords: tuple[int, int]) -> str | None:
    """A reason string when the cell cannot be built, else None."""
    num_crops, _, k = cell_shape(cfg, coords)
    if k > num_crops:
        return f"{k} institutions need {k} distinct crops but only {num_crops} exist"
    return None


def cell_env(cfg: ExperimentConfig, coords: tuple[int, int], seed: int) -> EnvConfig:
    """The EnvConfig for one grid cell."""
    num_crops, num_background, num_institutions = cell_shape(cfg, coords)
    follow = cfg.experiment == "multi_institution"
    return EnvConfig(
        institutions=tuple(make_institution(i, crop=i, authoritative=follow and i == 0)
                           for i in range(num_institutions)),
        num_background=num_background,
        background_mode="follow_authoritative" if follow else "defy_institution",
        num_crops=num_crops,
        seed=seed,
        **dict(cfg.env_overrides),
    )


@dataclass(frozen=True)
class TrialResult:
    """One episode's metrics, plus its transcript for the parent to persist."""

    status: str  # "ok" | "skipped: ..." | "failed: ..."
    alignment_inst: float | None = None
    alignment_comm: float | None = None
    steps: int | None = None
    welfare: float | None = None
    transcript: str = ""


def run_cell(
    cfg: ExperimentConfig, coords: tuple[int, int], focal_kind: str, trial: int
) -> TrialResult:
    """Run one seeded trial of one grid cell."""
    reason = cell_infeasible(cfg, coords)
    if reason is not None:
        return TrialResult(f"skipped: {reason}")
    seed = trial_seed(cfg.seed_base, cfg.experiment, coords, trial)
    try:
        env = cell_env(cfg, coords, seed)
        agents = build_roster(
            env,
            focal_kind,
            beta=cfg.beta,
            sanction_threshold=cfg.sanction_threshold,
            observe_others=cfg.observe_others,
        )
        history = run_episode(env, agents)
        return TrialResult(
            status="ok",
            # institution 0 is the one the village follows or defies
            alignment_inst=alignment_metric(history, env, 0),
            alignment_comm=alignment_metric(history, env, "community_modal"),
            steps=steps_to_convergence(history, env),
            welfare=group_welfare(history),
            transcript=render_transcript(history, env),
        )
    except Exception as exc:  # noqa: BLE001 - a failed trial must not sink the run
        reason = "; ".join(str(exc).splitlines())  # a status is one line of metrics.csv
        return TrialResult(f"failed: {type(exc).__name__}: {reason}")


def format_value(value) -> str:
    """A metrics cell as text: None is empty, floats get %.6f, the rest str()."""
    if value is None:
        return ""
    return "%.6f" % value if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class MetricsRow:
    """One grid cell aggregated over its trials."""

    experiment: str
    focal_kind: str
    num_crops: int
    num_background: int
    num_institutions: int
    trial_count: int
    alignment_inst_mean: float | None
    alignment_inst_std: float | None
    alignment_comm_mean: float | None
    alignment_comm_std: float | None
    steps_to_convergence_mean: float | None
    group_welfare_mean: float | None
    status: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> list[str]:
        return [format_value(v) for v in self.to_dict().values()]


_ROW_KEYS = tuple(f.name for f in fields(MetricsRow))
METRICS_HEADER = ",".join(_ROW_KEYS)


def _aggregate(cfg: ExperimentConfig, focal_kind: str, coords: tuple[int, int],
               results: list[TrialResult]) -> MetricsRow:
    bad = next((r for r in results if r.status != "ok"), None)
    if bad is None:
        inst = np.array([r.alignment_inst for r in results])
        comm = np.array([r.alignment_comm for r in results])
        steps = np.array([r.steps for r in results], dtype=float)
        welfare = np.array([r.welfare for r in results])
        # std is the population std over the trials
        stats = tuple(map(float, (inst.mean(), inst.std(), comm.mean(), comm.std(),
                                  steps.mean(), welfare.mean())))
        count, status = len(results), "ok"
    else:
        stats, status = (None,) * 6, bad.status
        count = 0 if status.startswith("skipped") else len(results)
    return MetricsRow(cfg.experiment, focal_kind, *cell_shape(cfg, coords), count, *stats, status)


def transcript_filename(focal_kind: str, coords: tuple[int, int], trial: int) -> str:
    return f"ep_{focal_kind}-{coords[0]}-{coords[1]}_{trial}.txt"


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ROW_KEYS)
        for row in rows:
            writer.writerow(row.to_csv_row())


def write_metrics_json(cfg: ExperimentConfig, rows: list[MetricsRow], path) -> None:
    payload = {
        "experiment": cfg.experiment,
        "seed_base": cfg.seed_base,
        "trials": cfg.trials,
        "rows": [row.to_dict() for row in rows],
    }
    Path(path).write_text(dumps_pretty(payload) + "\n", encoding="utf-8")


def run_experiment(
    cfg: ExperimentConfig, out_dir, jobs: int | None = None
) -> list[MetricsRow]:
    """Expand the grid, run every (cell, focal kind, trial), aggregate, persist.

    Writes metrics.csv, metrics.json, and one transcript per completed trial
    into `out_dir`; both metrics files are created before the first trial, so
    a path that cannot be written fails at once. Failed trials mark their row `failed: ...`; the caller
    decides the process exit code from the statuses.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("metrics.csv", "metrics.json"):  # an unusable path fails before any trial
        (out / name).write_bytes(b"")
    cells = [(kind, coords) for kind in cfg.focal_kinds for coords in cfg.grid()]
    tasks = [(kind, coords, trial) for kind, coords in cells for trial in range(cfg.trials)]
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(tasks))  # a pool starts all its workers up front
    kinds, coords_list, trials = zip(*tasks)
    args = (repeat(cfg), coords_list, kinds, trials)
    if jobs <= 1:
        outcomes = list(map(run_cell, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor
        chunksize = math.ceil(len(tasks) / (4 * jobs))  # a trial takes ms: ~4 chunks per worker
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_cell, *args, chunksize=chunksize))

    rows: list[MetricsRow] = []
    for k, (kind, coords) in enumerate(cells):  # each cell's trials are one slice, in task order
        cell = outcomes[k * cfg.trials:(k + 1) * cfg.trials]
        rows.append(_aggregate(cfg, kind, coords, cell))
        for t, r in enumerate(cell):
            if r.status == "ok":
                name = transcript_filename(kind, coords, t)
                (out / name).write_text(r.transcript, encoding="utf-8")
    write_metrics_csv(rows, out / "metrics.csv")
    write_metrics_json(cfg, rows, out / "metrics.json")
    return rows


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def _read_settings(obj: dict, cls, errors: list[str], prefix: str = "", other_keys=None) -> dict:
    """The settings of `cls` (see `_settings`) present in the JSON object `obj`,
    each checked against its JSON kind; numbers must be finite and become
    floats. Wrong types are reported in `errors` and left out, so defaults
    apply. Unless `other_keys` is None, every key that is neither a setting nor
    one of `other_keys` is reported as unknown. Faults come in `obj`'s key
    order. Every config section, institution entries included, is read here."""
    settings = _settings(cls)
    out = {}
    for key, value in obj.items():
        if key not in settings:
            if other_keys is not None and key not in other_keys:
                errors.append(f"unknown key {prefix}{key}")
            continue
        kind, check = _JSON_KINDS[settings[key]]
        if not check(value):
            errors.append(f"{prefix}{key} must be {kind}")
        else:
            out[key] = float(value) if kind == "a number" else value
    return out


def _fold(build, errors: list[str], prefix: str = ""):
    """Call `build`; a ValueError's lines join `errors` (with `prefix`) and give None."""
    try:
        return build()
    except ValueError as exc:
        errors.extend(prefix + line for line in str(exc).splitlines())
        return None


def _read_institution(entry, idx: int, crop_names: tuple[str, ...], errors: list[str]):
    """Build institution `idx` from its `env.institutions` entry, or append each
    of its faults to `errors` and give None. An entry declares one "crop" or a
    "rotation" of crops, named from `crop_names`; a rotation wins over a crop."""
    where = f"env.institutions[{idx}]"
    if not isinstance(entry, dict):
        errors.append(f"{where} must be an object")
        return None
    found: list[str] = []
    name = entry.get("name", institution_name(idx))
    if not isinstance(name, str) or not name:
        found.append(f"{where}.name must be a non-empty string")
    if "rotation" in entry:
        labels = entry["rotation"]
        if not isinstance(labels, (list, tuple)) or not labels:
            found.append(f"{where}.rotation must be a non-empty array")
            labels = ()
    elif "crop" in entry:
        labels = (entry["crop"],)
    else:
        found.append(f"{where} needs 'crop' or 'rotation'")
        labels = ()
    found += [
        f"{where} names unknown crop {label!r}; expected one of {', '.join(crop_names)}"
        for label in labels if not isinstance(label, str) or label not in crop_names
    ]
    settings = _read_settings(entry, Institution, found, where + ".", ("name", "crop", "rotation"))
    errors.extend(found)
    if found:
        return None
    return Institution(idx, name, tuple(map(crop_names.index, labels)), **settings)


def parse_env_config(obj, errors: list[str]) -> EnvConfig | None:
    """Check a simulate config's `env` section and build it; every violation,
    of shape, of an institution entry, of EnvConfig's range rules or of the
    roster rules, is appended to `errors` with the `env.` prefix."""
    if not isinstance(obj, dict):
        errors.append("env must be an object")
        return None
    found: list[str] = []
    kwargs = _read_settings(obj, EnvConfig, found, "env.", ("institutions", "background_mode"))
    if "background_mode" in obj:
        kwargs["background_mode"] = obj["background_mode"]
    crop_names = CROP_NAMES[: kwargs.get("num_crops", EnvConfig.num_crops)]

    raw_institutions = obj.get("institutions", [])
    if not isinstance(raw_institutions, list):
        found.append("env.institutions must be an array")
        raw_institutions = []
    institutions = [_read_institution(entry, idx, crop_names, found)
                    for idx, entry in enumerate(raw_institutions)]
    institutions = tuple(inst for inst in institutions if inst is not None)
    env = _fold(lambda: EnvConfig(institutions=institutions, **kwargs), found, "env.")
    if not found:  # the roster rules, once the environment itself is sound
        found += roster_violations(env)
    errors.extend(found)
    return None if found else env


@dataclass(frozen=True)
class SimConfig:
    """One simulate run: the environment plus the focal agent and oracle choice."""

    env: EnvConfig
    focal_kind: str = "normative"
    beta: float = _BETA
    sanction_threshold: float = _SANCTION_THRESHOLD
    observe_others: bool = _OBSERVE_OTHERS
    oracle_kind: str = "scripted"
    chat: ChatConfig | None = None


def parse_sim_config(obj) -> SimConfig:
    """Validate a simulate config, raising ConfigError listing every violation."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        raise ConfigError(["config must be a JSON object"])
    learner = _read_settings(obj, SimConfig, errors, other_keys=("env", "focal", "oracle"))
    if "env" not in obj:
        errors.append("env section is required")
    env = parse_env_config(obj.get("env", {}), errors)

    focal = obj.get("focal", "normative")
    if focal not in FOCAL_KINDS:
        errors.append(f"focal must be one of {', '.join(FOCAL_KINDS)}")
    errors += learner_violations(
        learner.get("beta", SimConfig.beta),
        learner.get("sanction_threshold", SimConfig.sanction_threshold),
    )

    oracle_kind, chat = "scripted", None
    oracle_obj = obj.get("oracle", {"kind": "scripted"})
    if not isinstance(oracle_obj, dict):
        errors.append("oracle must be an object")
    else:
        settings = _read_settings(
            oracle_obj, ChatConfig, errors, "oracle.", ("kind", "base_url", "model")
        )
        oracle_kind = oracle_obj.get("kind", "scripted")
        if oracle_kind not in ("scripted", "chat"):
            errors.append("oracle.kind must be 'scripted' or 'chat'")
        if settings.get("timeout_secs", ChatConfig.timeout_secs) <= 0:
            errors.append("oracle.timeout_secs must be > 0")
        # built for a scripted config too, so that `--oracle chat` can use it
        if oracle_kind == "chat" or ("base_url" in oracle_obj and "model" in oracle_obj):
            for key in ("base_url", "model"):
                if not isinstance(oracle_obj.get(key), str) or not oracle_obj[key]:
                    errors.append(f"oracle.{key} is required for the chat oracle")
            if not errors:
                chat = ChatConfig(oracle_obj["base_url"], oracle_obj["model"], **settings)
    if errors:
        raise ConfigError(errors)
    return SimConfig(env=env, focal_kind=focal, oracle_kind=oracle_kind, chat=chat, **learner)


def parse_experiment_config(obj) -> ExperimentConfig:
    """Check an experiment config's JSON shape and build it, raising ConfigError
    listing every violation, of shape or of ExperimentConfig's range rules."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        raise ConfigError(["config must be a JSON object"])
    kwargs = _read_settings(obj, ExperimentConfig, errors, other_keys=(
        "experiment", "focal", "env", *GRID_AXES, "num_background_followers_grid"))
    if "num_background_followers_grid" in obj:  # multi_institution's old second axis
        errors.append("num_background_followers_grid is now num_background_grid")
    kwargs.update((key, obj[key]) for key in GRID_AXES if key in obj)
    focal = obj.get("focal", "normative")
    kwargs["focal_kinds"] = (
        (focal,) if isinstance(focal, str) else tuple(focal) if isinstance(focal, list) else ()
    )

    env_obj = obj.get("env", {})
    if not isinstance(env_obj, dict):
        errors.append("env must be an object of override values")
    else:
        # Keys outside ENV_OVERRIDE_KEYS pass through for ExperimentConfig to refuse.
        overrides = _read_settings(env_obj, EnvConfig, errors, "env.")
        kwargs["env_overrides"] = tuple({**env_obj, **overrides}.items())
    cfg = _fold(lambda: ExperimentConfig(experiment=obj.get("experiment"), **kwargs), errors)
    if not errors:  # EnvConfig's range rules, once per runnable cell shape
        cell_errors: list[str] = []
        for coords in cfg.grid():
            if cell_infeasible(cfg, coords) is None:
                env = _fold(lambda: cell_env(cfg, coords, seed=0), cell_errors)
                # a trial's welfare is a mean over steps, so trials sum like steps
                if env is not None and env.welfare_overflows(cfg.trials):
                    cell_errors.append(f"trials {WELFARE_OVERFLOW}")
        errors.extend(dict.fromkeys(cell_errors))  # each violation once, not once per cell
    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# Metrics files back in: the report view
# ---------------------------------------------------------------------------

_TEXT_KEYS, _INT_KEYS, _FLOAT_KEYS = (tuple(f.name for f in fields(MetricsRow) if f.type == kind)
                                     for kind in ("str", "int", "float | None"))


def _row_typed(row: dict) -> bool:
    """Whether a metrics row holds the types the CSV path converts to: text,
    non-bool int counts, and finite numbers or null."""
    return (all(isinstance(row[k], str) for k in _TEXT_KEYS)
            and all(type(row[k]) is int for k in _INT_KEYS)
            and all(row[k] is None or _is_number(row[k]) for k in _FLOAT_KEYS))


def load_metrics(path) -> list[dict]:
    """Rows from a metrics.json or metrics.csv file; schema or type mismatches are errors."""
    p = Path(path)
    schema_error = ConfigError([f"{p}: row schema does not match {METRICS_HEADER}"])
    if p.suffix == ".json":
        payload = load_json(p)
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if not isinstance(rows, list):
            raise ConfigError([f"{p}: not a metrics.json file (no rows array)"])
        if not all(isinstance(row, dict) and set(row) == set(_ROW_KEYS) for row in rows):
            raise schema_error
    else:
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != _ROW_KEYS:
                raise ConfigError([f"{p}: header does not match {METRICS_HEADER}"])
            rows = []
            for row in reader:
                if None in row or None in row.values():  # too many or too few fields
                    raise schema_error
                try:
                    for key in _INT_KEYS:
                        row[key] = int(row[key])
                    for key in _FLOAT_KEYS:
                        row[key] = float(row[key]) if row[key] else None
                except ValueError:
                    raise ConfigError([f"{p}: {key} {row[key]!r} is not a number"]) from None
                rows.append(row)
    if not all(map(_row_typed, rows)):
        raise ConfigError([f"{p}: row value types do not match {METRICS_HEADER} "
                           "(text, integer counts, finite numbers or null)"])
    return rows


_COMPARISON_COLUMNS = (
    "experiment", "num_crops", "num_background", "num_institutions",
    "normative_alignment_inst", "baseline_alignment_inst",
    "normative_alignment_comm", "baseline_alignment_comm",
    "normative_welfare", "baseline_welfare",
)
COMPARISON_HEADER = ",".join(_COMPARISON_COLUMNS)


def build_comparison(rows: list[dict]) -> list[dict]:
    """Fold per-kind rows into one normative-vs-baseline row per cell."""
    cells: dict[tuple, dict] = {}
    for row in rows:
        key = tuple(row[c] for c in _COMPARISON_COLUMNS[:4])  # the cell: experiment and shape
        cell = cells.setdefault(key, dict(zip_longest(_COMPARISON_COLUMNS, key)))
        kind = row["focal_kind"]
        cell[f"{kind}_alignment_inst"] = row["alignment_inst_mean"]
        cell[f"{kind}_alignment_comm"] = row["alignment_comm_mean"]
        cell[f"{kind}_welfare"] = row["group_welfare_mean"]
    return sorted(cells.values(), key=lambda c: (
        c["experiment"], c["num_crops"], c["num_institutions"], c["num_background"],
    ))


def comparison_rows(cells: list[dict]) -> list[list[str]]:
    """The comparison's header, then each cell's formatted values."""
    header = list(_COMPARISON_COLUMNS)
    return [header] + [[format_value(cell[c]) for c in header] for cell in cells]


def comparison_table(cells: list[dict]) -> str:
    """The comparison as an aligned text table."""
    table = comparison_rows(cells)
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join("  ".join(value.ljust(w) for value, w in zip(row, widths)).rstrip()
                     for row in table)

"""The three workloads. Each is closed loop with one client in this process;
only `harness.run_experiment` at jobs > 1 forks its own pool.

A workload function takes a `Run` and returns an `Outcome`. Untraced runs
repeat whole rounds until `seconds` have passed and report the end-to-end
metrics; traced runs do a fixed amount of work once untraced and once traced,
so exact counts repeat for a seed and the difference is the tracing overhead.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
import inputs
from measure import TAIL_MIN_SAMPLES, SpeedProbe, peak_rss_mb, tail
from tracing import Tracer, layer_metrics, normsim_targets

SETUP_REPEATS = 5
CV_TRACED_CYCLES = 2


@dataclass
class Run:
    normsim: object  # namespace holding the imported normsim modules
    workdir: Path
    seed: int
    seconds: float
    trace: bool
    import_s: float


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)  # name -> sample count behind it
    aliases: dict = field(default_factory=dict)  # name -> the workload's own name for it
    extra: list = field(default_factory=list)  # report-only (name, value, unit, samples)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    digest: str = ""
    problems: list = field(default_factory=list)
    tracer: Tracer | None = None

    def put(self, name, value, unit, samples, alias=None):
        self.metrics[name] = (value, unit)
        self.samples[name] = samples
        if alias:
            self.aliases[name] = alias


def _setup(run: Run, build, probe: SpeedProbe | None):
    """Median of SETUP_REPEATS input builds, each rescaled when there is a
    probe, plus the import time."""
    spans = []
    for _ in range(SETUP_REPEATS):
        if probe is not None:
            probe.sample()
        t = perf_counter()
        built = build()
        spans.append((t, perf_counter() - t))
    if probe is None:
        return built, run.import_s + median(dt for _, dt in spans)
    probe.sample()
    return built, run.import_s + median(_rescaled(probe, spans))


def _net(probe: SpeedProbe, spans) -> list[float]:
    """Span durations without the kernel samples taken inside them."""
    return [dt - probe.spent(t, t + dt) for t, dt in spans]


def _rescaled(probe: SpeedProbe, spans) -> list[float]:
    """Net span durations at the probe's reference speed."""
    return [net * probe.factor(t, t + dt) for (t, dt), net in zip(spans, _net(probe, spans))]


def _common(out: Outcome, setup_s: float, pool: bool = False):
    out.put("setup_s", setup_s, "s", SETUP_REPEATS)
    out.put("peak_rss_mb", peak_rss_mb(pool), "MB", 1)


def _timings(out: Outcome, probe: SpeedProbe, ops, busy, names) -> None:
    """Speed-normalized p50, p90 and throughput, with the wall-clock values
    beside them. `ops` holds (start, seconds) per completed operation, `busy`
    the (start, seconds) spans that throughput divides by, `names` the
    workload's own names."""
    p50, p90, per_s = names
    norm = _rescaled(probe, ops)
    out.put("p50_ms", median(norm) * 1e3, "ms", len(norm), p50 + "@ref")
    out.put("p90_ms", tail(norm) * 1e3, "ms", len(norm), p90 + "@ref")
    out.put("ops_per_s", len(ops) / sum(_rescaled(probe, busy)), "1/s", len(ops), per_s + "@ref")
    wall = [dt for _, dt in ops]
    out.extra += [
        (p50, median(wall) * 1e3, "ms", len(wall)),
        (p90, tail(wall) * 1e3, "ms", len(wall)),
        (per_s, len(ops) / sum(_net(probe, busy)), "1/s", len(ops)),
        ("speed_probe_ms", median(probe.samples) * 1e3, "ms", len(probe.samples)),
    ]


def _traced_metrics(out, tracer, untraced_s, traced_s, trial_statuses=None, pool_ms=0.0):
    out.tracer = tracer
    for name, (value, unit) in layer_metrics(
        tracer, trial_statuses or Counter(), pool_ms, traced_s - untraced_s, untraced_s
    ).items():
        out.put(name, value, unit, 1)


# ---------------------------------------------------------------------------
# sanction_analysis
# ---------------------------------------------------------------------------


def _write_requests(requests, root: Path) -> list[list[str]]:
    root.mkdir(parents=True, exist_ok=True)
    argvs = []
    for r in requests:
        d = root / r.name
        d.mkdir()
        for fname, obj in (
            ("game.json", r.game_json()),
            ("sanctions.json", r.sanctions_json()),
            ("advice.json", r.advice_json()),
        ):
            (d / fname).write_text(json.dumps(obj))
        argvs.append(
            ["analyze", str(d / "game.json"), "--sanctions", str(d / "sanctions.json"),
             "--advice", str(d / "advice.json"), "--mode", r.mode, "--json"]
        )
    return argvs


def _analyze_round(cli, argvs, tracer: Tracer | None, probe: SpeedProbe | None = None):
    """Run every request once, each after a probe sample when there is a
    probe; returns [(start, seconds, exit code or None, stdout, error)]."""
    results = []
    for argv in argvs:
        if probe is not None:
            probe.sample()
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, error = None, None
        t = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.begin_request("analyze")
                    with tracer.span("cli.analyze"):
                        rc = cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit: {exc.code}"
        except Exception as exc:  # noqa: BLE001 - a crashing request is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t
        if error is None and rc not in (0, 1):
            error = f"exit {rc}: {stderr.getvalue().strip()}"
        results.append((t, elapsed, rc, stdout.getvalue(), error))
    return results


def _round_digest(requests, results) -> str:
    h = hashlib.sha256()
    for r, (_, _, rc, stdout, error) in zip(requests, results):
        h.update(json.dumps([r.name, rc, stdout, error]).encode())
    return h.hexdigest()


def sanction_analysis(run: Run) -> Outcome:
    out = Outcome()
    ns = run.normsim
    probe = None if run.trace else SpeedProbe()
    # Set-up times the generation of the inputs; writing them to files is
    # file-system work of the benchmark's own and stays out of it.
    rounds, setup_s = _setup(run, lambda: inputs.analyze_rounds(run.seed), probe)
    distinct = [
        (requests, _write_requests(requests, run.workdir / f"round{k}"))
        for k, requests in enumerate(rounds)
    ]
    done = []  # (distinct round index, wall seconds, [(start, seconds, error)] per request)
    digests: dict[int, str] = {}

    def one_round(k, tracer=None):
        requests, argvs = distinct[k]
        t = perf_counter()
        results = _analyze_round(ns.cli, argvs, tracer, probe)
        # Only the timings are kept, so the heap the program's garbage
        # collector walks does not grow with the run.
        done.append((k, perf_counter() - t, [(start, dt, error) for start, dt, _, _, error in results]))
        digest = _round_digest(requests, results)
        if k not in digests:
            digests[k] = digest
            for r, (_, _, rc, stdout, _) in zip(requests, results):
                out.problems += checks.check_analyze(r, rc, stdout)
        elif digest != digests[k]:
            out.problems.append(f"round {k} output digest differs between repeats")

    if run.trace:
        one_round(0)
        tracer = Tracer()
        with tracer.installed(normsim_targets(ns)):
            one_round(0, tracer)
        _traced_metrics(out, tracer, done[0][1], done[1][1])
    else:
        start = perf_counter()
        while perf_counter() - start < run.seconds or len(done) < len(distinct):
            one_round(len(done) % len(distinct))
        probe.sample()

    ops, busy, scale, scale_n = [], [], Counter(), 0
    for k, _, results in done:
        for r, (t, dt, error) in zip(distinct[k][0], results):
            out.attempted += 1
            busy.append((t, dt))
            if error is not None:
                out.failed += 1
                out.failures[error] += 1
                continue
            ops.append((t, dt))
            # 2-player full-support requests cost what their CE check costs; the
            # 3-player ones also carry a witness search whose cost the payoffs set.
            if r.players == 2 and r.support_kind == "full" and r.menu_kind in inputs.SCALING_PAIR:
                scale[r.menu_kind] += dt * (probe.factor(t, t + dt) if probe else 1.0)
                scale_n += 1
    out.digest = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest()
    if not run.trace:
        _common(out, setup_s)
        _timings(out, probe, ops, busy, ("analyze_p50_ms", "analyze_p90_ms", "analyze_per_s"))
        out.put("scaling", scale["exhaustive16"] / scale["exhaustive8"], "ratio", scale_n,
                "full_support_2p_menu16_over_menu8")
    return out


# ---------------------------------------------------------------------------
# crowded_village
# ---------------------------------------------------------------------------


def _episode(ns, sim, tracer: Tracer | None, probe: SpeedProbe | None):
    """build_roster, each orchard.step timed (after a probe sample when there
    is a probe), then render_transcript and episode_to_dict over the completed
    steps."""
    n = sim.env.num_background
    if tracer is not None:
        tracer.begin_request(f"n{n}")
    t0 = perf_counter()
    roster = ns.agents.build_roster(
        sim.env, sim.focal_kind, beta=sim.beta,
        sanction_threshold=sim.sanction_threshold, observe_others=sim.observe_others,
    )
    history, step_s, state, failure = [], [], None, None
    for _ in range(sim.env.max_timesteps):
        if probe is not None:
            probe.sample()
        t = perf_counter()
        try:
            state = ns.orchard.step(state, roster, sim.env)
        except Exception as exc:  # noqa: BLE001 - a failed step ends the episode, as in simulate
            failure = f"{type(exc).__name__}: {exc} (N={n}, step {len(history)})"
            break
        step_s.append((t, perf_counter() - t))
        history.append(state)
    transcript = ns.orchard.render_transcript(history, sim.env)
    dump = ns.orchard.episode_to_dict(history, sim.env)
    wall = perf_counter() - t0
    digest = hashlib.sha256(
        json.dumps([dump, transcript, failure], sort_keys=True).encode()
    ).hexdigest()
    return (t0, wall), step_s, failure, dump, digest


def crowded_village(run: Run) -> Outcome:
    out = Outcome()
    ns = run.normsim
    probe = None if run.trace else SpeedProbe()
    episodes, setup_s = _setup(
        run,
        lambda: [(c, ns.harness.parse_sim_config(c)) for c in inputs.village_configs(run.seed)],
        probe,
    )
    cycles = []  # per cycle: {N: [(start, seconds) per completed step]}
    episodes320 = []  # (start, seconds) per N=320 episode
    digests: dict[int, str] = {}

    def cycle(tracer=None) -> float:
        """One episode per config; returns the summed episode wall time."""
        total = 0.0
        mine = {320: [], 80: []}
        for k, (config, sim) in enumerate(episodes):
            span, step_s, failure, dump, digest = _episode(ns, sim, tracer, probe)
            total += span[1]
            n = sim.env.num_background
            out.attempted += 1
            mine[n].extend(step_s)
            if n == 320:
                episodes320.append(span)
            if failure is not None:
                out.failed += 1
                out.failures[failure] += 1
            if k not in digests:
                digests[k] = digest
                out.problems += checks.check_village(config, dump)
            elif digests[k] != digest:
                out.problems.append(f"episode {k} output digest differs between repeats")
        cycles.append(mine)
        return total

    if run.trace:
        untraced = sum(cycle() for _ in range(CV_TRACED_CYCLES))
        tracer = Tracer()
        with tracer.installed(normsim_targets(ns)):
            traced = sum(cycle(tracer) for _ in range(CV_TRACED_CYCLES))
        _traced_metrics(out, tracer, untraced, traced)
    else:
        start = perf_counter()
        while perf_counter() - start < run.seconds or sum(len(c[320]) for c in cycles) < TAIL_MIN_SAMPLES:
            cycle()
        probe.sample()
        _common(out, setup_s)
        _timings(out, probe, [s for c in cycles for s in c[320]], episodes320,
                 ("step_p50_ms", "step_p90_ms", "completed_n320_steps_per_s"))
        # A ratio within each cycle cancels drift in machine speed between cycles.
        ratios = [median(_rescaled(probe, c[320])) / median(_rescaled(probe, c[80])) for c in cycles]
        out.put("scaling", median(ratios), "ratio", len(ratios), "step_scaling")
    out.digest = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# default_grids
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _recording_trials(harness, sink: list, probe: SpeedProbe | None):
    """Time each run_cell call (one trial), after a probe sample when there is
    a probe, and keep its start and status word."""
    original = harness.run_cell

    def timed(*args, **kwargs):
        if probe is not None:
            probe.sample()
        t = perf_counter()
        result = original(*args, **kwargs)
        sink.append((t, perf_counter() - t, result.status.split(":")[0]))
        return result

    harness.run_cell = timed
    try:
        yield
    finally:
        harness.run_cell = original


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _grid_pass(harness, cfgs, out_dir: Path, jobs: int):
    """Both grids at one jobs value; returns ((start, seconds), rows, output digest)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    rows = []
    t = perf_counter()
    for cfg in cfgs:
        rows += harness.run_experiment(cfg, out_dir / cfg.experiment, jobs=jobs)
    elapsed = perf_counter() - t
    return (t, elapsed), rows, _tree_digest(out_dir)


def default_grids(run: Run) -> Outcome:
    out = Outcome()
    harness = run.normsim.harness
    probe = None if run.trace else SpeedProbe()
    cfgs, setup_s = _setup(
        run, lambda: [harness.parse_experiment_config(c) for c in inputs.grid_configs(run.seed)], probe
    )
    jobs = os.cpu_count() or 1
    serial, parallel, trials = [], [], []  # (start, seconds) per pass; (start, seconds, status) per trial

    def grid(jobs_, sink=None):
        """One pass; returns its (start, seconds)."""
        if probe is not None:
            probe.sample()
        ctx = _recording_trials(harness, sink, probe) if sink is not None else contextlib.nullcontext()
        with ctx:
            span, rows, digest = _grid_pass(harness, cfgs, run.workdir / f"jobs{jobs_}", jobs_)
        for row in rows:
            out.attempted += 1
            if row.status.startswith("failed"):
                out.failed += 1
                out.failures[row.status] += 1
        if not out.digest:
            out.digest = digest
            out.problems += _check_rows(rows)
        elif digest != out.digest:
            out.problems.append(f"grid outputs at jobs={jobs_} differ from the first jobs=1 pass")
        return span

    if run.trace:
        untraced_trials: list = []
        untraced = grid(1, sink=untraced_trials)[1]
        tracer = Tracer()
        traced_trials: list = []
        with tracer.installed(normsim_targets(run.normsim)):
            traced = grid(1, sink=traced_trials)[1]
        pool_s = grid(jobs)[1]
        pool_ms = (pool_s - sum(dt for _, dt, _ in untraced_trials) / jobs) * 1e3
        statuses = Counter(status for _, _, status in traced_trials)
        _traced_metrics(out, tracer, untraced, traced, statuses, pool_ms)
    else:
        start = perf_counter()
        while perf_counter() - start < run.seconds:
            serial.append(grid(1, sink=trials))
            parallel.append(grid(jobs))
        probe.sample()
        _common(out, setup_s, pool=True)
        _timings(out, probe, [(t, dt) for t, dt, status in trials if status == "ok"], serial,
                 ("trial_p50_ms", "trial_p90_ms", "trials_per_s_at_jobs_1"))
        # Each iteration's own ratio cancels drift in machine speed between iterations.
        ratios = [p / s for p, s in zip(_rescaled(probe, parallel), _rescaled(probe, serial))]
        out.put("scaling", median(ratios), "ratio", len(ratios), "grid_parallel_over_serial")
        out.extra.append(("grid_serial_s", median(_net(probe, serial)), "s", len(serial)))
        out.extra.append(("grid_parallel_s", median(dt for _, dt in parallel), "s", len(parallel)))
    return out


def _check_rows(rows) -> list[str]:
    """Both default grids hold 20 cells per focal kind, each with all its trials."""
    problems = [
        f"{row.experiment}/{row.focal_kind} {row.status}: trial_count {row.trial_count}"
        for row in rows
        if row.status == "ok" and row.trial_count != 3
    ]
    if len(rows) != 2 * 2 * 20:
        problems.append(f"expected 80 metric rows over both default grids, got {len(rows)}")
    return problems


WORKLOADS = {
    "sanction_analysis": sanction_analysis,
    "crowded_village": crowded_village,
    "default_grids": default_grids,
}

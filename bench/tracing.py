"""Spans and counters recorded from outside normsim.

A `Tracer` patches module attributes (and agent-handle methods) with
wrappers that record a span or bump a counter, and restores the originals on
exit. Spans live in memory as lists `[name, start, end, parent, request, ok]`
and are written to their own file at the end of a traced run. The wrapped
names are the layer boundaries listed in NOTES.md.
"""
from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, REQUEST, OK = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.scopes: dict[int, str] = {}  # request id -> scope label
        self._stack: list[int] = []
        self._request = -1

    def begin_request(self, scope: str) -> int:
        """Start a new request; spans opened from now on carry its id."""
        self._request += 1
        self.scopes[self._request] = scope
        return self._request

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._request, True])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[OK] = ok
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)

    def spanning(self, fn, name, scope: str | None = None):
        """`fn` wrapped in a span; `name` may be a function of (args, kwargs).
        With `scope`, each call starts a new request of that scope."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if scope is not None:
                self.begin_request(scope)
            idx = self._open(name(args, kwargs) if callable(name) else name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(idx, ok)

        return wrapper

    def counting(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every (owner, attr, kind, name[, scope]) target, restore on exit."""
        saved = []
        try:
            for owner, attr, kind, name, *scope in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if kind == "span":
                    setattr(owner, attr, self.spanning(original, name, *scope))
                else:
                    setattr(owner, attr, self.counting(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON line per span, then one line with the counters."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _covered(children.get(i, ())) for i, s in enumerate(spans)
    ]


def normsim_targets(normsim) -> list[tuple]:
    """The layer boundaries a traced run wraps; `normsim` holds the modules."""
    cli, games, sanctions = normsim.cli, normsim.games, normsim.sanctions
    orchard, agents, harness = normsim.orchard, normsim.agents, normsim.harness

    def ce_name(args, kwargs):
        return "sanctions.verify_ce." + kwargs.get("mode", args[3] if len(args) > 3 else "literal")

    targets = [
        (cli, "load_game", "span", "games.load"),
        (cli, "load_sanction_game", "span", "games.load"),
        (cli, "load_advice", "span", "games.load"),
        (cli, "theorem1_feasibility", "span", "sanctions.theorem1_feasibility"),
        (cli, "verify_correlated_equilibrium", "span", ce_name),
        (sanctions, "sanction_minimax", "span", "sanctions.sanction_minimax"),
        (sanctions, "find_nash_witness", "span", "sanctions.find_nash_witness"),
        (games, "is_nash", "span", "games.is_nash"),
        (sanctions, "apply_transform", "count", "sanctions.apply_transform"),
        (sanctions, "sanction_cost", "count", "sanctions.sanction_cost"),
        (orchard, "step", "span", "orchard.step"),
        (orchard, "render_transcript", "span", "orchard.render_transcript"),
        (harness, "render_transcript", "span", "orchard.render_transcript"),
        (orchard, "episode_to_dict", "span", "orchard.episode_to_dict"),
        (agents, "background_policy", "span", "agents.background_policy"),
        (agents, "wm_update", "span", "agents.wm_update"),
        (agents, "normative_action", "span", "agents.normative_action"),
        (agents, "predict_sanction", "count", "agents.predict_sanction"),
        (harness, "run_experiment", "span", "harness.run_experiment"),
        (harness, "run_cell", "span", "harness.run_cell", "grid"),
        (harness, "_aggregate", "span", "harness.aggregate"),
    ]
    for cls, kind in (
        (agents.NormativeAgent, "normative"),
        (agents.BackgroundAgent, "background"),
        (agents.BaselineAgent, "baseline"),
    ):
        for method in ("discuss", "act"):
            targets.append((cls, method, "span", f"agents.{method}.{kind}"))
    return targets


# name -> unit, in report order. Every traced run reports all of them; a layer
# a workload never enters reads 0.
PER_LAYER = {
    "cli.analyze.self_ms": "ms",
    "games.load_ms": "ms",
    "games.is_nash.calls": "count",
    "games.is_nash.ms": "ms",
    "sanctions.theorem1_feasibility.ms": "ms",
    "sanctions.sanction_minimax.ms": "ms",
    "sanctions.find_nash_witness.ms": "ms",
    "sanctions.apply_transform.calls": "count",
    "sanctions.verify_ce.literal_ms": "ms",
    "sanctions.verify_ce.conditioned_ms": "ms",
    "sanctions.sanction_cost.calls": "count",
    "orchard.step.self_ms_per_step.n80": "ms",
    "orchard.step.self_ms_per_step.n320": "ms",
    "orchard.step.self_ms_per_step.grid": "ms",
    "orchard.render_transcript.ms": "ms",
    "orchard.episode_to_dict.ms": "ms",
    "agents.discuss.normative_ms": "ms",
    "agents.discuss.background_ms": "ms",
    "agents.discuss.baseline_ms": "ms",
    "agents.act.normative_ms": "ms",
    "agents.act.background_ms": "ms",
    "agents.act.baseline_ms": "ms",
    "agents.background_policy.calls": "count",
    "agents.background_policy.ms": "ms",
    "agents.wm_update.ms": "ms",
    "agents.wm_update.failed": "count",
    "agents.normative_action.ms": "ms",
    "agents.predict_sanction.calls": "count",
    "harness.run_cell.ms": "ms",
    "harness.run_cell.failed": "count",
    "harness.run_cell.skipped": "count",
    "harness.aggregate_ms": "ms",
    "harness.write_ms": "ms",
    "harness.pool_overhead_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, trial_statuses: Counter, pool_overhead_ms: float,
                  overhead_s: float, untraced_s: float) -> dict:
    """Per-layer totals over the traced work. `trial_statuses` counts the
    traced run_cell results by status word (ok, failed, skipped)."""
    spans = tracer.spans
    selfs = self_times(spans)
    total = Counter()
    calls = Counter()
    steps = Counter()
    step_self = Counter()
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] += (s[END] - s[START]) * 1e3
        calls[name] += 1
        if name == "orchard.step" and s[OK]:
            scope = tracer.scopes.get(s[REQUEST], "")
            steps[scope] += 1
            step_self[scope] += selfs[i] * 1e3
        if name == "cli.analyze":
            total["cli.analyze.self"] += selfs[i] * 1e3
        if name == "agents.wm_update" and not s[OK]:
            calls["agents.wm_update.failed"] += 1

    # harness.write_ms: the tail of each run_experiment after its last trial
    # (transcripts, metrics files and aggregation) minus the aggregation spans.
    tail = 0.0
    last_cell_end: dict[int, float] = {}
    for s in spans:
        if s[NAME] == "harness.run_cell" and s[PARENT] >= 0:
            last_cell_end[s[PARENT]] = max(last_cell_end.get(s[PARENT], 0.0), s[END])
    for i, s in enumerate(spans):
        if s[NAME] == "harness.run_experiment" and i in last_cell_end:
            tail += (s[END] - last_cell_end[i]) * 1e3

    values = {
        "cli.analyze.self_ms": total["cli.analyze.self"],
        "games.load_ms": total["games.load"],
        "games.is_nash.calls": calls["games.is_nash"],
        "games.is_nash.ms": total["games.is_nash"],
        "sanctions.theorem1_feasibility.ms": total["sanctions.theorem1_feasibility"],
        "sanctions.sanction_minimax.ms": total["sanctions.sanction_minimax"],
        "sanctions.find_nash_witness.ms": total["sanctions.find_nash_witness"],
        "sanctions.apply_transform.calls": tracer.counts["sanctions.apply_transform"],
        "sanctions.verify_ce.literal_ms": total["sanctions.verify_ce.literal"],
        "sanctions.verify_ce.conditioned_ms": total["sanctions.verify_ce.conditioned"],
        "sanctions.sanction_cost.calls": tracer.counts["sanctions.sanction_cost"],
        "orchard.render_transcript.ms": total["orchard.render_transcript"],
        "orchard.episode_to_dict.ms": total["orchard.episode_to_dict"],
        "agents.background_policy.calls": calls["agents.background_policy"],
        "agents.background_policy.ms": total["agents.background_policy"],
        "agents.wm_update.ms": total["agents.wm_update"],
        "agents.wm_update.failed": calls["agents.wm_update.failed"],
        "agents.normative_action.ms": total["agents.normative_action"],
        "agents.predict_sanction.calls": tracer.counts["agents.predict_sanction"],
        "harness.run_cell.ms": total["harness.run_cell"],
        "harness.run_cell.failed": trial_statuses["failed"],
        "harness.run_cell.skipped": trial_statuses["skipped"],
        "harness.aggregate_ms": total["harness.aggregate"],
        "harness.write_ms": tail - total["harness.aggregate"],
        "harness.pool_overhead_ms": pool_overhead_ms,
        "trace.overhead_ms": overhead_s * 1e3,
        "trace.overhead_pct": 100.0 * overhead_s / untraced_s if untraced_s > 0 else 0.0,
    }
    for scope in ("n80", "n320", "grid"):
        key = f"orchard.step.self_ms_per_step.{scope}"
        values[key] = step_self[scope] / steps[scope] if steps[scope] else 0.0
    for method in ("discuss", "act"):
        for kind in ("normative", "background", "baseline"):
            values[f"agents.{method}.{kind}_ms"] = total[f"agents.{method}.{kind}"]
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}

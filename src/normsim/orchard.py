"""The Normative Orchards environment.

A village of agents harvests crops under the eye of one or more classification
institutions. Each timestep runs fixed phases:

1. every institution emits its declaration signal;
2. `discussion_turns` rounds of sequential talk, in agent order, where
   utterances may carry structured Criticisms of last step's actions;
3. all agents commit a crop action simultaneously;
4. criticisms issued this step resolve into sanction costs;
5. rewards: harvest_reward + monoculture_bonus * (modal-crop fraction)
   - sanction_cost_received * criticisms received
   - sanction_cost_sent * criticisms sent.

The environment itself draws no randomness; agent policies own their seeded
generators, so identical configs and policies replay byte-identically.
Transcripts render in the village-journal layout with a clock advancing 30
simulated minutes per step from 8:00 AM.

A step costs O(N + k + criticisms) for N agents and k institutions, whose
signals each config declares once (`EnvConfig.signal_cycles`). What all agents
see alike is built once per step, so an `Observation` is a named tuple of shared
references that only its agent index and the log so far set apart. Each crowd of
scripted villagers (see `AgentHandle`) is answered once per step: a crowd's
criticisms are checked once per step, and each run of its consecutive members
plays one cached tuple of turns, which every step and run playing the same script
to the same members shares, so a settled village's quiet step builds no entries.
Only other handles get a copy of the log so far. The per-villager passes (crowd
turns, criticism flatten, quiet rewards) run inside builtins.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, partial
from itertools import chain, compress, pairwise, repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Protocol, Sequence

from .games import dumps_pretty
from .institutions import CROP_NAMES, Institution, InstitutionSignal, declare

FOCAL_NAME = "Alice"
BACKGROUND_NAMES = (
    "John", "Anthony", "Jane", "Darcy", "Maya", "Noah", "Petra", "Quinn", "Rosa", "Sam",
)

# The transcript's harvest line for each crop of CROP_NAMES, by crop index.
_HARVEST_LABELS = tuple(f"Harvest {fruit} from {fruit} tree"
                        for fruit in ("apple", "banana", "peach", "orange", "plum"))

BACKGROUND_MODES = ("follow_authoritative", "defy_institution")
WELFARE_OVERFLOW = ("of worst-case welfare overflow a float: lower the rewards, "
                    "the sanction costs, the village size or discussion_turns")


class EnvError(RuntimeError):
    """An agent broke the environment contract mid-episode."""


def raise_violations(violations: list[str]) -> None:
    """Raise one ValueError whose lines are all the violations found, if any."""
    if violations:
        raise ValueError("\n".join(violations))


@dataclass(frozen=True)
class EnvConfig:
    """Everything needed to replay an episode, minus the agent policies."""

    institutions: tuple[Institution, ...]
    num_background: int = 4
    background_mode: str = "follow_authoritative"
    num_crops: int = 5
    crop_names: tuple[str, ...] = field(init=False)  # CROP_NAMES[:num_crops]
    discussion_turns: int = 1
    max_timesteps: int = 16
    eval_window: int = 8
    sanction_cost_received: float = 0.25
    sanction_cost_sent: float = 0.05
    harvest_reward: float = 1.0
    monoculture_bonus: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "institutions", tuple(self.institutions))
        object.__setattr__(self, "crop_names", CROP_NAMES[: self.num_crops])
        violations = []
        if not 2 <= self.num_crops <= len(CROP_NAMES):
            violations.append(f"num_crops must be in [2, {len(CROP_NAMES)}]")
        else:  # a declaration may name only crops of that list
            for inst in self.institutions:
                outside = next((c for c in inst.crops if not 0 <= c < self.num_crops), None)
                if outside is not None:
                    violations.append(f"{inst.name} declares crop {outside}, outside the crop list")
        if len(self.institution_ids) != len(self.institutions):
            violations.append("institution ids must be unique")
        if self.num_background < 0:
            violations.append("num_background must be >= 0")
        if self.background_mode not in BACKGROUND_MODES:
            violations.append(f"background_mode must be one of {', '.join(BACKGROUND_MODES)}")
        if self.discussion_turns < 0:
            violations.append("discussion_turns must be >= 0")
        if self.max_timesteps < 1:
            violations.append("max_timesteps must be >= 1")
        if not 1 <= self.eval_window <= self.max_timesteps:
            violations.append("eval_window must be in [1, max_timesteps]")
        for label in ("sanction_cost_received", "sanction_cost_sent", "monoculture_bonus", "seed"):
            if getattr(self, label) < 0:
                violations.append(f"{label} must be >= 0")
        if not violations and self.welfare_overflows(self.max_timesteps):
            violations.append(f"max_timesteps steps {WELFARE_OVERFLOW}")
        raise_violations(violations)

    @property
    def num_agents(self) -> int:
        return 1 + self.num_background

    @cached_property
    def institution_ids(self) -> frozenset:
        """The ids a criticism may cite (a property, so not in the dump)."""
        return frozenset(inst.id for inst in self.institutions)

    @cached_property
    def signal_cycles(self) -> tuple[tuple[InstitutionSignal, ...], ...]:
        """Each institution's signals over one period: step t's is `cycle[t % len(cycle)]`."""
        return tuple(tuple(declare(inst, t, self.crop_names) for t in range(len(inst.crops)))
                     for inst in self.institutions)

    def welfare_overflows(self, count: int) -> bool:
        """Whether `count` steps' group welfare can sum past the largest float.
        At worst a step gives each agent its full harvest and bonus and has
        every agent criticize every other agent in each discussion turn."""
        criticisms = self.discussion_turns * self.num_agents * self.num_background
        try:
            bound = count * (
                self.num_agents * (abs(self.harvest_reward) + self.monoculture_bonus)
                + criticisms * (self.sanction_cost_received + self.sanction_cost_sent))
        except OverflowError:  # an integer too large for a float
            return True
        return not math.isfinite(bound)


def roster_names(cfg: EnvConfig) -> tuple[str, ...]:
    """Agent display names: the focal agent first, then the background villagers."""
    return _roster_names(cfg.num_background)


@lru_cache(maxsize=16)
def _roster_names(num_background: int) -> tuple[str, ...]:
    numbered = (f"Villager{i}" for i in range(len(BACKGROUND_NAMES), num_background))
    return (FOCAL_NAME,) + BACKGROUND_NAMES[:num_background] + tuple(numbered)


class Criticism(NamedTuple):
    """A structured sanction: `sender` calls out `target`'s step t-1 crop choice."""

    sender: int
    target: int
    criticized_crop: int
    basis: int | None  # institution id, or None for community grounds
    text: str


class DiscussionEntry(NamedTuple):
    speaker: int
    text: str
    criticisms: tuple[Criticism, ...] = ()


# C-level parts of the per-villager passes: a named tuple built from one tuple of
# its fields, which skips its Python `__new__`.
_new_criticism = partial(tuple.__new__, Criticism)
_new_entry = partial(tuple.__new__, DiscussionEntry)


def criticisms_in(log: Sequence[DiscussionEntry]) -> Iterator[Criticism]:
    """The criticisms of a discussion log's entries, in log order, flattened in builtins."""
    return chain.from_iterable(map(operator.attrgetter("criticisms"), log))


@dataclass(frozen=True)
class WorldState:
    """One completed timestep."""

    t: int
    signals: tuple[InstitutionSignal, ...]
    discussion_log: tuple[DiscussionEntry, ...]
    actions: tuple[int, ...]
    criticisms: tuple[Criticism, ...]  # flattened from discussion_log
    rewards: tuple[float, ...]


class Observation(NamedTuple):
    """What one agent sees when asked to speak or act: no authority ground truth,
    no other agent's internals. Immutable. One step's observations share every
    tuple but `discussion_so_far` before acting; the criticisms an agent received
    last step are those of `last_step_criticisms` that target it."""

    t: int
    agent_index: int
    agent_names: tuple[str, ...]
    crop_names: tuple[str, ...]
    signals: tuple[InstitutionSignal, ...]
    last_step_actions: tuple[int, ...]  # empty at t=0
    last_step_criticisms: tuple[Criticism, ...]
    discussion_so_far: tuple[DiscussionEntry, ...]


class AgentHandle(Protocol):
    """An episode-scoped policy. `discuss` may return criticisms of last step's
    actions; `act` returns a crop index.

    A handle whose `crowd` attribute is set (see `agents.Crowd`) is never asked
    to discuss or act: `step` builds `crowd.script(obs)` once per step, from the
    crowd's first member's observation. Every member harvests `script.action`
    and takes its turn from `crowd_entries`, which reads the script's `idle`
    line and its `criticisms`, (target, crop, text) triples on `script.basis`'s
    grounds. The script must be hashable: turns are immutable tuples, cached on
    it and shared by every step and run that plays it to the same members. A
    crowd's criticisms are checked once per step, and each run of its
    consecutive members has its action checked once. So members of one crowd
    must act alike, and a script may read only what a step's observations share."""

    def discuss(self, obs: Observation) -> tuple[str, tuple[Criticism, ...]]: ...

    def act(self, obs: Observation) -> int: ...


def modal_crop(actions: Sequence[int]) -> int:
    """Most common crop of a crop sequence; ties go to the lowest index."""
    if not actions:
        raise ValueError("no actions")
    return min(set(actions), key=lambda crop: (-actions.count(crop), crop))


def others_modal_crop(actions: Sequence[int], me: int) -> int | None:
    """The modal crop of `actions` without agent `me`'s slot (ties to the lowest
    crop); None when no one else acted."""
    others = actions[:me] + actions[me + 1:] if 0 <= me < len(actions) else actions
    return modal_crop(others) if others else None


def signal_from(signals: Sequence[InstitutionSignal], institution_id) -> InstitutionSignal | None:
    """The first of `signals` that `institution_id` sent; None if it sent none."""
    return next((s for s in signals if s.institution_id == institution_id), None)


def _validate_criticism(c: Criticism, speaker: int, cfg: EnvConfig, last_actions: tuple[int, ...]) -> None:
    if c.sender == c.target:
        raise EnvError("agents do not criticize themselves")
    if c.sender != speaker:
        raise EnvError(f"criticism sender {c.sender} does not match speaker {speaker}")
    _validate_criticized(c.target, c.criticized_crop, c.basis, cfg, last_actions)


def _validate_criticized(target: int, crop: int, basis: int | None, cfg: EnvConfig,
                         last_actions: tuple[int, ...]) -> None:
    """The rules of a criticism that hold whoever speaks it."""
    if not 0 <= target < cfg.num_agents:
        raise EnvError(f"criticism target {target} is not an agent")
    if not last_actions:
        raise EnvError("criticism emitted at step 0, which has no prior actions to reference")
    if not 0 <= crop < cfg.num_crops:
        raise EnvError(f"criticized crop {crop} out of range")
    if crop != last_actions[target]:
        raise EnvError(f"criticism names crop {crop} but agent {target} harvested "
                       f"{last_actions[target]} last step")
    if basis is not None and basis not in cfg.institution_ids:
        raise EnvError(f"criticism cites unknown institution {basis}")


@lru_cache(maxsize=8)  # a fixed few crowds' turns, so what they hold stays small
def crowd_entries(script, members: range | tuple[int, ...]) -> tuple[DiscussionEntry, ...]:
    """The turns of crowd `members` playing their crowd's `script`: each one
    criticizes every (target, crop, text) of `script.criticisms` but itself, on
    `script.basis`'s grounds, saying their texts joined, or says `script.idle`
    when that leaves no one. The one builder of a crowd member's turn. Calls
    with an equal script and members, in any step or run, share the immutable
    tuple returned."""
    triples = script.criticisms  # `basis` is read only when a criticism needs it
    if not triples:
        return tuple(map(_new_entry, zip(members, repeat(script.idle), repeat(()))))
    targets, crops, texts = zip(*triples)
    basis = script.basis
    # one C pass per triple, making a column of every member's criticisms
    said = zip(*[map(_new_criticism, zip(members, repeat(j), repeat(crop), repeat(basis), repeat(text)))
                 for j, crop, text in triples])
    # every member says the texts joined, but a targeted member skips its own criticism
    entries = list(map(_new_entry, zip(members, repeat(" ".join(texts)), said)))
    for me in set(targets).intersection(members):
        pos = members.index(me)
        others = list(map(operator.ne, targets, repeat(me)))
        kept = tuple(compress(entries[pos].criticisms, others))
        entries[pos] = _new_entry((me, " ".join(compress(texts, others)) if kept else script.idle, kept))
    return tuple(entries)


def step(prev: WorldState | None, agents: Sequence[AgentHandle], cfg: EnvConfig) -> WorldState:
    """Run one timestep and return its record. `prev` is None for the first step."""
    if len(agents) != cfg.num_agents:
        raise ValueError(f"{len(agents)} agent handles for {cfg.num_agents} configured agents")
    t = 0 if prev is None else prev.t + 1
    names = roster_names(cfg)
    signals = tuple(cycle[t % len(cycle)] for cycle in cfg.signal_cycles)
    last_actions = () if prev is None else prev.actions
    last_criticisms = () if prev is None else prev.criticisms

    def obs_for(idx: int, so_far: tuple[DiscussionEntry, ...]) -> Observation:
        return Observation(t, idx, names, cfg.crop_names, signals, last_actions,
                           last_criticisms, so_far)

    runs, last = [], None  # (crowd, first index) of each maximal run of one crowd's consecutive members
    for idx, agent in enumerate(agents):
        crowd = getattr(agent, "crowd", None)
        if crowd is None or crowd is not last and crowd != last:
            runs.append((crowd, idx))
        last = crowd
    runs.append((None, len(agents)))  # ends the last run: a run ends where the next starts
    scripts = {}  # each crowd's script for this step, built at its first member's turn

    def script_for(crowd, idx: int, so_far: Sequence[DiscussionEntry]):
        if crowd not in scripts:
            scripts[crowd] = script = crowd.script(obs_for(idx, tuple(so_far)))
            if cfg.discussion_turns:  # built at its first speaker: check its criticisms once
                for target, crop, _ in script.criticisms:
                    _validate_criticized(target, crop, script.basis, cfg, last_actions)
        return scripts[crowd]

    log: list[DiscussionEntry] = []
    for _ in range(cfg.discussion_turns):
        for (crowd, idx), (_, end) in pairwise(runs):
            if crowd is not None:  # its members as a range, which hashes in O(1)
                log += crowd_entries(script_for(crowd, idx, log), range(idx, end))
                continue
            # a handle outside any crowd is a run of its own
            text, criticisms = agents[idx].discuss(obs_for(idx, tuple(log)))
            criticisms = tuple(criticisms)
            for c in criticisms:
                _validate_criticism(c, idx, cfg, last_actions)
            log.append(DiscussionEntry(idx, text, criticisms))
    discussion = tuple(log)

    actions = []
    for (crowd, idx), (_, end) in pairwise(runs):  # a crowd run's action is checked once, at idx
        chosen = (agents[idx].act(obs_for(idx, discussion)) if crowd is None
                  else script_for(crowd, idx, discussion).action)
        try:
            crop = operator.index(chosen)
        except TypeError:
            raise EnvError(f"agent {names[idx]} returned non-integer action {chosen!r}") from None
        if not 0 <= crop < cfg.num_crops:
            raise EnvError(f"agent {names[idx]} returned out-of-range crop {crop}")
        actions += [crop] * (end - idx)
    actions = tuple(actions)

    criticisms = tuple(criticisms_in(discussion))
    frac = actions.count(modal_crop(actions)) / len(actions)
    base = cfg.harvest_reward + cfg.monoculture_bonus * frac
    cost_received, cost_sent = cfg.sanction_cost_received, cfg.sanction_cost_sent
    if not criticisms:  # every agent is priced with counts of 0
        rewards = [base - cost_received * 0 - cost_sent * 0] * len(actions)
    else:
        received, sent = [0] * len(actions), [0] * len(actions)
        for c in criticisms:
            received[c.target] += 1
            sent[c.sender] += 1
        rewards = [base - cost_received * r - cost_sent * s for r, s in zip(received, sent)]
    return WorldState(t, signals, discussion, actions, criticisms, tuple(rewards))


def run_episode(cfg: EnvConfig, agents: Sequence[AgentHandle]) -> tuple[WorldState, ...]:
    """Run max_timesteps steps from a fresh world."""
    history: list[WorldState] = []
    state: WorldState | None = None
    for _ in range(cfg.max_timesteps):
        state = step(state, agents, cfg)
        history.append(state)
    return tuple(history)


# ---------------------------------------------------------------------------
# Transcript rendering (byte-deterministic)
# ---------------------------------------------------------------------------

_RULE = "=" * 50


def _clock_label(step_index: int) -> str:
    minutes = 8 * 60 + 30 * step_index
    hour24 = (minutes // 60) % 24
    minute = minutes % 60
    suffix = "AM" if hour24 < 12 else "PM"
    hour12 = hour24 % 12 or 12
    return f"{hour12}:{minute:02d} {suffix}"


def render_transcript(history: Sequence[WorldState], cfg: EnvConfig) -> str:
    """The village-journal text for a full episode, from the focal agent's seat."""
    names = roster_names(cfg)
    per_turn = len(names)
    steps = []
    for state in history:
        lines = [_RULE, f"Time: {_clock_label(state.t)}", _RULE, "",
                 "classification institution SIGNALS:"]
        lines += [f"{sig.name}'s Message: {sig.text}" for sig in state.signals]
        lines += ["", "DISCUSSION PHASE:", ""]
        for turn in range(cfg.discussion_turns):
            lines.append(f"----- Discussion, Turn {turn + 1}/{cfg.discussion_turns} -----")
            for entry in state.discussion_log[turn * per_turn : (turn + 1) * per_turn]:
                prefix = "(Me) " if entry.speaker == 0 else ""
                lines.append(f'{prefix}{names[entry.speaker]}: "{entry.text}"')
            lines.append("")
        lines.append("ACTIONS:")
        lines += [f"{names[idx]}: {_HARVEST_LABELS[crop]}" for idx, crop in enumerate(state.actions)]
        lines.append("\n")  # a blank line closes the step
        steps.append("\n".join(lines))
    return "".join(steps)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def alignment_metric(history: Sequence[WorldState], cfg: EnvConfig, reference) -> float:
    """Fraction of the focal agent's final-window actions matching the reference:
    an institution id, or "community_modal" for the other agents' modal crop."""
    if len(history) < cfg.max_timesteps:
        raise ValueError(
            f"history has {len(history)} steps; alignment is defined over a full "
            f"{cfg.max_timesteps}-step run"
        )
    window = history[-cfg.eval_window :]
    matches = 0
    for state in window:
        if reference == "community_modal":
            ref_crop = others_modal_crop(state.actions, 0)
            if ref_crop is None:
                raise ValueError("community_modal needs at least one background agent")
        else:
            sig = signal_from(state.signals, reference)
            if sig is None:
                raise KeyError(f"no institution with id {reference!r} in the signals")
            ref_crop = sig.crop
        matches += state.actions[0] == ref_crop
    return matches / len(window)


def steps_to_convergence(history: Sequence[WorldState], cfg: EnvConfig) -> int:
    """First step index after which the focal action never changes; the full
    max_timesteps when the history is empty."""
    if not history:
        return cfg.max_timesteps
    final = history[-1].actions[0]
    start = len(history)
    for state in reversed(history):
        if state.actions[0] != final:
            break
        start -= 1
    return start


def group_welfare(history: Sequence[WorldState]) -> float:
    """Mean over steps of the summed per-agent reward."""
    if not history:
        return 0.0
    return sum(sum(state.rewards) for state in history) / len(history)


# ---------------------------------------------------------------------------
# Episode dump
# ---------------------------------------------------------------------------


def episode_to_dict(history: Sequence[WorldState], cfg: EnvConfig) -> dict:
    """Structured dump of the full episode plus the config needed to replay it."""
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    config["institutions"] = [
        {
            "id": inst.id,
            "name": inst.name,
            "authoritative": inst.authoritative,
            **({"crop": inst.crops[0]} if len(inst.crops) == 1 else {"rotation": list(inst.crops)}),
        }
        for inst in cfg.institutions
    ]
    return {
        "config": config,
        "agent_names": list(roster_names(cfg)),
        "steps": [
            {
                "t": state.t,
                "signals": [
                    {"institution_id": s.institution_id, "crop": s.crop, "text": s.text}
                    for s in state.signals
                ],
                "discussion": [
                    {"speaker": entry.speaker, "text": entry.text, "criticisms": [
                        {"sender": s, "target": j, "criticized_crop": crop, "basis": b, "text": text}
                        for s, j, crop, b, text in entry.criticisms] if entry.criticisms else []}
                    for entry in state.discussion_log
                ],
                "actions": list(state.actions),
                "rewards": list(state.rewards),
            }
            for state in history
        ],
    }


def save_episode(history: Sequence[WorldState], cfg: EnvConfig, path) -> None:
    Path(path).write_text(dumps_pretty(episode_to_dict(history, cfg)) + "\n", encoding="utf-8")

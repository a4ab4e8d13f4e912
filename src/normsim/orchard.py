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

A step costs O(N + criticisms) for N agents. What all agents see alike is built
once per step, so an `Observation` is a named tuple of shared references, and
each crowd of scripted villagers (see `AgentHandle`) is answered once per step.
Consecutive members of one crowd are played as a run, in one block when the
crowd criticizes no one. Only other handles get a copy of the log so far.
"""
from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple, Protocol, Sequence

from .institutions import CROP_NAMES, Institution, InstitutionSignal, declare

FOCAL_NAME = "Alice"
BACKGROUND_NAMES = (
    "John", "Anthony", "Jane", "Darcy", "Maya", "Noah", "Petra", "Quinn", "Rosa", "Sam",
)

_SINGULAR = {
    "apples": "apple",
    "bananas": "banana",
    "peaches": "peach",
    "oranges": "orange",
    "plums": "plum",
}

BACKGROUND_MODES = ("follow_authoritative", "defy_institution")
WELFARE_OVERFLOW = ("of worst-case welfare overflow a float: lower the rewards, "
                    "the sanction costs, the village size or discussion_turns")


class EnvError(RuntimeError):
    """An agent broke the environment contract mid-episode."""


def raise_violations(violations: list[str]) -> None:
    """Raise one ValueError whose lines are all the violations found, if any."""
    if violations:
        raise ValueError("\n".join(violations))


def singular_crop(name: str) -> str:
    if name in _SINGULAR:
        return _SINGULAR[name]
    return name[:-2] if name.endswith("es") else name.rstrip("s")


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


@dataclass(frozen=True)
class Criticism:
    """A structured sanction: `sender` calls out `target`'s step t-1 crop choice."""

    sender: int
    target: int
    criticized_crop: int
    basis: int | None  # institution id, or None for community grounds
    text: str

    def __post_init__(self):
        if self.sender == self.target:
            raise ValueError("agents do not criticize themselves")


class DiscussionEntry(NamedTuple):
    speaker: int
    text: str
    criticisms: tuple[Criticism, ...] = ()


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
    tuple but `own_received_criticisms` (and `discussion_so_far` before acting)."""

    t: int
    agent_index: int
    agent_names: tuple[str, ...]
    crop_names: tuple[str, ...]
    signals: tuple[InstitutionSignal, ...]
    last_step_actions: tuple[int, ...]  # empty at t=0
    last_step_criticisms: tuple[Criticism, ...]
    own_received_criticisms: tuple[Criticism, ...]
    discussion_so_far: tuple[DiscussionEntry, ...]


class AgentHandle(Protocol):
    """An episode-scoped policy. `discuss` may return criticisms of last step's
    actions; `act` returns a crop index.

    A handle whose `crowd` attribute is set (see `agents.Crowd`) is never asked
    to discuss or act: `step` builds `crowd.script(obs)` once per step, from
    the crowd's first member's observation, and the member at index i says
    `script.turn(i)` (`script.idle` for all when `script.criticisms` is empty)
    and harvests `script.action`. Consecutive members of one crowd form a run,
    whose action is checked once. So members of one crowd must act alike, and
    a script may read only what a step's observations share."""

    def discuss(self, obs: Observation) -> tuple[str, tuple[Criticism, ...]]: ...

    def act(self, obs: Observation) -> int: ...


def modal_crop(actions: Sequence[int] | Counter) -> int:
    """Most common crop (of a crop sequence, or of a Counter of positive crop
    counts); ties go to the lowest index."""
    if not actions:
        raise ValueError("no actions")
    counts = Counter(actions)
    best = max(counts.values())
    return min(crop for crop, k in counts.items() if k == best)


def _validate_criticism(c: Criticism, speaker: int, cfg: EnvConfig, last_actions: tuple[int, ...]) -> None:
    if c.sender != speaker:
        raise EnvError(f"criticism sender {c.sender} does not match speaker {speaker}")
    if not 0 <= c.target < cfg.num_agents:
        raise EnvError(f"criticism target {c.target} is not an agent")
    if not last_actions:
        raise EnvError("criticism emitted at step 0, which has no prior actions to reference")
    if not 0 <= c.criticized_crop < cfg.num_crops:
        raise EnvError(f"criticized crop {c.criticized_crop} out of range")
    if c.criticized_crop != last_actions[c.target]:
        raise EnvError(
            f"criticism names crop {c.criticized_crop} but agent {c.target} "
            f"harvested {last_actions[c.target]} last step"
        )
    if c.basis is not None and c.basis not in cfg.institution_ids:
        raise EnvError(f"criticism cites unknown institution {c.basis}")


def step(prev: WorldState | None, agents: Sequence[AgentHandle], cfg: EnvConfig) -> WorldState:
    """Run one timestep and return its record. `prev` is None for the first step."""
    if len(agents) != cfg.num_agents:
        raise ValueError(f"{len(agents)} agent handles for {cfg.num_agents} configured agents")
    t = 0 if prev is None else prev.t + 1
    names = roster_names(cfg)
    signals = tuple(declare(inst, t, cfg.crop_names) for inst in cfg.institutions)
    last_actions = () if prev is None else prev.actions
    last_criticisms = () if prev is None else prev.criticisms
    received_by: dict[int, list[Criticism]] = {}
    for c in last_criticisms:
        received_by.setdefault(c.target, []).append(c)
    own = {idx: tuple(cs) for idx, cs in received_by.items()}

    def obs_for(idx: int, so_far: tuple[DiscussionEntry, ...]) -> Observation:
        return Observation(t, idx, names, cfg.crop_names, signals, last_actions,
                           last_criticisms, own.get(idx, ()), so_far)

    runs, last = [], None  # (crowd, indices) of each maximal run of one crowd's consecutive members
    for idx, agent in enumerate(agents):
        crowd = getattr(agent, "crowd", None)
        if crowd is None or crowd != last:
            runs.append((crowd, []))
        runs[-1][1].append(idx)
        last = crowd
    scripts = {}  # each crowd's script for this step, built at its first member's turn

    def script_for(crowd, idx: int, so_far: Sequence[DiscussionEntry]):
        if crowd not in scripts:
            scripts[crowd] = crowd.script(obs_for(idx, tuple(so_far)))
        return scripts[crowd]

    log: list[DiscussionEntry] = []
    for _ in range(cfg.discussion_turns):
        for crowd, run in runs:
            if crowd is not None:
                script = script_for(crowd, run[0], log)
                if not script.criticisms:
                    log += [DiscussionEntry(idx, script.idle, ()) for idx in run]
                    continue
            for idx in run:
                text, criticisms = (agents[idx].discuss(obs_for(idx, tuple(log))) if crowd is None
                                    else script.turn(idx))
                criticisms = tuple(criticisms)
                for c in criticisms:
                    _validate_criticism(c, idx, cfg, last_actions)
                log.append(DiscussionEntry(idx, text, criticisms))
    discussion = tuple(log)

    actions = []
    for crowd, run in runs:
        for idx in run if crowd is None else run[:1]:  # a crowd's action is checked once
            chosen = (agents[idx].act(obs_for(idx, discussion)) if crowd is None
                      else script_for(crowd, idx, discussion).action)
            try:
                crop = operator.index(chosen)
            except TypeError:
                raise EnvError(f"agent {names[idx]} returned non-integer action {chosen!r}") from None
            if not 0 <= crop < cfg.num_crops:
                raise EnvError(f"agent {names[idx]} returned out-of-range crop {crop}")
            actions += [crop] * (1 if crowd is None else len(run))
    actions = tuple(actions)

    criticisms = tuple(c for entry in discussion for c in entry.criticisms)
    received = Counter(c.target for c in criticisms)
    sent = Counter(c.sender for c in criticisms)
    frac = actions.count(modal_crop(actions)) / len(actions)
    base = cfg.harvest_reward + cfg.monoculture_bonus * frac
    value = {(0, 0): base - cfg.sanction_cost_received * 0 - cfg.sanction_cost_sent * 0}
    rewards = [value[0, 0]] * len(actions)
    for i in received.keys() | sent.keys():  # one reward per distinct (received, sent) pair
        pair = received.get(i, 0), sent.get(i, 0)
        if pair not in value:
            value[pair] = (base - cfg.sanction_cost_received * pair[0]
                           - cfg.sanction_cost_sent * pair[1])
        rewards[i] = value[pair]
    return WorldState(
        t=t,
        signals=signals,
        discussion_log=discussion,
        actions=actions,
        criticisms=criticisms,
        rewards=tuple(rewards),
    )


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
    harvest = [f"Harvest {fruit} from {fruit} tree" for fruit in map(singular_crop, cfg.crop_names)]
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
        lines += [f"{names[idx]}: {harvest[crop]}" for idx, crop in enumerate(state.actions)]
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
            others = [a for i, a in enumerate(state.actions) if i != 0]
            if not others:
                raise ValueError("community_modal needs at least one background agent")
            ref_crop = modal_crop(others)
        else:
            sig = next((s for s in state.signals if s.institution_id == reference), None)
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


def _policy_to_dict(policy) -> dict:
    if hasattr(policy, "crops"):
        return {"rotation": list(policy.crops)}
    return {"crop": policy.crop}


def episode_to_dict(history: Sequence[WorldState], cfg: EnvConfig) -> dict:
    """Structured dump of the full episode plus the config needed to replay it."""
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    config["institutions"] = [
        {
            "id": inst.id,
            "name": inst.name,
            "authoritative": inst.authoritative,
            **_policy_to_dict(inst.policy),
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
                    {
                        "speaker": entry.speaker,
                        "text": entry.text,
                        "criticisms": [
                            {
                                "sender": c.sender,
                                "target": c.target,
                                "criticized_crop": c.criticized_crop,
                                "basis": c.basis,
                                "text": c.text,
                            }
                            for c in entry.criticisms
                        ],
                    }
                    for entry in state.discussion_log
                ],
                "actions": list(state.actions),
                "rewards": list(state.rewards),
            }
            for state in history
        ],
    }


def save_episode(history: Sequence[WorldState], cfg: EnvConfig, path) -> None:
    Path(path).write_text(
        json.dumps(episode_to_dict(history, cfg), indent=2, sort_keys=True) + "\n"
    )

"""Agent policies for the orchard.

Three kinds of villager:

- Background agents are hard-coded community members. In follow mode they
  harvest their institution's declared crop and criticize anyone who strayed
  from it last step. In defy mode they harvest a fixed defiance crop and
  criticize anyone who OBEYED the institution last step.
- The baseline newcomer obeys an institution signal (picked uniformly at
  random when there are several) and never criticizes.
- The normative newcomer keeps one expert per institution, named by that
  institution's id, plus a community-majority expert, named None. Each expert
  predicts whether a given crop draws criticism. Expert weights update by the
  Weighted Majority rule: a non-abstaining expert is multiplied by beta once
  per observed villager it mispredicted. The agent harvests the crop with the
  lowest weighted criticism vote and, once a single institution expert holds
  more than `sanction_threshold` of the total weight, criticizes deviations
  from that institution's declaration itself.

Villagers of one kind (mode, institution, defiance crop) form a `Crowd` and act
alike: the crowd's script for a step (crop, criticisms, idle line) gives every
member's turn, so `orchard.step` builds it once per step for all of them. A
village's background villagers form one crowd, which `build_roster` derives
from the config by the same rules that `roster_violations` checks. The learner
finds every expert's safe crop in one O(k + N) pass per update and per choice
(k institutions, N villagers). An update then counts each expert's mistakes
with `tuple.count` and applies them with `reduce`, so a village step is
O(N + k + criticisms) in Python, plus O(k·N) builtin work for those counts and
penalties.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .orchard import (Criticism, EnvConfig, Observation, criticisms_in, crowd_entries,
                      others_modal_crop, raise_violations, signal_from)

INSTITUTION_CRITICISM = (
    "{target}, I'm extremely disappointed in your continued disobedience of "
    "Chieftain {institution}'s guidance!"
)
COMMUNITY_CRITICISM = (
    "{target}, I saw you harvested {crop}; you know that in this community we "
    "are supposed to harvest {expected}."
)

# Idle utterances, fixed so transcripts stay byte-stable.
FOLLOW_IDLE = "Chieftain {institution} has spoken; let's all harvest {crop} for the good of Skymeadow."
DEFY_IDLE = "Remember what the elders taught us; in Skymeadow we harvest {crop} together."
BASELINE_IDLE = "I'm still getting to know Skymeadow; I'll follow the guidance I hear."
NORMATIVE_ARRIVAL = "I'm new to Skymeadow and eager to be a good citizen."
NORMATIVE_IDLE = "I'm watching what the community values before committing to a crop."


# ---------------------------------------------------------------------------
# Normative module: experts, weighted votes, updates
# ---------------------------------------------------------------------------

# The learner's defaults, shared by the state, the agent, the roster and both configs.
_BETA, _SANCTION_THRESHOLD, _OBSERVE_OTHERS = 0.5, 0.6, True


def _safe_crops(experts: Sequence[int | None], obs: Observation) -> list[int | None]:
    """The one crop each expert predicts draws no criticism, None to abstain: its
    institution's first signal's crop (one pass over `obs.signals`), or for the
    community expert (None) the others' modal last crop, counted once if present."""
    declared = {}
    for sig in obs.signals:
        declared.setdefault(sig.institution_id, sig.crop)
    community = others_modal_crop(obs.last_step_actions, obs.agent_index) if None in experts else None
    return [community if expert is None else declared.get(expert) for expert in experts]


def learner_violations(beta: float, sanction_threshold: float) -> list[str]:
    """Range violations of the normative module's parameters, one line each."""
    violations = []
    if not 0.0 < beta < 1.0:
        violations.append("beta must be in (0, 1)")
    if not 0.0 < sanction_threshold <= 1.0:
        violations.append("sanction_threshold must be in (0, 1]")
    return violations


@dataclass(frozen=True)
class NormativeState:
    """The learned institutional parameters: positive per-expert weights. An
    expert is the id of the institution it follows, or None for the community."""

    experts: tuple[int | None, ...]
    weights: tuple[float, ...]
    beta: float = _BETA  # multiplicative penalty for a wrong prediction
    sanction_threshold: float = _SANCTION_THRESHOLD  # weight share above which the agent sanctions

    def __post_init__(self):
        experts = tuple(self.experts)
        weights = tuple(float(w) for w in self.weights)
        if len(experts) != len(weights):
            raise ValueError("one weight per expert")
        if any(not math.isfinite(w) or w <= 0.0 for w in weights):
            raise ValueError("weights must be positive")
        raise_violations(learner_violations(self.beta, self.sanction_threshold))
        object.__setattr__(self, "experts", experts)
        object.__setattr__(self, "weights", weights)


def initial_state(institution_ids: Iterable[int], beta: float = _BETA,
                  sanction_threshold: float = _SANCTION_THRESHOLD) -> NormativeState:
    """Unit weights over one expert per institution plus the community expert."""
    experts = tuple(institution_ids) + (None,)
    return NormativeState(
        experts=experts,
        weights=(1.0,) * len(experts),
        beta=beta,
        sanction_threshold=sanction_threshold,
    )


def _sanction_vote(weights: Sequence[float], crops: Sequence[int | None], action: int) -> float:
    """Weighted share of the non-abstaining experts, given each one's safe crop,
    that predict criticism of `action`; 0 when all abstain."""
    voting = 0.0
    saying_sanction = 0.0
    for crop, weight in zip(crops, weights):
        if crop is None:
            continue
        voting += weight
        if action != crop:
            saying_sanction += weight
    return saying_sanction / voting if voting > 0.0 else 0.0


def predict_sanction(ns: NormativeState, obs: Observation, action: int) -> float:
    """Weighted share of non-abstaining experts predicting criticism; 0 when all abstain."""
    return _sanction_vote(ns.weights, _safe_crops(ns.experts, obs), action)


def leading_institution(ns: NormativeState) -> tuple[int | None, float]:
    """The heaviest institution expert's id (first on ties) and its share of ALL
    weight; None and 0 without institution experts."""
    total = sum(ns.weights)
    best: int | None = None
    best_weight = -math.inf
    for expert, weight in zip(ns.experts, ns.weights):
        if expert is not None and weight > best_weight:
            best, best_weight = expert, weight
    if best is None:
        return None, 0.0
    return best, best_weight / total


def sanction_criticisms(ns: NormativeState, obs: Observation) -> tuple[str, tuple[Criticism, ...]]:
    """The newcomer's turn, (utterance, criticisms). Once the leading institution
    expert's weight share clears the threshold, the newcomer criticizes
    deviations from that institution's declaration and says what a follower of
    it would say; with no criticism left it says its own idle line."""
    idle = NORMATIVE_ARRIVAL if obs.t == 0 else NORMATIVE_IDLE
    leader, share = leading_institution(ns)
    if (leader is None or share <= ns.sanction_threshold or not obs.last_step_actions
            or signal_from(obs.signals, leader) is None):
        return idle, ()
    follow = Crowd("follow_authoritative", leader)
    return follow.script(obs)._replace(idle=idle).turn(obs.agent_index)


def normative_action(ns: NormativeState, obs: Observation) -> int:
    """The crop minimizing the criticism vote (ties: previous own action, then
    lowest index)."""
    num_crops = len(obs.crop_names)
    crops = _safe_crops(ns.experts, obs)
    probs = [_sanction_vote(ns.weights, crops, c) for c in range(num_crops)]
    best = min(probs)
    tied = [c for c in range(num_crops) if probs[c] == best]
    if obs.last_step_actions and obs.last_step_actions[obs.agent_index] in tied:
        return obs.last_step_actions[obs.agent_index]
    return tied[0]


def wm_update(ns: NormativeState, obs: Observation,
              observed: tuple[Sequence[int], Sequence[int]]) -> NormativeState:
    """Weighted Majority update from `derive_outcomes`' (observed crops,
    criticized crops). A non-abstaining expert with safe crop s mispredicted
    every uncriticized villager off s and every criticized villager on s, and
    its weight is multiplied by beta once per mistake. Weights are never
    renormalized; shares are computed on demand. `reduce` applies each penalty
    as one multiplication, so the weights are the per-villager products bit for
    bit."""
    crops, criticized = observed
    weights = list(ns.weights)
    for k, safe in enumerate(_safe_crops(ns.experts, obs)):
        if safe is not None:
            mistakes = len(crops) - len(criticized) - crops.count(safe) + 2 * criticized.count(safe)
            weights[k] = reduce(operator.mul, repeat(ns.beta, mistakes), weights[k])
    return replace(ns, weights=tuple(weights))


def derive_outcomes(obs: Observation, observe_others: bool = _OBSERVE_OTHERS
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The learning signal for wm_update: the last-step crops of the villagers
    observed (all of them, or the observer alone), and the crops of those among
    them criticized this step. The observer's own sent criticisms are excluded
    so its sanctioning cannot feed back into its own learning."""
    me, actions = obs.agent_index, obs.last_step_actions
    criticized = {c.target for c in criticisms_in(obs.discussion_so_far) if c.sender != me}
    if observe_others:
        return actions, tuple(map(actions.__getitem__, criticized))
    own = actions[me:me + 1]
    return own, own if me in criticized else ()


def run_weighted_majority(
    predictions: Sequence[Sequence[bool | None]],
    outcomes: Sequence[bool],
    beta: float,
) -> tuple[int, tuple[float, ...]]:
    """Framework-free Weighted Majority over a fixed prediction table.

    Per round the weighted vote predicts True when the True-side weight is at
    least half of the non-abstaining weight (ties predict True); wrong,
    non-abstaining experts are multiplied by beta. Returns (vote mistakes,
    final weights). Used to check the mistake bound directly.
    """
    raise_violations(learner_violations(beta, _SANCTION_THRESHOLD))
    num_experts = len(predictions[0]) if predictions else 0
    weights = [1.0] * num_experts
    mistakes = 0
    for preds, outcome in zip(predictions, outcomes):
        voting = sum(w for w, p in zip(weights, preds) if p is not None)
        saying_true = sum(w for w, p in zip(weights, preds) if p is True)
        vote = voting > 0.0 and saying_true >= voting / 2.0
        if vote != outcome:
            mistakes += 1
        for k, p in enumerate(preds):
            if p is not None and p != outcome:
                weights[k] *= beta
    return mistakes, tuple(weights)


# ---------------------------------------------------------------------------
# Policy functions
# ---------------------------------------------------------------------------


class _CrowdScript(NamedTuple):
    """What villagers of one kind do in one step. `criticisms` holds a (target,
    crop, text) per agent the kind criticizes; each villager skips itself."""

    action: int
    basis: int | None
    criticisms: tuple[tuple[int, int, str], ...]
    idle: str

    def turn(self, me: int) -> tuple[str, tuple[Criticism, ...]]:
        """Member `me`'s (utterance, criticisms): its `crowd_entries` entry but the speaker."""
        return crowd_entries(self, (me,))[0][1:]


class Crowd(NamedTuple):
    """Background villagers of one kind, who all act alike. Follow mode harvests
    the institution's declaration and criticizes last step's strays; defy mode
    harvests `defy_crop` and criticizes last step's obeyers on community
    grounds."""

    mode: str
    institution_id: int | None
    defy_crop: int | None = None

    def script(self, obs: Observation) -> _CrowdScript:
        """The crowd's script for `obs`'s step; O(N + criticisms)."""
        mode, my_institution, defy_crop = self
        if my_institution is None:
            raise ValueError(f"{mode} mode needs an institution to react to")
        sig = signal_from(obs.signals, my_institution)
        if sig is None:
            raise ValueError(f"no signal from institution {my_institution}")
        names, crops = obs.agent_names, obs.crop_names
        follow = mode == "follow_authoritative"
        if follow:  # criticize last step's strays from the declaration
            action, basis = sig.crop, my_institution
            idle = FOLLOW_IDLE.format(institution=sig.name, crop=crops[sig.crop])
            template, fields = INSTITUTION_CRITICISM, {"institution": sig.name}
        elif mode == "defy_institution":  # criticize last step's obeyers on community grounds
            if defy_crop is None or defy_crop == sig.crop:
                raise ValueError("defy mode needs a defy_crop different from the declaration")
            action, basis = defy_crop, None
            idle = DEFY_IDLE.format(crop=crops[defy_crop])
            template, fields = COMMUNITY_CRITICISM, {"expected": crops[defy_crop]}
        else:
            raise ValueError(f"unknown background mode {mode!r}")
        criticisms = tuple(
            (j, crop, template.format(target=names[j], crop=crops[crop], **fields))
            for j, crop in enumerate(obs.last_step_actions) if (crop != sig.crop) == follow
        )
        return _CrowdScript(action, basis, criticisms, idle)


def background_policy(obs: Observation, mode: str, my_institution: int | None = None,
                      defy_crop: int | None = None) -> tuple[int, tuple[Criticism, ...]]:
    """Hard-coded villager behavior: the crop and criticisms of a member of
    `Crowd(mode, my_institution, defy_crop)`."""
    script = Crowd(mode, my_institution, defy_crop).script(obs)
    return script.action, script.turn(obs.agent_index)[1]


def baseline_policy(obs: Observation, rng: np.random.Generator) -> int:
    """Obey a signal: the only one, or a uniformly drawn one. Crop 0 without signals."""
    if not obs.signals:
        return 0
    if len(obs.signals) == 1:
        return obs.signals[0].crop
    return obs.signals[int(rng.integers(len(obs.signals)))].crop


# ---------------------------------------------------------------------------
# Episode-scoped agent handles
# ---------------------------------------------------------------------------


def _agent_rng(seed: int, agent_index: int) -> np.random.Generator:
    # Explicit entropy + spawn key; never Python hash().
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(agent_index,)))


class BackgroundAgent:
    """Scripted villager, a member of `self.crowd`. `orchard.step` plays a
    member's turns from its crowd's script; `discuss` and `act` build the
    script themselves, for callers that step one villager alone."""

    def __init__(self, index: int, crowd: Crowd):
        self.index = index
        self.crowd = crowd

    def discuss(self, obs: Observation) -> tuple[str, tuple[Criticism, ...]]:
        return self.crowd.script(obs).turn(obs.agent_index)

    def act(self, obs: Observation) -> int:
        return self.crowd.script(obs).action


class BaselineAgent:
    """Module-free newcomer: obeys a (possibly random) signal, never criticizes."""

    def __init__(self, index: int, seed: int):
        self.index = index
        self._rng = _agent_rng(seed, index)

    def discuss(self, obs: Observation) -> tuple[str, tuple[Criticism, ...]]:
        return BASELINE_IDLE, ()

    def act(self, obs: Observation) -> int:
        return baseline_policy(obs, self._rng)


class NormativeAgent:
    """Newcomer with the normative module, learning whom to obey from criticisms."""

    def __init__(
        self,
        index: int,
        institution_ids: Iterable[int],
        beta: float = _BETA,
        sanction_threshold: float = _SANCTION_THRESHOLD,
        observe_others: bool = _OBSERVE_OTHERS,
    ):
        self.index = index
        self.observe_others = observe_others
        self._state = initial_state(institution_ids, beta, sanction_threshold)

    @property
    def state(self) -> NormativeState:
        return self._state

    def discuss(self, obs: Observation) -> tuple[str, tuple[Criticism, ...]]:
        return sanction_criticisms(self._state, obs)

    def act(self, obs: Observation) -> int:
        self._state = wm_update(self._state, obs, derive_outcomes(obs, self.observe_others))
        return normative_action(self._state, obs)


def _village_crowd(cfg: EnvConfig) -> tuple[Crowd | None, list[str]]:
    """The crowd `cfg`'s background villagers form, or None and the staffing
    rules `cfg` breaks, one line each; with no background villagers, None and
    no rule."""
    if cfg.num_background == 0:
        return None, []
    if cfg.background_mode == "follow_authoritative":
        leaders = [inst for inst in cfg.institutions if inst.authoritative]
        if len(leaders) != 1:
            return None, ["follow_authoritative needs exactly one authoritative institution"]
        return Crowd(cfg.background_mode, leaders[0].id), []
    if not cfg.institutions:
        return None, ["defy_institution needs an institution to defy"]
    defied = cfg.institutions[0]
    crop = 0 if defied.crop_at(0) != 0 else 1  # the smallest crop its first declaration leaves
    # A declaration repeats, so one period shows every crop it declares.
    steps = range(min(cfg.max_timesteps, len(defied.crops)))
    clash = next((t for t in steps if defied.crop_at(t) == crop), None)
    if clash is not None:
        return None, [f"defy_institution: {defied.name} declares {cfg.crop_names[crop]}, "
                      f"the crop its defiers harvest, at step {clash}"]
    return Crowd(cfg.background_mode, defied.id, crop), []


def roster_violations(cfg: EnvConfig) -> list[str]:
    """The rules `build_roster` needs to staff the background villagers, one line
    per rule broken; with no background villagers none applies."""
    return _village_crowd(cfg)[1]


def build_roster(
    cfg: EnvConfig,
    focal_kind: str,
    beta: float = _BETA,
    sanction_threshold: float = _SANCTION_THRESHOLD,
    observe_others: bool = _OBSERVE_OTHERS,
) -> list:
    """The episode's agent handles: the focal agent at index 0, then backgrounds.

    The backgrounds share one `Crowd`: follow mode tracks the authoritative
    institution; defy mode defies the first institution by harvesting the
    smallest crop that differs from its first declaration.
    A config that breaks `roster_violations` raises one ValueError listing them.
    """
    crowd, violations = _village_crowd(cfg)
    raise_violations(violations)
    institution_ids = [inst.id for inst in cfg.institutions]
    if focal_kind == "normative":
        focal = NormativeAgent(0, institution_ids, beta, sanction_threshold, observe_others)
    elif focal_kind == "baseline":
        focal = BaselineAgent(0, cfg.seed)
    else:
        raise ValueError(f"unknown focal kind {focal_kind!r}")
    return [focal] + [BackgroundAgent(1 + i, crowd) for i in range(cfg.num_background)]

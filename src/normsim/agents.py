"""Agent policies for the orchard.

Three kinds of villager:

- Background agents are hard-coded community members. In follow mode they
  harvest their institution's declared crop and criticize anyone who strayed
  from it last step. In defy mode they harvest a fixed defiance crop and
  criticize anyone who OBEYED the institution last step.
- The baseline newcomer obeys an institution signal (picked uniformly at
  random when there are several) and never criticizes.
- The normative newcomer keeps one expert per institution plus a
  community-majority expert, each predicting whether a given crop draws
  criticism. Expert weights update by the Weighted Majority rule (wrong,
  non-abstaining experts are multiplied by beta). The agent harvests the crop
  with the lowest weighted criticism vote and, once a single institution
  expert holds more than `sanction_threshold` of the total weight, criticizes
  deviations from that institution's declaration itself.

Villagers of one kind (mode, institution, defiance crop) form a `Crowd` and act
alike: the crowd's script for a step (crop, criticisms, idle line) gives every
member's turn, so `orchard.step` builds it once per step for all of them. The
learner finds each expert's safe crop once per update and once per choice.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .orchard import Criticism, EnvConfig, Observation, crowd_entries, modal_crop, raise_violations

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


@dataclass(frozen=True)
class Expert:
    """A predictor of community criticism: one institution's declaration, or
    the majority crop of the other agents."""

    kind: str  # "institution" | "community"
    institution_id: int | None = None

    def __post_init__(self):
        if self.kind not in ("institution", "community"):
            raise ValueError(f"unknown expert kind {self.kind!r}")
        if (self.kind == "institution") != (self.institution_id is not None):
            raise ValueError("institution experts (and only they) need an institution_id")


def _signal_for(obs: Observation, institution_id: int):
    """The first signal `institution_id` sent this step; None if it sent none."""
    return next((s for s in obs.signals if s.institution_id == institution_id), None)


def _safe_crop(expert: Expert, obs: Observation) -> int | None:
    """The one crop `expert` predicts draws no criticism: its institution's
    declaration, or the modal crop of the other agents' last actions (one O(N)
    count). None = abstain."""
    if expert.kind == "institution":
        sig = _signal_for(obs, expert.institution_id)
        return None if sig is None else sig.crop
    actions = obs.last_step_actions
    others = Counter(actions)
    if 0 <= obs.agent_index < len(actions):
        others[actions[obs.agent_index]] -= 1
    others = +others  # drops the agent's own crop if it was its only harvester
    return modal_crop(others) if others else None


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
    """The learned institutional parameters: positive per-expert weights."""

    experts: tuple[Expert, ...]
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
    experts = tuple(Expert("institution", i) for i in institution_ids) + (Expert("community"),)
    return NormativeState(
        experts=experts,
        weights=(1.0,) * len(experts),
        beta=beta,
        sanction_threshold=sanction_threshold,
    )


@dataclass(frozen=True)
class SanctionPrediction:
    action: int
    probability: float  # weighted vote that the community will criticize this action


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


def predict_sanction(ns: NormativeState, obs: Observation, action: int) -> SanctionPrediction:
    """Weighted share of non-abstaining experts predicting criticism; 0 when all abstain."""
    crops = [_safe_crop(expert, obs) for expert in ns.experts]
    return SanctionPrediction(action=action, probability=_sanction_vote(ns.weights, crops, action))


def leading_institution(ns: NormativeState) -> tuple[Expert | None, float]:
    """The heaviest institution expert (first on ties) and its share of ALL weight."""
    total = sum(ns.weights)
    best: Expert | None = None
    best_weight = -math.inf
    for expert, weight in zip(ns.experts, ns.weights):
        if expert.kind == "institution" and weight > best_weight:
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
    expert, share = leading_institution(ns)
    if (expert is None or share <= ns.sanction_threshold or not obs.last_step_actions
            or _signal_for(obs, expert.institution_id) is None):
        return idle, ()
    follow = Crowd("follow_authoritative", expert.institution_id)
    return follow.script(obs)._replace(idle=idle).turn(obs.agent_index)


def normative_action(ns: NormativeState, obs: Observation) -> int:
    """The crop minimizing the criticism vote (ties: previous own action, then
    lowest index)."""
    num_crops = len(obs.crop_names)
    crops = [_safe_crop(expert, obs) for expert in ns.experts]
    probs = [_sanction_vote(ns.weights, crops, c) for c in range(num_crops)]
    best = min(probs)
    tied = [c for c in range(num_crops) if probs[c] == best]
    if obs.last_step_actions and obs.last_step_actions[obs.agent_index] in tied:
        return obs.last_step_actions[obs.agent_index]
    return tied[0]


def wm_update(
    ns: NormativeState, obs: Observation, observed: Sequence[tuple[int, bool]]
) -> NormativeState:
    """Weighted Majority update: for each observed (action, sanctioned) pair,
    every non-abstaining expert that mispredicted is multiplied by beta.
    Weights are never renormalized; shares are computed on demand. Equal pairs
    are grouped, and each penalty is still one multiplication, so the weights
    are the per-pair products bit for bit."""
    weights = list(ns.weights)
    crops = [_safe_crop(expert, obs) for expert in ns.experts]
    for (action, sanctioned), times in Counter(observed).items():
        for k, crop in enumerate(crops):
            if crop is not None and (action != crop) != bool(sanctioned):
                for _ in range(times):
                    weights[k] *= ns.beta
    return replace(ns, weights=tuple(weights))


def derive_outcomes(obs: Observation,
                    observe_others: bool = _OBSERVE_OTHERS) -> tuple[tuple[int, bool], ...]:
    """(last-step action, was it criticized this step?) pairs, the learning signal
    for wm_update. The observer's own sent criticisms are excluded so its
    sanctioning cannot feed back into its own learning."""
    if not obs.last_step_actions:
        return ()
    sanctioned_targets = {
        c.target
        for entry in obs.discussion_so_far
        for c in entry.criticisms
        if c.sender != obs.agent_index
    }
    if observe_others:
        indices: Sequence[int] = range(len(obs.last_step_actions))
    else:
        indices = (obs.agent_index,)
    return tuple(
        (obs.last_step_actions[j], j in sanctioned_targets) for j in indices
    )


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
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
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


def _background_action(obs: Observation, mode: str, my_institution: int | None,
                       defy_crop: int | None):
    """(signal reacted to, crop harvested) of a background villager."""
    if my_institution is None:
        raise ValueError(f"{mode} mode needs an institution to react to")
    sig = _signal_for(obs, my_institution)
    if sig is None:
        raise ValueError(f"no signal from institution {my_institution}")
    if mode == "follow_authoritative":
        return sig, sig.crop
    if mode == "defy_institution":
        if defy_crop is None or defy_crop == sig.crop:
            raise ValueError("defy mode needs a defy_crop different from the declaration")
        return sig, defy_crop
    raise ValueError(f"unknown background mode {mode!r}")


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
        sig, action = _background_action(obs, mode, my_institution, defy_crop)
        names, crops = obs.agent_names, obs.crop_names
        follow = mode == "follow_authoritative"
        if follow:  # criticize last step's strays from the declaration
            idle = FOLLOW_IDLE.format(institution=sig.name, crop=crops[sig.crop])
            template, fields = INSTITUTION_CRITICISM, {"institution": sig.name}
        else:  # criticize last step's obeyers on community grounds
            idle = DEFY_IDLE.format(crop=crops[defy_crop])
            template, fields = COMMUNITY_CRITICISM, {"expected": crops[defy_crop]}
        criticisms = tuple(
            (j, crop, template.format(target=names[j], crop=crops[crop], **fields))
            for j, crop in enumerate(obs.last_step_actions) if (crop != sig.crop) == follow
        )
        return _CrowdScript(action, my_institution if follow else None, criticisms, idle)


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

    def __init__(self, index: int, mode: str, institution_id: int, defy_crop: int | None = None):
        self.index = index
        self.crowd = Crowd(mode, institution_id, defy_crop)

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
        outcomes = derive_outcomes(obs, self.observe_others)
        if outcomes:
            self._state = wm_update(self._state, obs, outcomes)
        return normative_action(self._state, obs)


def defiance_crop(institution) -> int:
    """The crop defy-mode villagers harvest: the smallest crop that differs from
    the defied institution's first declaration."""
    return 0 if institution.policy.crop_at(0) != 0 else 1


def roster_violations(cfg: EnvConfig) -> list[str]:
    """The rules `build_roster` needs to staff the background villagers, one line
    per rule broken; with no background villagers none applies."""
    if cfg.num_background == 0:
        return []
    if cfg.background_mode == "follow_authoritative":
        if sum(inst.authoritative for inst in cfg.institutions) == 1:
            return []
        return ["follow_authoritative needs exactly one authoritative institution"]
    if not cfg.institutions:
        return ["defy_institution needs an institution to defy"]
    defied, crop = cfg.institutions[0], defiance_crop(cfg.institutions[0])
    # A rotation repeats, so one period shows every declaration; a constant
    # declaration is never its own defiance crop.
    steps = range(min(cfg.max_timesteps, len(getattr(defied.policy, "crops", ()))))
    clash = next((t for t in steps if defied.policy.crop_at(t) == crop), None)
    if clash is None:
        return []
    return [f"defy_institution: {defied.name} declares {cfg.crop_names[crop]}, "
            f"the crop its defiers harvest, at step {clash}"]


def build_roster(
    cfg: EnvConfig,
    focal_kind: str,
    beta: float = _BETA,
    sanction_threshold: float = _SANCTION_THRESHOLD,
    observe_others: bool = _OBSERVE_OTHERS,
) -> list:
    """The episode's agent handles: the focal agent at index 0, then backgrounds.

    Follow-mode backgrounds track the authoritative institution; defy-mode
    backgrounds defy the first institution by harvesting its `defiance_crop`.
    A config that breaks `roster_violations` raises one ValueError listing them.
    """
    raise_violations(roster_violations(cfg))
    institution_ids = [inst.id for inst in cfg.institutions]
    if focal_kind == "normative":
        focal = NormativeAgent(0, institution_ids, beta, sanction_threshold, observe_others)
    elif focal_kind == "baseline":
        focal = BaselineAgent(0, cfg.seed)
    else:
        raise ValueError(f"unknown focal kind {focal_kind!r}")

    agents: list = [focal]
    if cfg.num_background > 0:
        if cfg.background_mode == "follow_authoritative":
            target, crop = next(inst for inst in cfg.institutions if inst.authoritative), None
        else:
            target, crop = cfg.institutions[0], defiance_crop(cfg.institutions[0])
        agents += [BackgroundAgent(1 + i, cfg.background_mode, target.id, crop)
                   for i in range(cfg.num_background)]
    return agents

"""The O(N + criticisms) village step against the per-villager rescans it replaced.

The `ref_*` functions and `Reference*Agent` classes below are the earlier
implementations of `orchard.step`, the expert vote (now `agents._safe_crops`),
`agents.predict_sanction`, `agents.sanction_criticisms`,
`agents.normative_action`, `agents.wm_update`, `agents.background_policy` and
the villagers calling them, kept verbatim as the reference, and so are
`orchard.episode_to_dict` (`ref_episode_to_dict`) and the `json.dumps` call
that `orchard.save_episode` wrote with (`ref_saved_episode`). The reference
learner reads the (action, criticized) outcome pair of each observed villager
from its own loop, `ref_derive_outcomes`, where `agents.derive_outcomes` now
returns crop tuples, so the newcomer's outcomes and update are both checked
against separate code. Seeded random episodes must give the same episode dump
and `episode.json` bytes, transcript, failure text and final focal weights,
float bits included: rewards too, which `orchard.step` prices from per-agent
criticism counts with the reference's operands in its order.
`agents.normative_action` returns only the crop, the first element of
`ref_normative_action`'s pair.
"""
import json
import operator
from pathlib import Path
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from normsim import agents, harness, institutions, orchard
from normsim.agents import (
    COMMUNITY_CRITICISM,
    DEFY_IDLE,
    FOLLOW_IDLE,
    INSTITUTION_CRITICISM,
    NORMATIVE_ARRIVAL,
    NORMATIVE_IDLE,
    leading_institution,
)
from normsim.institutions import declare
from normsim.orchard import (
    Criticism,
    DiscussionEntry,
    EnvError,
    Observation,
    WorldState,
    _validate_criticism,
    modal_crop,
    roster_names,
)

# ---------------------------------------------------------------------------
# Reference: one Observation, one vote and one scan per villager
# ---------------------------------------------------------------------------


def ref_step(prev, agents, cfg):
    if len(agents) != cfg.num_agents:
        raise ValueError(f"{len(agents)} agent handles for {cfg.num_agents} configured agents")
    t = 0 if prev is None else prev.t + 1
    names = roster_names(cfg)
    signals = tuple(declare(inst, t, cfg.crop_names) for inst in cfg.institutions)
    last_actions = () if prev is None else prev.actions
    last_criticisms = () if prev is None else prev.criticisms

    def obs_for(idx, so_far):
        return Observation(
            t=t,
            agent_index=idx,
            agent_names=names,
            crop_names=cfg.crop_names,
            signals=signals,
            last_step_actions=last_actions,
            last_step_criticisms=last_criticisms,
            discussion_so_far=tuple(so_far),
        )

    log = []
    for _ in range(cfg.discussion_turns):
        for idx, agent in enumerate(agents):
            text, criticisms = agent.discuss(obs_for(idx, log))
            criticisms = tuple(criticisms)
            for c in criticisms:
                _validate_criticism(c, idx, cfg, last_actions)
            log.append(DiscussionEntry(speaker=idx, text=text, criticisms=criticisms))

    actions = []
    for idx, agent in enumerate(agents):
        chosen = agent.act(obs_for(idx, log))
        try:
            crop = operator.index(chosen)
        except TypeError:
            raise EnvError(f"agent {names[idx]} returned non-integer action {chosen!r}") from None
        if not 0 <= crop < cfg.num_crops:
            raise EnvError(f"agent {names[idx]} returned out-of-range crop {crop}")
        actions.append(crop)
    actions = tuple(actions)

    criticisms = tuple(c for entry in log for c in entry.criticisms)
    received = Counter(c.target for c in criticisms)
    sent = Counter(c.sender for c in criticisms)
    frac = actions.count(modal_crop(actions)) / len(actions)
    rewards = tuple(
        cfg.harvest_reward
        + cfg.monoculture_bonus * frac
        - cfg.sanction_cost_received * received[i]
        - cfg.sanction_cost_sent * sent[i]
        for i in range(len(actions))
    )
    return WorldState(
        t=t,
        signals=signals,
        discussion_log=tuple(log),
        actions=actions,
        criticisms=criticisms,
        rewards=rewards,
    )


def ref_expert_vote(expert, obs, action):
    if expert is not None:
        sig = next(
            (s for s in obs.signals if s.institution_id == expert), None
        )
        if sig is None:
            return None
        return action != sig.crop
    others = [a for i, a in enumerate(obs.last_step_actions) if i != obs.agent_index]
    if not others:
        return None
    return action != modal_crop(others)


def ref_predict_sanction(ns, obs, action):
    voting = 0.0
    saying_sanction = 0.0
    for expert, weight in zip(ns.experts, ns.weights):
        vote = ref_expert_vote(expert, obs, action)
        if vote is None:
            continue
        voting += weight
        if vote:
            saying_sanction += weight
    return saying_sanction / voting if voting > 0.0 else 0.0


def ref_sanction_criticisms(ns, obs):
    expert, share = leading_institution(ns)
    if expert is None or share <= ns.sanction_threshold or not obs.last_step_actions:
        return ()
    sig = next((s for s in obs.signals if s.institution_id == expert), None)
    if sig is None:
        return ()
    criticisms = []
    for j, crop in enumerate(obs.last_step_actions):
        if j == obs.agent_index or crop == sig.crop:
            continue
        criticisms.append(
            Criticism(
                sender=obs.agent_index,
                target=j,
                criticized_crop=crop,
                basis=expert,
                text=INSTITUTION_CRITICISM.format(
                    target=obs.agent_names[j], institution=sig.name
                ),
            )
        )
    return tuple(criticisms)


def ref_normative_action(ns, obs):
    num_crops = len(obs.crop_names)
    probs = [ref_predict_sanction(ns, obs, c) for c in range(num_crops)]
    best = min(probs)
    tied = [c for c in range(num_crops) if probs[c] == best]
    if obs.last_step_actions and obs.last_step_actions[obs.agent_index] in tied:
        action = obs.last_step_actions[obs.agent_index]
    else:
        action = tied[0]
    return action, ref_sanction_criticisms(ns, obs)


def ref_derive_outcomes(obs, observe_others):
    """(last-step action, criticized this step by another villager?) per observed villager."""
    if not obs.last_step_actions:
        return ()
    me = obs.agent_index
    criticized = set()
    for entry in obs.discussion_so_far:
        for c in entry.criticisms:
            if c.sender != me:
                criticized.add(c.target)
    observed = range(len(obs.last_step_actions)) if observe_others else (me,)
    return tuple((obs.last_step_actions[j], j in criticized) for j in observed)


def crop_tuples(pairs):
    """`agents.derive_outcomes`' (observed crops, criticized crops) for outcome pairs."""
    return tuple(a for a, _ in pairs), tuple(a for a, sanctioned in pairs if sanctioned)


def ref_wm_update(ns, obs, observed):
    weights = list(ns.weights)
    for action, sanctioned in observed:
        for k, expert in enumerate(ns.experts):
            vote = ref_expert_vote(expert, obs, action)
            if vote is not None and vote != bool(sanctioned):
                weights[k] *= ns.beta
    return replace(ns, weights=tuple(weights))


def _signal_for(obs, institution_id):
    sig = next((s for s in obs.signals if s.institution_id == institution_id), None)
    if sig is None:
        raise ValueError(f"no signal from institution {institution_id}")
    return sig


def ref_background_policy(obs, mode, my_institution=None, defy_crop=None):
    if my_institution is None:
        raise ValueError(f"{mode} mode needs an institution to react to")
    sig = _signal_for(obs, my_institution)
    declared = sig.crop
    criticisms = []
    if mode == "follow_authoritative":
        action = declared
        for j, crop in enumerate(obs.last_step_actions):
            if j == obs.agent_index or crop == declared:
                continue
            criticisms.append(
                Criticism(
                    sender=obs.agent_index,
                    target=j,
                    criticized_crop=crop,
                    basis=my_institution,
                    text=INSTITUTION_CRITICISM.format(
                        target=obs.agent_names[j], institution=sig.name
                    ),
                )
            )
    elif mode == "defy_institution":
        if defy_crop is None or defy_crop == declared:
            raise ValueError("defy mode needs a defy_crop different from the declaration")
        action = defy_crop
        for j, crop in enumerate(obs.last_step_actions):
            if j == obs.agent_index or crop != declared:
                continue
            criticisms.append(
                Criticism(
                    sender=obs.agent_index,
                    target=j,
                    criticized_crop=crop,
                    basis=None,
                    text=COMMUNITY_CRITICISM.format(
                        target=obs.agent_names[j],
                        crop=obs.crop_names[crop],
                        expected=obs.crop_names[defy_crop],
                    ),
                )
            )
    else:
        raise ValueError(f"unknown background mode {mode!r}")
    return action, tuple(criticisms)


class ReferenceBackgroundAgent(agents.BackgroundAgent):
    def _policy(self, obs):
        return ref_background_policy(obs, *self.crowd)

    def discuss(self, obs):
        _, criticisms = self._policy(obs)
        if criticisms:
            return " ".join(c.text for c in criticisms), criticisms
        sig = _signal_for(obs, self.crowd.institution_id)
        if self.crowd.mode == "follow_authoritative":
            text = FOLLOW_IDLE.format(institution=sig.name, crop=obs.crop_names[sig.crop])
        else:
            text = DEFY_IDLE.format(crop=obs.crop_names[self.crowd.defy_crop])
        return text, ()

    def act(self, obs):
        action, _ = self._policy(obs)
        return action


class ReferenceNormativeAgent(agents.NormativeAgent):
    def discuss(self, obs):
        criticisms = ref_sanction_criticisms(self._state, obs)
        if criticisms:
            return " ".join(c.text for c in criticisms), criticisms
        return (NORMATIVE_ARRIVAL if obs.t == 0 else NORMATIVE_IDLE), ()

    def act(self, obs):
        outcomes = ref_derive_outcomes(obs, self.observe_others)
        if outcomes:
            self._state = ref_wm_update(self._state, obs, outcomes)
        action, _ = ref_normative_action(self._state, obs)
        return action


def reference_roster(roster):
    """Fresh villagers like those of a fresh `roster`, running the reference code."""
    out = []
    for agent in roster:
        if isinstance(agent, agents.BackgroundAgent):
            agent = ReferenceBackgroundAgent(agent.index, agent.crowd)
        elif isinstance(agent, agents.NormativeAgent):
            state = agent.state
            agent = ReferenceNormativeAgent(
                0,
                [e for e in state.experts if e is not None],
                beta=state.beta,
                sanction_threshold=state.sanction_threshold,
                observe_others=agent.observe_others,
            )
        out.append(agent)
    return out


def ref_episode_to_dict(history, cfg):
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
                    {
                        "speaker": entry.speaker,
                        "text": entry.text,
                        "criticisms": [{"sender": s, "target": j, "criticized_crop": crop, "basis": b,
                                        "text": text} for s, j, crop, b, text in entry.criticisms],
                    }
                    for entry in state.discussion_log
                ],
                "actions": list(state.actions),
                "rewards": list(state.rewards),
            }
            for state in history
        ],
    }


def ref_saved_episode(history, cfg):
    """(dump, episode.json bytes) as `orchard.save_episode` wrote them."""
    dump = ref_episode_to_dict(history, cfg)
    return dump, (json.dumps(dump, indent=2, sort_keys=True) + "\n").encode("utf-8")


def saved_episode(history, cfg, path):
    """(episode_to_dict, the bytes save_episode writes to `path`)."""
    orchard.save_episode(history, cfg, path)
    return orchard.episode_to_dict(history, cfg), path.read_bytes()


# ---------------------------------------------------------------------------
# Random episodes
# ---------------------------------------------------------------------------


def random_episode(rng):
    """(EnvConfig, focal kind, beta, observe_others) over the axes the step touches.
    The reward settings are drawn after every other axis."""
    num_crops = int(rng.integers(2, 6))
    mode = orchard.BACKGROUND_MODES[int(rng.integers(2))]
    count = int(rng.integers(1, 4))
    leader = int(rng.integers(count))
    insts = []
    for i in range(count):
        authoritative = i == leader if mode == "follow_authoritative" else bool(rng.integers(2))
        if rng.random() < 0.5:
            crops = (int(rng.integers(num_crops)),)
        else:
            crops = tuple(int(c) for c in rng.integers(num_crops, size=int(rng.integers(1, 5))))
        insts.append(
            institutions.Institution(i, institutions.institution_name(i), crops, authoritative)
        )
    max_timesteps = int(rng.integers(1, 21))
    cfg = orchard.EnvConfig(
        institutions=tuple(insts),
        num_background=int(rng.integers(0, 41)),
        background_mode=mode,
        num_crops=num_crops,
        discussion_turns=int(rng.integers(0, 3)),
        max_timesteps=max_timesteps,
        eval_window=max_timesteps,
        seed=int(rng.integers(2**32)),
    )
    focal = ("normative", "baseline")[int(rng.integers(2))]
    beta = float(rng.choice([0.05, 0.2, 0.5, 0.9]))
    observe_others = bool(rng.integers(2))

    def cost():  # 0 a quarter of the time
        return 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 1.5))

    cfg = replace(cfg, harvest_reward=float(rng.uniform(-2.0, 2.0)), monoculture_bonus=cost(),
                  sanction_cost_received=cost(), sanction_cost_sent=cost())
    return cfg, focal, beta, observe_others


def play(step, roster, cfg):
    """Steps until max_timesteps or the first error: (history, failure text)."""
    history, state = [], None
    try:
        for _ in range(cfg.max_timesteps):
            state = step(state, roster, cfg)
            history.append(state)
    except Exception as exc:  # noqa: BLE001 - the failure text is compared
        return history, f"{type(exc).__name__}: {exc}"
    return history, None


# seed -> (EnvConfig, focal kind, failure text, did the focal agent sanction?)
EPISODES = {}


def replay_both(cfg, focal, beta, observe_others, path):
    """Both implementations on one episode: their (new, reference) outputs, then
    the reference's history and failure text. The new side's `episode.json` is
    written to `path`."""
    outputs = []
    sides = ((orchard.step, list, lambda history: saved_episode(history, cfg, path)),
             (ref_step, reference_roster, lambda history: ref_saved_episode(history, cfg)))
    for step, wrap, saved in sides:
        try:  # a roster the config cannot staff fails the episode up front
            handles = wrap(agents.build_roster(cfg, focal, beta=beta, observe_others=observe_others))
        except ValueError as exc:
            handles, history, failure = None, [], f"ValueError: {exc}"
        else:
            history, failure = play(step, handles, cfg)
        weights = handles[0].state.weights if handles and focal == "normative" else None
        outputs.append(
            (
                saved(history),
                orchard.render_transcript(history, cfg),
                failure,
                [w.hex() for w in weights] if weights is not None else None,
            )
        )
    return outputs, history, failure


def replay(seed, path):
    """Both implementations on one seeded episode: (new, reference) outputs."""
    cfg, focal, beta, observe_others = random_episode(np.random.default_rng(seed))
    outputs, history, failure = replay_both(cfg, focal, beta, observe_others, path)
    sanctioned = any(c.sender == 0 for state in history for c in state.criticisms)
    EPISODES[seed] = (cfg, focal, failure, sanctioned)
    return outputs


@pytest.mark.parametrize("seed", range(300))
def test_step_matches_reference(seed, tmp_path):
    new, ref = replay(seed, tmp_path / "episode.json")
    assert new == ref


@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
def test_crowd320_dump_matches_reference(mode, tmp_path):
    """The N=320 follow and defy villages of the CI example runs, in which all
    320 villagers criticize the baseline newcomer on some steps."""
    example = json.loads((Path(__file__).parents[1] / "docs/examples/simulate.json").read_text())
    example["env"].update(num_background=320, background_mode=mode)
    sim = harness.parse_sim_config({**example, "focal": "baseline"})
    history, failure = play(orchard.step, agents.build_roster(sim.env, "baseline"), sim.env)
    assert failure is None and len(history) == sim.env.max_timesteps
    assert any(len(state.criticisms) == 320 for state in history)
    assert saved_episode(history, sim.env, tmp_path / "episode.json") == ref_saved_episode(
        history, sim.env)


@pytest.mark.parametrize("observe_others", [True, False])
@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
def test_crowd320_normative_episodes_match_reference(mode, observe_others, tmp_path):
    """The docs example's normative newcomer among 320 follow or defy villagers,
    learning from everyone's outcomes or only its own: the same dump,
    `episode.json` bytes, transcript, failure text and weight bits as the
    reference."""
    example = json.loads((Path(__file__).parents[1] / "docs/examples/simulate.json").read_text())
    example["env"].update(num_background=320, background_mode=mode)
    sim = harness.parse_sim_config({**example, "observe_others": observe_others})
    assert sim.focal_kind == "normative"
    (new, ref), history, failure = replay_both(sim.env, "normative", sim.beta, observe_others,
                                               tmp_path / "episode.json")
    assert new == ref
    # followers never see the newcomer stray; defiers all criticize its step-0 obedience
    quiet = [0] * len(history)
    expected = [0, 320] + quiet[2:] if mode == "defy_institution" else quiet
    assert [len(state.criticisms) for state in history] == expected
    if observe_others:  # 320 equal outcomes a step drive the losing experts' weights to 0
        assert (len(history), failure) == (4, "ValueError: weights must be positive")
    else:
        assert (len(history), failure) == (sim.env.max_timesteps, None)


def test_random_episodes_cover_the_axes(tmp_path):
    seen = Counter()
    for seed in range(300):
        if seed not in EPISODES:
            replay(seed, tmp_path / "episode.json")
        cfg, focal, failure, sanctioned = EPISODES[seed]
        seen[cfg.background_mode, focal] += 1
        seen["turns", cfg.discussion_turns] += 1
        seen["crops", cfg.num_crops] += 1
        seen["no background"] += cfg.num_background == 0
        seen["40 background"] += cfg.num_background == 40
        seen["rotation"] += any(len(i.crops) > 1 for i in cfg.institutions)
        seen["underflow"] += failure == "ValueError: weights must be positive"
        seen["defy crop declared"] += "the crop its defiers harvest" in (failure or "")
        seen["completed"] += failure is None
        seen["focal sanctions"] += sanctioned
        seen["negative harvest"] += cfg.harvest_reward < 0
        seen["zero cost"] += 0.0 in (cfg.monoculture_bonus, cfg.sanction_cost_received,
                                     cfg.sanction_cost_sent)
    for mode in orchard.BACKGROUND_MODES:
        for focal in ("normative", "baseline"):
            assert seen[mode, focal] > 0
    for key in [("turns", k) for k in range(3)] + [("crops", k) for k in range(2, 6)]:
        assert seen[key] > 0
    for key in ("no background", "40 background", "rotation", "underflow",
                "defy crop declared", "completed", "focal sanctions", "negative harvest",
                "zero cost"):
        assert seen[key] > 0, key


def random_observation(rng):
    n = int(rng.integers(1, 12))
    num_crops = int(rng.integers(2, 6))
    crop_names = institutions.CROP_NAMES[:num_crops]
    signals = tuple(
        declare(institutions.make_institution(i, int(rng.integers(num_crops))), 1, crop_names)
        for i in range(int(rng.integers(0, 3)))
    )
    last_actions = tuple(int(c) for c in rng.integers(num_crops, size=n))
    if rng.random() < 0.1:
        last_actions = ()  # step 0
    return Observation(
        t=1,
        agent_index=int(rng.integers(n + 1)),  # one past the roster now and then
        agent_names=roster_names(orchard.EnvConfig(institutions=(), num_background=n - 1)),
        crop_names=crop_names,
        signals=signals,
        last_step_actions=last_actions,
        last_step_criticisms=(),
        discussion_so_far=(),
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("seed", range(20))
def test_votes_and_policies_match_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        obs = random_observation(rng)
        num_crops = len(obs.crop_names)
        ns = agents.NormativeState(
            experts=(0, 1, 2, None),
            weights=tuple(float(w) for w in rng.uniform(0.01, 2.0, size=4)),
            sanction_threshold=float(rng.choice([0.1, 0.3, 0.6])),
        )
        assert agents.sanction_criticisms(ns, obs)[1] == ref_sanction_criticisms(ns, obs)
        for expert, crop in zip(ns.experts, agents._safe_crops(ns.experts, obs), strict=True):
            for action in range(num_crops):
                vote = None if crop is None else action != crop
                assert vote == ref_expert_vote(expert, obs, action)
        for action in range(num_crops):
            assert agents.predict_sanction(ns, obs, action) == ref_predict_sanction(ns, obs, action)
        if obs.agent_index < len(obs.last_step_actions):
            assert agents.normative_action(ns, obs) == ref_normative_action(ns, obs)[0]
        observed = [(int(rng.integers(num_crops)), bool(rng.integers(2))) for _ in range(5)]
        assert agents.wm_update(ns, obs, crop_tuples(observed)) == ref_wm_update(ns, obs, observed)
        for mode in orchard.BACKGROUND_MODES + ("riot",):
            inst = int(rng.integers(4)) if rng.random() < 0.9 else None
            defy = int(rng.integers(num_crops)) if rng.random() < 0.9 else None
            args = (obs, mode, inst, defy)
            policy = outcome(agents.background_policy, *args)
            assert policy == outcome(ref_background_policy, *args)

"""Weighted-majority normative module and scripted villager policies."""
import functools
import math
from collections import Counter

import numpy as np
import pytest

from normsim import agents, institutions, orchard
from normsim.orchard import Criticism, DiscussionEntry, Observation

CROPS3 = institutions.CROP_NAMES[:3]
NAMES = ("Alice", "John", "Anthony", "Jane", "Darcy", "Maya")


def sig(inst_id, crop, t=1):
    return institutions.declare(institutions.make_institution(inst_id, crop), t, CROPS3)


def make_obs(signals=(), last_actions=(), agent_index=0, t=1, discussion=(),
             crop_names=CROPS3, num_agents=None):
    n = num_agents if num_agents is not None else max(len(last_actions), agent_index + 1, 2)
    return Observation(
        t=t,
        agent_index=agent_index,
        agent_names=NAMES[:n],
        crop_names=crop_names,
        signals=tuple(signals),
        last_step_actions=tuple(last_actions),
        last_step_criticisms=(),
        discussion_so_far=tuple(discussion),
    )


def linear_signal_for(signals, institution_id):
    """The lookup `agents._signal_for` replaced: a scan, first match wins."""
    return next((s for s in signals if s.institution_id == institution_id), None)


@pytest.mark.parametrize("seed", range(5))
def test_signal_lookup_matches_linear_scan(seed):
    rng = np.random.default_rng(seed)
    pool = [()]  # ids drawn from 0..3 repeat often, so duplicates are common
    for size in rng.integers(1, 7, size=8):
        pool.append(tuple(sig(int(i), int(c)) for i, c in
                          zip(rng.integers(4, size=size), rng.integers(3, size=size))))
    assert any(len({s.institution_id for s in p}) < len(p) for p in pool)
    for _ in range(400):
        # consecutive lookups mostly switch tuples, so a stale map would answer
        signals = pool[int(rng.integers(len(pool)))]
        obs = make_obs(signals=signals)
        for inst in rng.permutation(6) - 1:
            assert agents._signal_for(obs, int(inst)) is linear_signal_for(signals, int(inst))


def state_for(expert_specs, weights, **kwargs):
    experts = tuple(
        agents.Expert("community") if spec is None else agents.Expert("institution", spec)
        for spec in expert_specs
    )
    return agents.NormativeState(experts=experts, weights=weights, **kwargs)


def test_expert_validation():
    with pytest.raises(ValueError, match="institution_id"):
        agents.Expert("institution")
    with pytest.raises(ValueError, match="institution_id"):
        agents.Expert("community", institution_id=1)
    with pytest.raises(ValueError, match="kind"):
        agents.Expert("oracle", institution_id=1)


def test_normative_state_validation():
    inst = agents.Expert("institution", 0)
    with pytest.raises(ValueError, match="one weight per expert"):
        agents.NormativeState(experts=(inst,), weights=(1.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        agents.NormativeState(experts=(inst,), weights=(0.0,))
    with pytest.raises(ValueError, match="beta"):
        agents.NormativeState(experts=(inst,), weights=(1.0,), beta=1.0)
    with pytest.raises(ValueError, match="sanction_threshold"):
        agents.NormativeState(experts=(inst,), weights=(1.0,), sanction_threshold=1.5)


def test_initial_state():
    ns = agents.initial_state([0, 3], beta=0.4, sanction_threshold=0.7)
    assert [e.kind for e in ns.experts] == ["institution", "institution", "community"]
    assert [e.institution_id for e in ns.experts] == [0, 3, None]
    assert ns.weights == (1.0, 1.0, 1.0)
    assert (ns.beta, ns.sanction_threshold) == (0.4, 0.7)


def test_expert_votes():
    inst = agents.Expert("institution", 0)
    comm = agents.Expert("community")
    obs = make_obs(signals=(sig(0, 0),), last_actions=(2, 1, 1), agent_index=0)
    # an expert votes "criticized" for every crop but its safe crop
    assert agents._safe_crop(inst, obs) == 0
    # community judges against the modal crop of the OTHER agents
    assert agents._safe_crop(comm, obs) == 1
    # abstentions: no matching signal, no previous actions
    assert agents._safe_crop(inst, make_obs(signals=(sig(9, 0),))) is None
    assert agents._safe_crop(comm, make_obs(signals=(sig(0, 0),))) is None


def test_predict_sanction_oracle_values():
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 1, 1), agent_index=0)
    ns = state_for([0, None], (1.0, 1.0))
    # institution says sanction, community says safe, equal weights
    assert agents.predict_sanction(ns, obs, 1).probability == 0.5
    assert agents.predict_sanction(ns, obs, 2).probability == 1.0

    # a discredited institution barely moves the vote: 1 / 1.0625
    worn = state_for([0, None], (0.0625, 1.0))
    assert agents.predict_sanction(worn, obs, 0).probability == 0.9411764705882353
    assert agents.predict_sanction(worn, obs, 1).probability == 0.058823529411764705

    # all experts abstaining (no signal, no history) => probability 0
    empty = agents.predict_sanction(ns, make_obs(t=0), 0)
    assert empty.probability == 0.0
    assert empty.action == 0


def test_predict_sanction_scale_invariance():
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 1, 1), agent_index=0)
    for action in range(3):
        a = agents.predict_sanction(state_for([0, None], (4.0, 1.0)), obs, action)
        b = agents.predict_sanction(state_for([0, None], (8.0, 2.0)), obs, action)
        assert a.probability == pytest.approx(b.probability)


def test_leading_institution():
    ns = state_for([0, 1, None], (1.0, 3.0, 2.0))
    expert, share = agents.leading_institution(ns)
    assert expert.institution_id == 1
    assert share == 0.5  # 3 over all six units, community included
    tied = state_for([0, 1, None], (2.0, 2.0, 1.0))
    expert, share = agents.leading_institution(tied)
    assert expert.institution_id == 0  # first wins ties
    assert share == 0.4
    assert agents.leading_institution(state_for([None], (1.0,))) == (None, 0.0)


def test_sanction_criticisms_gate():
    obs = make_obs(signals=(sig(0, 0),), last_actions=(0, 1, 0, 2), agent_index=0)
    # share exactly at the threshold: 3/5 = 0.6 is NOT above it
    at_gate = state_for([0, None], (3.0, 2.0))
    assert agents.sanction_criticisms(at_gate, obs)[1] == ()

    over = state_for([0, None], (4.0, 1.0))
    crits = agents.sanction_criticisms(over, obs)[1]
    assert [c.target for c in crits] == [1, 3]
    assert all(c.sender == 0 and c.basis == 0 for c in crits)
    assert crits[0].criticized_crop == 1
    assert crits[0].text == (
        "John, I'm extremely disappointed in your continued disobedience of "
        "Chieftain Ophilia's guidance!"
    )
    # nothing to judge yet, or the leading institution is silent this step
    assert agents.sanction_criticisms(over, make_obs(signals=(sig(0, 0),), t=0))[1] == ()
    silent = make_obs(signals=(sig(1, 0),), last_actions=(0, 1), agent_index=0)
    assert agents.sanction_criticisms(over, silent)[1] == ()


def test_normative_action_tie_breaks():
    ns = state_for([0, None], (1.0, 1.0))
    # fresh world: only the institution speaks, so its declaration is safest
    assert agents.normative_action(ns, make_obs(signals=(sig(0, 0),), t=0)) == 0

    # institution and community disagree; the tie keeps the previous action
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 0, 1, 1), agent_index=0)
    assert agents.normative_action(ns, obs) == 1

    # previous action not among the tied minimizers: lowest index wins
    comm_only = state_for([None], (1.0,))
    obs = make_obs(last_actions=(2, 0, 0), agent_index=0)
    assert agents.normative_action(comm_only, obs) == 0

    # everyone abstains and the agent has history: stick with it
    lone = make_obs(last_actions=(2,), agent_index=0, num_agents=1)
    assert agents.normative_action(comm_only, lone) == 2


def test_wm_update_oracle_values():
    ns = agents.initial_state([0])
    obs = make_obs(signals=(sig(0, 0),), last_actions=(0, 1, 1), agent_index=0)
    # crop 1 went unsanctioned: the institution predicted wrongly, half its weight
    once = agents.wm_update(ns, obs, [(1, False)])
    assert once.weights == (0.5, 1.0)
    # four such rounds compound to 1/16
    worn = agents.wm_update(ns, obs, [(1, False)] * 4)
    assert worn.weights == (0.0625, 1.0)
    # both right: no change
    assert agents.wm_update(ns, obs, [(2, True)]).weights == (1.0, 1.0)
    # community wrong, institution right
    assert agents.wm_update(ns, obs, [(1, True)]).weights == (1.0, 0.5)
    # an abstaining expert is never penalized
    blind = make_obs(last_actions=(0, 1, 1), agent_index=0)
    assert agents.wm_update(ns, blind, [(1, True)]).weights == (1.0, 0.5)
    assert once.beta == ns.beta and once.experts == ns.experts


def test_wm_update_computes_community_crop_once(monkeypatch):
    calls = []

    def counting_modal_crop(actions):
        calls.append(actions)
        return orchard.modal_crop(actions)

    monkeypatch.setattr(agents, "modal_crop", counting_modal_crop)
    actions = tuple(j % 3 for j in range(321))
    obs = make_obs(signals=(sig(0, 0),), last_actions=actions, agent_index=0)
    observed = [(actions[j], j % 2 == 0) for j in range(1, 321)]
    agents.wm_update(agents.initial_state([0]), obs, observed)
    assert len(calls) == 1  # not once per observed outcome


def test_normative_action_finds_each_safe_crop_once(monkeypatch):
    calls = []

    def counting_safe_crop(expert, obs):
        calls.append(expert)
        return safe_crop(expert, obs)

    safe_crop = agents._safe_crop
    monkeypatch.setattr(agents, "_safe_crop", counting_safe_crop)
    ns = agents.initial_state([0, 1])
    obs = make_obs(signals=(sig(0, 0), sig(1, 1)), last_actions=(2, 1, 1, 4),
                   crop_names=institutions.CROP_NAMES)
    assert agents.normative_action(ns, obs) == 1
    assert calls == list(ns.experts)  # once per expert, not once per scored crop


class ScanCountingActions(tuple):
    """Last step's actions, counting how often something iterates over all of them."""

    scans = 0

    def __iter__(self):
        ScanCountingActions.scans += 1
        return super().__iter__()


def scans_in_one_step(num_background, mode, focal_kind):
    """Full scans of last step's actions during one step in which every
    villager criticizes the focal agent."""
    if mode == "follow_authoritative":
        insts = (institutions.make_institution(0, 0, authoritative=True),)
        actions = (1,) + (0,) * num_background  # the focal agent strayed
    else:
        insts = (institutions.make_institution(0, 0),)
        actions = (0,) + (1,) * num_background  # the focal agent obeyed
    cfg = orchard.EnvConfig(
        institutions=insts, num_background=num_background, background_mode=mode
    )
    roster = agents.build_roster(cfg, focal_kind)
    prev = orchard.WorldState(
        t=0, signals=(), discussion_log=(), actions=ScanCountingActions(actions),
        criticisms=(), rewards=(),
    )
    ScanCountingActions.scans = 0
    state = orchard.step(prev, roster, cfg)
    assert len(state.criticisms) == num_background
    return ScanCountingActions.scans


@pytest.mark.parametrize("focal_kind", ["normative", "baseline"])
@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
def test_step_scans_last_actions_a_fixed_number_of_times(mode, focal_kind):
    # a villager that rescans last step's actions makes the step O(N^2)
    scans = scans_in_one_step(320, mode, focal_kind)
    assert scans == scans_in_one_step(20, mode, focal_kind)
    assert scans <= 8


@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
def test_step_builds_one_crowd_script_per_villager_kind(mode, monkeypatch):
    calls = Counter()

    def counting_background_action(obs, mode, my_institution, defy_crop):
        calls[mode, my_institution, defy_crop] += 1
        return background_action(obs, mode, my_institution, defy_crop)

    background_action = agents._background_action
    monkeypatch.setattr(agents, "_background_action", counting_background_action)
    scans_in_one_step(320, mode, "baseline")  # 320 villagers speak and act alike
    assert list(calls.values()) == [1]


@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
def test_step_plays_crowd_members_from_their_script(mode, monkeypatch):
    def refuse(self, obs):
        raise AssertionError("the step asked a crowd member to discuss or act")

    monkeypatch.setattr(agents.BackgroundAgent, "discuss", refuse)
    monkeypatch.setattr(agents.BackgroundAgent, "act", refuse)
    scans_in_one_step(320, mode, "normative")  # 320 villagers criticize and harvest


@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
def test_quiet_crowd_speaks_as_one_block(mode, monkeypatch):
    # nobody strayed last step, so no member's turn needs its own Python call
    calls = []
    turn = agents._CrowdScript.turn
    monkeypatch.setattr(agents._CrowdScript, "turn", lambda self, me: calls.append(me) or turn(self, me))
    insts = (institutions.make_institution(0, 0, authoritative=True),)
    crop = 0 if mode == "follow_authoritative" else agents.defiance_crop(insts[0])
    cfg = orchard.EnvConfig(institutions=insts, num_background=320, background_mode=mode)
    prev = orchard.WorldState(t=0, signals=(), discussion_log=(), actions=(crop,) * 321,
                              criticisms=(), rewards=())
    state = orchard.step(prev, agents.build_roster(cfg, "baseline"), cfg)
    assert calls == []
    assert state.criticisms == () and len(set(state.discussion_log[1:])) == 320
    assert state.actions[1:] == (crop,) * 320


@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
def test_criticizing_crowd_checks_its_criticisms_once_per_step(mode, monkeypatch):
    # in both turns all 320 villagers criticize the focal agent's step-0 crop
    checked, turns = [], []
    validate, turn = orchard._validate_criticized, agents._CrowdScript.turn
    monkeypatch.setattr(orchard, "_validate_criticized",
                        lambda *args: checked.append(args[:3]) or validate(*args))
    monkeypatch.setattr(agents._CrowdScript, "turn", lambda self, me: turns.append(me) or turn(self, me))
    if mode == "follow_authoritative":
        insts = (institutions.make_institution(0, 0, authoritative=True),)
        actions, basis = (1,) + (0,) * 320, 0  # the focal agent strayed
    else:
        insts = (institutions.make_institution(0, 0),)
        actions, basis = (0,) + (1,) * 320, None  # the focal agent obeyed
    cfg = orchard.EnvConfig(institutions=insts, num_background=320, background_mode=mode,
                            discussion_turns=2)
    prev = orchard.WorldState(t=0, signals=(), discussion_log=(), actions=actions,
                              criticisms=(), rewards=())
    state = orchard.step(prev, agents.build_roster(cfg, "baseline"), cfg)
    assert checked == [(0, actions[0], basis)] and turns == []
    assert len(state.criticisms) == 640 and {c.target for c in state.criticisms} == {0}
    assert Counter(c.sender for c in state.criticisms) == {i: 2 for i in range(1, 321)}
    assert state.rewards[0] < state.rewards[1] and len(set(state.rewards[1:])) == 1


class PlainHandle:
    """Forwards to a villager's own `discuss` and `act`, hiding its crowd."""

    def __init__(self, agent):
        self.agent = agent

    def discuss(self, obs):
        return self.agent.discuss(obs)

    def act(self, obs):
        return self.agent.act(obs)


def crowd_rosters():
    """(config, fresh-roster factory) pairs: seeded follow and defy episodes for
    each discussion-turn count and focal kind, then a roster whose two crowds
    interleave, one of two crowds and one whose crowd's institution sends no
    signal."""
    insts = tuple(
        institutions.Institution(i, institutions.institution_name(i),
                                 institutions.RotatingDeclaration(crops), i == 1)
        for i, crops in enumerate(((0, 1, 2), (2, 0), (1,)))
    )
    cases = []
    for turns in range(3):
        for mode in orchard.BACKGROUND_MODES:
            for focal in ("normative", "baseline"):
                cfg = orchard.EnvConfig(
                    institutions=insts if mode == "follow_authoritative" else insts[::-1],
                    num_background=9, background_mode=mode, num_crops=3,
                    discussion_turns=turns, max_timesteps=10, eval_window=5, seed=len(cases))
                cases.append((cfg, functools.partial(
                    agents.build_roster, cfg, focal, beta=0.3, sanction_threshold=0.3)))
    cfg = cases[-4][0]  # two turns, follow mode

    def two_crowds():
        followers = agents.build_roster(cfg, "normative", sanction_threshold=0.3)[:5]
        return followers + [agents.BackgroundAgent(i, "defy_institution", 1, defy_crop=1)
                            for i in range(5, cfg.num_agents)]

    def interleaved():  # runs of one and two members; a defier with no crowd splits one
        follower = functools.partial(agents.BackgroundAgent, mode="follow_authoritative",
                                     institution_id=1)
        defier = functools.partial(agents.BackgroundAgent, mode="defy_institution",
                                   institution_id=1, defy_crop=1)
        kinds = (follower, defier, follower, follower, defier, follower, defier, follower,
                 follower)
        roster = [agents.BaselineAgent(0, cfg.seed)] + [kind(i) for i, kind in enumerate(kinds, 1)]
        roster[7] = PlainHandle(roster[7])  # inside the followers' run 6, 8, 9
        return roster

    def no_signal():
        return [agents.BaselineAgent(0, cfg.seed)] + [
            agents.BackgroundAgent(i, "follow_authoritative", 7) for i in range(1, cfg.num_agents)]

    return cases + [(cfg, interleaved), (cfg, two_crowds), (cfg, no_signal)]


def played(cfg, roster):
    """The episode's dump and transcript up to its first error, and that error."""
    history, failure = [], None
    try:
        for _ in range(cfg.max_timesteps):
            history.append(orchard.step(history[-1] if history else None, roster, cfg))
    except ValueError as exc:
        failure = f"ValueError: {exc}"
    return orchard.episode_to_dict(history, cfg), orchard.render_transcript(history, cfg), failure


def test_crowds_play_as_their_members_would_one_by_one():
    outcomes = []
    for cfg, roster in crowd_rosters():
        by_crowd = played(cfg, roster())
        one_by_one = [PlainHandle(a) if isinstance(a, agents.BackgroundAgent) else a
                      for a in roster()]
        assert played(cfg, one_by_one) == by_crowd
        outcomes.append(by_crowd)
    speakers = {len(dump["steps"][0]["discussion"]) for dump, _, _ in outcomes[:-1]}
    assert speakers == {0, 10, 20}  # every discussion-turn count
    assert any(c["sender"] == 0 for dump, _, _ in outcomes[:-2] for state in dump["steps"]
               for entry in state["discussion"] for c in entry["criticisms"])
    # the two crowds harvest apart, and the followers criticize the defiers
    steps = outcomes[-2][0]["steps"]
    assert all(state["actions"][1] != state["actions"][-1] for state in steps)
    assert any(c["target"] > 4 for state in steps for c in state["discussion"][1]["criticisms"])
    # the interleaved crowds harvest apart and criticize across the runs
    steps = outcomes[-3][0]["steps"]
    assert all(len(set(state["actions"][1:])) == 2 for state in steps)
    assert any(c["target"] == 7 for state in steps[1:2] for entry in state["discussion"][1:]
               for c in entry["criticisms"])
    assert outcomes[-1][0]["steps"] == []
    assert outcomes[-1][2] == "ValueError: no signal from institution 7"


def two_episodes():
    """A follow and a defy episode whose steps share roster names and crop names."""
    follow = orchard.EnvConfig(
        institutions=tuple(institutions.make_institution(i, i, authoritative=i == 1)
                           for i in range(3)),
        num_background=6, max_timesteps=8, eval_window=4, seed=3,
    )
    defy = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, 2),), num_background=6,
        background_mode="defy_institution", max_timesteps=8, eval_window=4, seed=4,
    )
    return (follow, "normative"), (defy, "baseline")


def test_alternating_episodes_match_each_episode_alone():
    def outputs(cfg, history):
        return orchard.episode_to_dict(history, cfg), orchard.render_transcript(history, cfg)

    alone = [outputs(cfg, orchard.run_episode(cfg, agents.build_roster(cfg, focal)))
             for cfg, focal in two_episodes()]
    episodes = [(cfg, agents.build_roster(cfg, focal), []) for cfg, focal in two_episodes()]
    for _ in range(8):
        for cfg, roster, history in episodes:
            history.append(orchard.step(history[-1] if history else None, roster, cfg))
    assert [outputs(cfg, history) for cfg, _, history in episodes] == alone
    # both crowds criticize the focal agent at step 1
    assert all(dump["steps"][1]["discussion"][1]["criticisms"] for dump, _ in alone)


def test_derive_outcomes():
    crit_other = Criticism(sender=2, target=1, criticized_crop=1, basis=None, text="x")
    crit_own = Criticism(sender=0, target=2, criticized_crop=2, basis=None, text="y")
    obs = make_obs(
        last_actions=(0, 1, 2),
        agent_index=0,
        discussion=(
            DiscussionEntry(speaker=2, text="x", criticisms=(crit_other,)),
            DiscussionEntry(speaker=0, text="y", criticisms=(crit_own,)),
        ),
    )
    # own sent criticisms never count as observed sanctions
    assert agents.derive_outcomes(obs) == ((0, False), (1, True), (2, False))
    assert agents.derive_outcomes(obs, observe_others=False) == ((0, False),)
    assert agents.derive_outcomes(make_obs(t=0)) == ()


def test_run_weighted_majority_steps():
    mistakes, weights = agents.run_weighted_majority(
        [[True, False], [True, False]], [True, False], beta=0.5
    )
    assert (mistakes, weights) == (1, (0.5, 0.5))
    # exact tie votes True
    mistakes, weights = agents.run_weighted_majority([[True, False]], [False], beta=0.5)
    assert (mistakes, weights) == (1, (0.5, 1.0))
    # a fully abstaining round votes False and decays nothing
    mistakes, weights = agents.run_weighted_majority([[None, None]], [True], beta=0.5)
    assert (mistakes, weights) == (1, (1.0, 1.0))
    with pytest.raises(ValueError, match="beta"):
        agents.run_weighted_majority([[True]], [True], beta=0.0)


def wm_bound(n, m_star, beta):
    return (math.log(n) + m_star * math.log(1 / beta)) / math.log(2 / (1 + beta))


def test_mistake_bound_property():
    assert wm_bound(3, 2, 0.5) == pytest.approx(8.637683358612838, rel=1e-12)
    rng = np.random.default_rng(20240817)
    betas = (0.3, 0.5, 0.7)
    for trial in range(150):
        n = int(rng.integers(1, 9))
        length = int(rng.integers(1, 201))
        beta = betas[int(rng.integers(3))]
        table = rng.integers(0, 2, size=(length, n)).astype(bool)
        outcomes = rng.integers(0, 2, size=length).astype(bool)
        if trial % 2:  # plant a near-perfect expert so the bound actually binds
            table[:, 0] = outcomes
            flips = rng.integers(0, length, size=min(4, length))
            table[flips, 0] ^= True
        predictions = [[bool(x) for x in row] for row in table]
        mistakes, _ = agents.run_weighted_majority(predictions, [bool(o) for o in outcomes], beta)
        m_star = int(min((table[:, k] != outcomes).sum() for k in range(n)))
        assert mistakes <= wm_bound(n, m_star, beta) + 1e-9


def test_background_policy_follow():
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 0, 2), agent_index=1)
    action, crits = agents.background_policy(obs, "follow_authoritative", 0)
    assert action == 0
    assert [(c.target, c.criticized_crop, c.basis) for c in crits] == [(0, 1, 0), (2, 2, 0)]
    assert "disappointed" in crits[0].text and "Ophilia" in crits[0].text
    # nothing to criticize on a fresh world
    _, crits = agents.background_policy(make_obs(signals=(sig(0, 0),), t=0), "follow_authoritative", 0)
    assert crits == ()


def test_background_policy_defy():
    obs = make_obs(signals=(sig(0, 0),), last_actions=(0, 1, 0), agent_index=1)
    action, crits = agents.background_policy(obs, "defy_institution", 0, defy_crop=1)
    assert action == 1
    assert [(c.target, c.basis) for c in crits] == [(0, None), (2, None)]
    assert crits[0].text == (
        "Alice, I saw you harvested apples; you know that in this community we "
        "are supposed to harvest bananas."
    )


def test_background_policy_errors():
    obs = make_obs(signals=(sig(0, 0),))
    with pytest.raises(ValueError, match="institution"):
        agents.background_policy(obs, "follow_authoritative")
    with pytest.raises(ValueError, match="defy_crop"):
        agents.background_policy(obs, "defy_institution", 0, defy_crop=0)
    with pytest.raises(ValueError, match="mode"):
        agents.background_policy(obs, "riot", 0, defy_crop=1)
    with pytest.raises(ValueError, match="no signal"):
        agents.background_policy(make_obs(signals=(sig(3, 0),)), "follow_authoritative", 0)


def test_baseline_policy():
    rng = np.random.default_rng(7)
    assert agents.baseline_policy(make_obs(), rng) == 0
    assert agents.baseline_policy(make_obs(signals=(sig(0, 2),)), rng) == 2
    # several signals: obey a uniformly drawn one
    obs = make_obs(signals=(sig(0, 0), sig(1, 1), sig(2, 2)))
    counts = np.bincount([agents.baseline_policy(obs, rng) for _ in range(10_000)], minlength=3)
    assert counts.sum() == 10_000
    assert all(3000 < c < 3700 for c in counts)


def test_agent_handle_utterances():
    follower = agents.BackgroundAgent(1, "follow_authoritative", 0)
    text, crits = follower.discuss(make_obs(signals=(sig(0, 0),), t=0, agent_index=1))
    assert (text, crits) == (
        "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow.",
        (),
    )
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 0), agent_index=1)
    text, crits = follower.discuss(obs)
    assert len(crits) == 1 and text == crits[0].text
    assert follower.act(obs) == 0

    defier = agents.BackgroundAgent(1, "defy_institution", 0, defy_crop=1)
    text, _ = defier.discuss(make_obs(signals=(sig(0, 0),), t=0, agent_index=1))
    assert text == "Remember what the elders taught us; in Skymeadow we harvest bananas together."

    newcomer = agents.BaselineAgent(0, seed=1)
    assert newcomer.discuss(make_obs(signals=(sig(0, 0),), t=0)) == (
        "I'm still getting to know Skymeadow; I'll follow the guidance I hear.",
        (),
    )

    watcher = agents.NormativeAgent(0, [0])
    text, _ = watcher.discuss(make_obs(signals=(sig(0, 0),), t=0))
    assert text == "I'm new to Skymeadow and eager to be a good citizen."
    text, _ = watcher.discuss(make_obs(signals=(sig(0, 0),), t=3))
    assert text == "I'm watching what the community values before committing to a crop."


def test_build_roster():
    follow_cfg = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=0, authoritative=True),),
        num_background=2,
        background_mode="follow_authoritative",
    )
    roster = agents.build_roster(follow_cfg, "normative", beta=0.3, observe_others=False)
    assert isinstance(roster[0], agents.NormativeAgent)
    assert roster[0].state.beta == 0.3 and roster[0].observe_others is False
    assert [a.crowd.institution_id for a in roster[1:]] == [0, 0]

    roster = agents.build_roster(follow_cfg, "baseline")
    assert isinstance(roster[0], agents.BaselineAgent)

    with pytest.raises(ValueError, match="focal kind"):
        agents.build_roster(follow_cfg, "bystander")

    no_auth = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=0),),
        num_background=1,
        background_mode="follow_authoritative",
    )
    with pytest.raises(ValueError, match="authoritative"):
        agents.build_roster(no_auth, "normative")

    # defiance crop: smallest crop differing from the initial declaration
    defy0 = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=0),),
        num_background=2,
        background_mode="defy_institution",
    )
    assert [a.crowd.defy_crop for a in agents.build_roster(defy0, "normative")[1:]] == [1, 1]
    defy2 = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=2),),
        num_background=1,
        background_mode="defy_institution",
    )
    assert agents.build_roster(defy2, "normative")[1].crowd.defy_crop == 0
    # a defied rotation that reaches the defiers' crop (bananas, at step 1)
    clash = orchard.EnvConfig(
        institutions=(institutions.Institution(0, "Ophilia", institutions.RotatingDeclaration((0, 1))),),
        num_background=1,
        background_mode="defy_institution",
    )
    with pytest.raises(ValueError, match="^defy_institution: Ophilia declares bananas, "):
        agents.build_roster(clash, "normative")

    with pytest.raises(ValueError, match="institution"):
        agents.build_roster(
            orchard.EnvConfig(institutions=(), num_background=1,
                              background_mode="defy_institution"),
            "normative",
        )
    assert len(agents.build_roster(
        orchard.EnvConfig(institutions=(), num_background=0), "normative"
    )) == 1


def test_roster_violations():
    rotation = institutions.Institution(0, "Ophilia", institutions.RotatingDeclaration((2, 0, 1)))

    def env(**settings):
        return orchard.EnvConfig(institutions=(rotation,), background_mode="defy_institution",
                                 eval_window=1, **settings)

    # the defiers harvest apples, which the rotation declares at steps 1, 4, 7, ...
    assert agents.roster_violations(env(max_timesteps=20)) == [
        "defy_institution: Ophilia declares apples, the crop its defiers harvest, at step 1"
    ]
    assert agents.roster_violations(env(max_timesteps=1)) == []  # the episode ends first
    # without background villagers no rule applies
    assert agents.roster_violations(env(num_background=0)) == []
    for mode in orchard.BACKGROUND_MODES:
        for insts in ((), (rotation,)):
            cfg = orchard.EnvConfig(institutions=insts, num_background=0, background_mode=mode)
            assert agents.roster_violations(cfg) == []
            assert len(agents.build_roster(cfg, "normative")) == 1


def test_follow_episode_never_penalizes_obeyed_institution():
    cfg = orchard.EnvConfig(
        institutions=(
            institutions.make_institution(0, crop=0, authoritative=True),
            institutions.make_institution(1, crop=1),
        ),
        num_background=3,
        background_mode="follow_authoritative",
        max_timesteps=6,
        eval_window=3,
    )
    roster = agents.build_roster(cfg, "normative")
    history = orchard.run_episode(cfg, roster)
    # the obeyed institution keeps full credibility; the contradicting one decays
    # once per agent-observation (4 agents x 5 learning steps)
    assert roster[0].state.weights == (1.0, 0.5 ** 20, 1.0)
    assert orchard.alignment_metric(history, cfg, 0) == 1.0


def test_defy_episode_discredits_institution():
    cfg = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=0),),
        num_background=3,
        background_mode="defy_institution",
        max_timesteps=8,
        eval_window=4,
    )
    roster = agents.build_roster(cfg, "normative")
    history = orchard.run_episode(cfg, roster)
    weights = roster[0].state.weights
    assert weights[0] < weights[1]  # community outranks the defied institution
    assert orchard.alignment_metric(history, cfg, "community_modal") == 1.0
    assert orchard.alignment_metric(history, cfg, 0) == 0.0

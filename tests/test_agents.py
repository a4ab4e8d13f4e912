"""Weighted-majority normative module and scripted villager policies."""
import contextlib
import dataclasses
import functools
import json
import math
import operator
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from normsim import agents, games, harness, institutions, orchard
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
    """The lookup `orchard.signal_from` must match: a scan, first match wins."""
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
            assert orchard.signal_from(obs.signals, int(inst)) is linear_signal_for(signals, int(inst))


def state_for(experts, weights, **kwargs):
    return agents.NormativeState(experts=tuple(experts), weights=weights, **kwargs)


def test_normative_state_validation():
    with pytest.raises(ValueError, match="one weight per expert"):
        agents.NormativeState(experts=(0,), weights=(1.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        agents.NormativeState(experts=(0,), weights=(0.0,))
    with pytest.raises(ValueError, match="beta"):
        agents.NormativeState(experts=(0,), weights=(1.0,), beta=1.0)
    with pytest.raises(ValueError, match="sanction_threshold"):
        agents.NormativeState(experts=(0,), weights=(1.0,), sanction_threshold=1.5)


def test_initial_state():
    ns = agents.initial_state([0, 3], beta=0.4, sanction_threshold=0.7)
    assert ns.experts == (0, 3, None)
    assert ns.weights == (1.0, 1.0, 1.0)
    assert (ns.beta, ns.sanction_threshold) == (0.4, 0.7)


def test_expert_votes():
    inst, comm = 0, None
    obs = make_obs(signals=(sig(0, 0),), last_actions=(2, 1, 1), agent_index=0)
    # an expert votes "criticized" for every crop but its safe crop
    assert agents._safe_crops((inst,), obs) == [0]
    # community judges against the modal crop of the OTHER agents
    assert agents._safe_crops((comm,), obs) == [1]
    # abstentions: no matching signal, no previous actions
    assert agents._safe_crops((inst,), make_obs(signals=(sig(9, 0),))) == [None]
    assert agents._safe_crops((comm,), make_obs(signals=(sig(0, 0),))) == [None]


def per_expert_safe_crop(expert, obs):
    """The rule `agents._safe_crops` replaced: one signal scan per expert."""
    if expert is not None:
        sig = orchard.signal_from(obs.signals, expert)
        return None if sig is None else sig.crop
    return orchard.others_modal_crop(obs.last_step_actions, obs.agent_index)


@pytest.mark.parametrize("seed", range(5))
def test_safe_crops_match_the_per_expert_rule(seed):
    rng = np.random.default_rng(seed)
    seen = Counter()
    for _ in range(300):
        # ids 0..3 sign the signals, so ids repeat often and experts 4 and 5 hear nothing
        size = int(rng.integers(0, 7))
        signals = [sig(int(i), int(c)) for i, c in zip(rng.integers(4, size=size),
                                                      rng.integers(3, size=size))]
        n = int(rng.integers(0, 5))  # background villagers: with N = 0 nobody else acted
        last = () if rng.random() < 0.2 else tuple(int(c) for c in rng.integers(3, size=n + 1))
        obs = make_obs(signals, last, agent_index=int(rng.integers(n + 1)), num_agents=n + 1)
        experts = tuple(None if e == 6 else int(e) for e in rng.integers(7, size=int(rng.integers(7))))
        assert agents._safe_crops(experts, obs) == [per_expert_safe_crop(e, obs) for e in experts]
        ids = [s.institution_id for s in signals]
        seen["duplicate ids"] += len(set(ids)) < len(ids)
        seen["unknown ids"] += any(e is not None and e not in ids for e in experts)
        seen["no last actions"] += not last and None in experts
        seen["N = 0"] += n == 0 and bool(last) and None in experts
    assert min(seen.values()) > 0 and len(seen) == 4


def test_community_crop_is_counted_once_and_only_for_the_community_expert(monkeypatch):
    calls = []
    monkeypatch.setattr(agents, "others_modal_crop", lambda actions, me: calls.append(me) or 1)
    obs = make_obs(signals=(sig(0, 0),), last_actions=(2, 1, 1))
    assert agents._safe_crops((0, 3), obs) == [0, None] and calls == []
    assert agents._safe_crops((None, 0, None), obs) == [1, 0, 1] and calls == [0]


class ScanCountingSignals(tuple):
    """A step's signals, counting how often something iterates over all of them."""

    scans = 0

    def __iter__(self):
        ScanCountingSignals.scans += 1
        return super().__iter__()


@pytest.mark.parametrize("k", [1, 5, 40])
def test_learner_walks_the_signals_once_per_update_and_once_per_choice(k):
    signals = ScanCountingSignals(sig(i, i % 3) for i in range(k))
    obs = make_obs(last_actions=(1, 0, 2, 1), agent_index=0)._replace(signals=signals)
    ns = agents.initial_state(range(k))
    ScanCountingSignals.scans = 0
    agents.wm_update(ns, obs, ((0, 1, 2), (0, 2)))  # crops 0 and 2 criticized, crop 1 not
    assert ScanCountingSignals.scans == 1
    agents.normative_action(ns, obs)
    assert ScanCountingSignals.scans == 2
    newcomer = agents.NormativeAgent(0, range(k), observe_others=True)
    ScanCountingSignals.scans = 0
    newcomer.act(obs)  # one update from four outcomes, then one choice over three crops
    assert ScanCountingSignals.scans == 2 and newcomer.state.weights != ns.weights


def test_predict_sanction_oracle_values():
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 1, 1), agent_index=0)
    ns = state_for([0, None], (1.0, 1.0))
    # institution says sanction, community says safe, equal weights
    assert agents.predict_sanction(ns, obs, 1) == 0.5
    assert agents.predict_sanction(ns, obs, 2) == 1.0

    # a discredited institution barely moves the vote: 1 / 1.0625
    worn = state_for([0, None], (0.0625, 1.0))
    assert agents.predict_sanction(worn, obs, 0) == 0.9411764705882353
    assert agents.predict_sanction(worn, obs, 1) == 0.058823529411764705

    # all experts abstaining (no signal, no history) => probability 0
    assert agents.predict_sanction(ns, make_obs(t=0), 0) == 0.0


def test_predict_sanction_scale_invariance():
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 1, 1), agent_index=0)
    for action in range(3):
        a = agents.predict_sanction(state_for([0, None], (4.0, 1.0)), obs, action)
        b = agents.predict_sanction(state_for([0, None], (8.0, 2.0)), obs, action)
        assert a == b


def test_leading_institution():
    ns = state_for([0, 1, None], (1.0, 3.0, 2.0))
    assert agents.leading_institution(ns) == (1, 0.5)  # 3 over all six units, community included
    tied = state_for([0, 1, None], (2.0, 2.0, 1.0))
    assert agents.leading_institution(tied) == (0, 0.4)  # first wins ties
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
    once = agents.wm_update(ns, obs, ((1,), ()))
    assert once.weights == (0.5, 1.0)
    # four such villagers compound to 1/16
    worn = agents.wm_update(ns, obs, ((1,) * 4, ()))
    assert worn.weights == (0.0625, 1.0)
    # both right: no change
    assert agents.wm_update(ns, obs, ((2,), (2,))).weights == (1.0, 1.0)
    # community wrong, institution right
    assert agents.wm_update(ns, obs, ((1,), (1,))).weights == (1.0, 0.5)
    # an abstaining expert is never penalized
    blind = make_obs(last_actions=(0, 1, 1), agent_index=0)
    assert agents.wm_update(ns, blind, ((1,), (1,))).weights == (1.0, 0.5)
    # nothing observed: every expert keeps its weight
    assert agents.wm_update(ns, obs, ((), ())).weights == (1.0, 1.0)
    assert once.beta == ns.beta and once.experts == ns.experts


def test_wm_update_is_one_multiplication_per_pair():
    """Up to 400 uncriticized villagers off its crop penalize one expert: its
    weight keeps the bits of one multiplication per villager, subnormals
    included, and where that loop reaches 0 the update raises the weights'
    error."""
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 1), agent_index=0)
    for beta in (0.05, 0.3, 0.9):
        seen = Counter()
        for start in (1.0, 1e-300, 5e-320):
            ns = agents.NormativeState(experts=(0, None), weights=(start, 1.0), beta=beta)
            weight = start
            for times in range(1, 401):
                weight *= beta  # the institution expert mispredicts each unsanctioned crop 1
                try:
                    updated = agents.wm_update(ns, obs, ((1,) * times, ()))
                except ValueError as exc:
                    assert weight == 0.0 and str(exc) == "weights must be positive"
                    seen["underflow"] += 1
                    continue
                assert [w.hex() for w in updated.weights] == [weight.hex(), (1.0).hex()]
                seen["subnormal"] += weight < sys.float_info.min
        # the smallest subnormal times beta rounds to 0 only when beta <= 0.5
        assert seen["subnormal"] and bool(seen["underflow"]) == (beta <= 0.5), beta


def test_wm_update_computes_community_crop_once(monkeypatch):
    calls = []

    def counting_modal_crop(actions, me):
        calls.append(actions)
        return orchard.others_modal_crop(actions, me)

    monkeypatch.setattr(agents, "others_modal_crop", counting_modal_crop)
    actions = tuple(j % 3 for j in range(321))
    obs = make_obs(signals=(sig(0, 0),), last_actions=actions, agent_index=0)
    observed = (actions[1:], actions[2::2])  # every other villager criticized
    agents.wm_update(agents.initial_state([0]), obs, observed)
    assert len(calls) == 1  # not once per observed outcome


def test_normative_action_finds_each_safe_crop_once(monkeypatch):
    calls = []

    def counting_safe_crops(experts, obs):
        calls.append(experts)
        return safe_crops(experts, obs)

    safe_crops = agents._safe_crops
    monkeypatch.setattr(agents, "_safe_crops", counting_safe_crops)
    ns = agents.initial_state([0, 1])
    obs = make_obs(signals=(sig(0, 0), sig(1, 1)), last_actions=(2, 1, 1, 4),
                   crop_names=institutions.CROP_NAMES)
    assert agents.normative_action(ns, obs) == 1
    assert calls == [ns.experts]  # once for every expert, not once per scored crop


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


@pytest.mark.parametrize("observe_others", [True, False])
def test_quiet_step_makes_as_many_python_calls_at_n80_as_at_n320(observe_others):
    """A settled step of the docs example, in which nobody criticizes, makes the
    same number of Python-level calls at N = 80 as at N = 320. Only "call"
    events count: `step` still looks up each villager's handle with a builtin
    `getattr`, so its "c_call" events grow with N."""
    def python_calls(num_background):
        cfg = docs_village(num_background, "follow_authoritative")
        roster = agents.build_roster(cfg, "normative", observe_others=observe_others)
        history = [orchard.step(None, roster, cfg)]
        history.append(orchard.step(history[-1], roster, cfg))
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
        try:
            state = orchard.step(history[-1], roster, cfg)
        finally:
            sys.setprofile(None)
        assert state.t == 2 and not state.criticisms
        return len(calls)

    assert python_calls(80) == python_calls(320)


@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
def test_step_builds_one_crowd_script_per_villager_kind(mode, monkeypatch):
    calls = Counter()

    def counting_script(crowd, obs):
        calls[crowd] += 1
        return script(crowd, obs)

    script = agents.Crowd.script
    monkeypatch.setattr(agents.Crowd, "script", counting_script)
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
    cfg = orchard.EnvConfig(institutions=insts, num_background=320, background_mode=mode)
    roster = agents.build_roster(cfg, "baseline")
    crowd = roster[1].crowd  # follow mode harvests institution 0's crop 0
    crop = 0 if crowd.defy_crop is None else crowd.defy_crop
    prev = orchard.WorldState(t=0, signals=(), discussion_log=(), actions=(crop,) * 321,
                              criticisms=(), rewards=())
    state = orchard.step(prev, roster, cfg)
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
        institutions.Institution(i, institutions.institution_name(i), crops, i == 1)
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
        return followers + [agents.BackgroundAgent(i, agents.Crowd("defy_institution", 1, 1))
                            for i in range(5, cfg.num_agents)]

    def interleaved():  # runs of one and two members; a defier with no crowd splits one
        def follower(i):
            return agents.BackgroundAgent(i, agents.Crowd("follow_authoritative", 1))

        def defier(i):
            return agents.BackgroundAgent(i, agents.Crowd("defy_institution", 1, 1))

        kinds = (follower, defier, follower, follower, defier, follower, defier, follower,
                 follower)
        roster = [agents.BaselineAgent(0, cfg.seed)] + [kind(i) for i, kind in enumerate(kinds, 1)]
        roster[7] = PlainHandle(roster[7])  # inside the followers' run 6, 8, 9
        return roster

    def no_signal():
        return [agents.BaselineAgent(0, cfg.seed)] + [
            agents.BackgroundAgent(i, agents.Crowd("follow_authoritative", 7))
            for i in range(1, cfg.num_agents)]

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


def test_turns_are_exactly_discussion_entries_and_criticisms():
    """Crowd turns skip the named tuples' constructors, yet every logged entry is
    exactly a `DiscussionEntry` and every criticism exactly a `Criticism`: in
    quiet and criticizing crowd turns, targeted members' turns and the
    newcomer's."""
    seen = Counter()
    for cfg, roster in crowd_rosters():
        history, handles = [], roster()
        with contextlib.suppress(ValueError):
            for _ in range(cfg.max_timesteps):
                history.append(orchard.step(history[-1] if history else None, handles, cfg))
        for state in history:
            targets = {c.target for c in state.criticisms}
            for entry in state.discussion_log:
                assert type(entry) is DiscussionEntry and type(entry.criticisms) is tuple
                assert all(type(c) is Criticism for c in entry.criticisms)
                kind = "newcomer" if entry.speaker == 0 else "targeted" if entry.speaker in targets else "crowd"
                seen[kind, bool(entry.criticisms)] += 1
    assert all(seen[kind, criticizes] for kind in ("newcomer", "targeted", "crowd")
               for criticizes in (False, True))
    script = agents._CrowdScript(0, 0, ((1, 0, "one"), (2, 1, "two")), "idle")
    entries = orchard.crowd_entries(script, (1, 2, 3))
    assert entries == (DiscussionEntry(1, "two", (Criticism(1, 2, 1, 0, "two"),)),
                       DiscussionEntry(2, "one", (Criticism(2, 1, 0, 0, "one"),)),
                       DiscussionEntry(3, "one two", (Criticism(3, 1, 0, 0, "one"),
                                                      Criticism(3, 2, 1, 0, "two"))))
    lone = orchard.crowd_entries(script._replace(criticisms=((1, 0, "one"),)), (1,))
    assert lone == (DiscussionEntry(1, "idle", ()),)
    quiet = orchard.crowd_entries(script._replace(criticisms=()), (1, 2))
    for entry in entries + lone + quiet:
        assert type(entry) is DiscussionEntry
        assert all(type(c) is Criticism for c in entry.criticisms)
    # a turn of one member, with more triples than members, is that member's row
    assert tuple(orchard.crowd_entries(script, (me,))[0] for me in (1, 2, 3)) == entries
    text, criticisms = script.turn(3)
    assert text == "one two" and all(type(c) is Criticism for c in criticisms)
    assert script.turn(1) == ("two", (Criticism(1, 2, 1, 0, "two"),))


def reference_crowd_entries(script, members):
    """The plain per-member builder of crowd turns that `orchard.crowd_entries`
    replaced: each entry and criticism through its named tuple's constructor."""
    triples = script.criticisms
    if not triples:
        return [DiscussionEntry(me, script.idle, ()) for me in members]
    basis, targets = script.basis, {j for j, _, _ in triples}
    joined = " ".join(text for _, _, text in triples)  # said by every member no triple targets

    def targeted(me):
        kept = tuple(Criticism(me, j, crop, basis, text) for j, crop, text in triples if j != me)
        return DiscussionEntry(me, " ".join(c.text for c in kept) if kept else script.idle, kept)

    return [DiscussionEntry(me, joined, tuple([Criticism(me, j, crop, basis, text)
                                               for j, crop, text in triples]))
            if me not in targets else targeted(me) for me in members]


def test_crowd_entries_match_the_per_member_reference():
    """Over 600 seeded scripts, `crowd_entries` returns the reference builder's
    entries as a tuple of exactly `DiscussionEntry`s holding exactly
    `Criticism`s, and an equal call returns the same tuple. Scripts name 0-4
    distinct targets inside and outside the members, on community or
    institution grounds; members are ranges and tuples of 1-6 villagers, some
    with more triples than members."""
    rng, seen = random.Random(30), set()
    for _ in range(600):
        size = rng.randint(1, 6)
        first = rng.randrange(8)
        members = (range(first, first + size) if rng.random() < 0.5
                   else tuple(rng.sample(range(12), size)))
        triples = tuple((j, rng.randrange(5), rng.choice(("one", "two", "three", "")))
                        for j in rng.sample(range(12), rng.randint(0, 4)))
        script = agents._CrowdScript(rng.randrange(5), rng.choice((None, 0, 3)), triples,
                                     rng.choice(("idle", "hush")))
        entries = orchard.crowd_entries(script, members)
        assert type(entries) is tuple
        assert entries == tuple(reference_crowd_entries(script, members))
        assert orchard.crowd_entries(script, members) is entries
        for entry in entries:
            assert type(entry) is DiscussionEntry and type(entry.criticisms) is tuple
            assert all(type(c) is Criticism for c in entry.criticisms)
        targets = {j for j, _, _ in triples}
        seen |= {("members", type(members)), ("triples", len(triples)),
                 ("basis", script.basis is None), ("inside", bool(targets & set(members))),
                 ("outside", bool(targets - set(members))), ("more", len(triples) > len(members))}
    assert seen == {("members", range), ("members", tuple)} | {("triples", n) for n in range(5)} | {
        (kind, b) for kind in ("basis", "inside", "outside", "more") for b in (True, False)}


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


def test_roster_members_share_one_crowd():
    """build_roster gives every background villager the one Crowd it derived; a
    roster built one villager at a time, with equal but distinct crowds, plays
    to the same dump and transcript bytes."""
    cases = crowd_rosters()[:-3]  # the build_roster rosters
    assert {cfg.background_mode for cfg, _ in cases} == set(orchard.BACKGROUND_MODES)
    for cfg, roster in cases:
        shared = roster()
        assert all(agent.crowd is shared[1].crowd for agent in shared[1:])
        apart = roster()[:1] + [agents.BackgroundAgent(a.index, agents.Crowd(*a.crowd))
                                for a in shared[1:]]
        assert apart[1].crowd == apart[2].crowd and apart[1].crowd is not apart[2].crowd
        (dump, transcript, failure), by_one = played(cfg, shared), played(cfg, apart)
        assert (games.dumps_pretty(by_one[0]), by_one[1], by_one[2]) == (
            games.dumps_pretty(dump), transcript, failure)


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


def docs_village(num_background, mode):
    """The docs example's village at `num_background` villagers in `mode`."""
    example = json.loads((Path(__file__).parents[1] / "docs/examples/simulate.json").read_text())
    example["env"].update(num_background=num_background, background_mode=mode)
    return harness.parse_sim_config(example).env


def saved_episode(cfg, focal, path, before_step):
    """`episode.json` bytes, transcript, failure text and history of an episode
    that calls `before_step(history)` before each step."""
    roster, history, failure = agents.build_roster(cfg, focal), [], None
    try:
        for _ in range(cfg.max_timesteps):
            before_step(history)
            history.append(orchard.step(history[-1] if history else None, roster, cfg))
    except ValueError as exc:
        failure = f"ValueError: {exc}"
    orchard.save_episode(history, cfg, path)
    return path.read_bytes(), orchard.render_transcript(history, cfg), failure, history


def clear_turns(history):
    orchard.crowd_entries.cache_clear()


def quiet_pairs(history):
    """Consecutive steps whose crowd says the same lines and criticizes no one."""
    return [(a, b) for a, b in zip(history, history[1:])
            if not a.criticisms and not b.criticisms
            and a.discussion_log[1].text == b.discussion_log[1].text]


@pytest.mark.parametrize("focal", ["normative", "baseline"])
@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
@pytest.mark.parametrize("num_background", [1, 5, 320])
def test_shared_crowd_turns_give_the_bytes_of_fresh_ones(num_background, mode, focal, tmp_path):
    """Crowd turns shared across steps give the `episode.json` bytes, transcript
    and failure text of turns built afresh at every step; two consecutive quiet
    steps hold the same entry objects for the crowd, and fresh ones do not, a
    crowd of one villager included."""
    cfg = docs_village(num_background, mode)
    fresh = saved_episode(cfg, focal, tmp_path / "fresh.json", clear_turns)
    orchard.crowd_entries.cache_clear()
    shared = saved_episode(cfg, focal, tmp_path / "shared.json", lambda history: None)
    assert shared[:3] == fresh[:3]
    assert orchard.crowd_entries.cache_info().hits > 0
    pairs = quiet_pairs(shared[3])
    assert pairs and len(pairs) == len(quiet_pairs(fresh[3]))
    for a, b in pairs:
        assert all(map(operator.is_, a.discussion_log[1:], b.discussion_log[1:]))
    for a, b in quiet_pairs(fresh[3]):
        assert not any(map(operator.is_, a.discussion_log[1:], b.discussion_log[1:]))


def test_shared_crowd_turns_stay_bounded_and_unchanged_by_callers():
    """Episodes in many distinct villages leave at most `maxsize` cached turns,
    and the turns they share are tuples, which no caller can change."""
    orchard.crowd_entries.cache_clear()
    for num_background in range(2, 14):
        for mode in orchard.BACKGROUND_MODES:
            cfg = dataclasses.replace(docs_village(num_background, mode), max_timesteps=4,
                                      eval_window=4)
            orchard.run_episode(cfg, agents.build_roster(cfg, "baseline"))
    info = orchard.crowd_entries.cache_info()
    assert info.misses > info.maxsize and info.currsize == info.maxsize <= 16
    script = agents._CrowdScript(0, 0, ((1, 0, "one"), (2, 1, "two")), "idle")
    assert type(orchard.crowd_entries(script, range(1, 4))) is tuple


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
    assert agents.derive_outcomes(obs) == ((0, 1, 2), (1,))
    assert agents.derive_outcomes(obs)[0] is obs.last_step_actions
    assert agents.derive_outcomes(obs, observe_others=False) == ((0,), ())
    # a step in which only the observer criticizes shows it no criticized villager
    alone = obs._replace(discussion_so_far=obs.discussion_so_far[1:])
    assert agents.derive_outcomes(alone) == ((0, 1, 2), ())
    # the observer criticized by another villager, seen alone or among the others
    crit_me = Criticism(sender=1, target=0, criticized_crop=0, basis=None, text="z")
    hit = obs._replace(discussion_so_far=obs.discussion_so_far
                       + (DiscussionEntry(speaker=1, text="z", criticisms=(crit_me,)),))
    assert agents.derive_outcomes(hit, observe_others=False) == ((0,), (0,))
    assert sorted(agents.derive_outcomes(hit)[1]) == [0, 1]
    for observe_others in (True, False):
        assert agents.derive_outcomes(make_obs(t=0), observe_others) == ((), ())


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
    follower = agents.BackgroundAgent(1, agents.Crowd("follow_authoritative", 0))
    text, crits = follower.discuss(make_obs(signals=(sig(0, 0),), t=0, agent_index=1))
    assert (text, crits) == (
        "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow.",
        (),
    )
    obs = make_obs(signals=(sig(0, 0),), last_actions=(1, 0), agent_index=1)
    text, crits = follower.discuss(obs)
    assert len(crits) == 1 and text == crits[0].text
    assert follower.act(obs) == 0

    defier = agents.BackgroundAgent(1, agents.Crowd("defy_institution", 0, 1))
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
        institutions=(institutions.Institution(0, "Ophilia", (0, 1)),),
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
    rotation = institutions.Institution(0, "Ophilia", (2, 0, 1))

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


CLAIM_VILLAGES = [(n, observe) for n in (1, 5, 40) for observe in (True, False)] + [(80, False)]


def claim_village(mode, n, num_institutions):
    """Institution i declares crop i; institution 0 is the one followed or defied."""
    return orchard.EnvConfig(
        institutions=tuple(institutions.make_institution(i, crop=i, authoritative=i == 0)
                           for i in range(num_institutions)),
        num_background=n, background_mode=mode, seed=1)


@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
@pytest.mark.parametrize("n, observe_others", CLAIM_VILLAGES)
@pytest.mark.parametrize("num_institutions", range(1, 6))
def test_newcomer_aligns_with_the_enforced_norm(mode, n, observe_others, num_institutions):
    """The paper's claim: the normative newcomer ends aligned with what the
    village enforces, the authoritative institution (follow) or the community
    (defy). In follow mode the leader's share stays at 0.5, because the
    community expert predicts the same crop, so no share bound is checked."""
    cfg = claim_village(mode, n, num_institutions)
    roster = agents.build_roster(cfg, "normative", observe_others=observe_others)
    history = orchard.run_episode(cfg, roster)
    if mode == "follow_authoritative":
        assert agents.leading_institution(roster[0].state)[0] == 0
        assert orchard.alignment_metric(history, cfg, 0) == 1.0
    else:
        assert orchard.alignment_metric(history, cfg, "community_modal") == 1.0


@pytest.mark.parametrize("mode", orchard.BACKGROUND_MODES)
@pytest.mark.parametrize("n", (1, 5, 40))
@pytest.mark.parametrize("num_institutions", range(1, 6))
def test_newcomer_keeps_the_weighted_majority_mistake_bound(mode, n, num_institutions):
    """With one outcome per step (`observe_others` false) the newcomer is
    textbook Weighted Majority over its experts' criticism predictions for its
    own last crop: replaying each step's outcome through `run_weighted_majority`
    gives its weights bit for bit, and the vote's mistakes keep the bound over
    the rounds t >= 1, in which no expert abstains once N >= 1."""
    cfg = claim_village(mode, n, num_institutions)
    roster = agents.build_roster(cfg, "normative", observe_others=False)
    history = orchard.run_episode(cfg, roster)
    ns = roster[0].state
    predictions, outcomes = [], []
    for prev, state in zip(history, history[1:]):
        obs = Observation(state.t, 0, orchard.roster_names(cfg), cfg.crop_names, state.signals,
                          prev.actions, prev.criticisms, state.discussion_log)
        (action,), criticized = agents.derive_outcomes(obs, observe_others=False)
        sanctioned = bool(criticized)
        crops = agents._safe_crops(ns.experts, obs)
        assert None not in crops
        predictions.append([action != crop for crop in crops])
        outcomes.append(sanctioned)
    mistakes, weights = agents.run_weighted_majority(predictions, outcomes, ns.beta)
    assert weights == ns.weights
    m_star = min(sum(p != o for p, o in zip(column, outcomes)) for column in zip(*predictions))
    assert mistakes <= wm_bound(len(ns.experts), m_star, ns.beta)

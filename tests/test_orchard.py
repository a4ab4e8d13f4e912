"""Orchard environment: phases, reward arithmetic, transcripts, metrics."""
import json
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from normsim import institutions, orchard
from normsim.orchard import DiscussionEntry


def follow_cfg(num_background=2, **kwargs):
    kwargs.setdefault("background_mode", "follow_authoritative")
    return orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=0, authoritative=True),),
        num_background=num_background,
        **kwargs,
    )


class Scripted:
    """Test double: fixed action per step, fixed criticisms per step."""

    def __init__(self, index, actions, crits=None, text="..."):
        self.index = index
        self.actions = actions
        self.crits = crits or {}
        self.text = text

    def discuss(self, obs):
        return self.text, tuple(self.crits.get(obs.t, ()))

    def act(self, obs):
        return self.actions[obs.t]


def crit(sender, target, crop, text="called out"):
    return orchard.Criticism(
        sender=sender, target=target, criticized_crop=crop, basis=None, text=text
    )


def test_env_config_validation():
    inst = institutions.make_institution(0, crop=0)
    with pytest.raises(ValueError, match="num_crops"):
        follow_cfg(num_crops=1)
    assert follow_cfg(num_crops=2).crop_names == ("apples", "bananas")
    assert follow_cfg().crop_names == institutions.CROP_NAMES
    with pytest.raises(ValueError, match="unique"):
        orchard.EnvConfig(institutions=(inst, inst), num_background=1)
    with pytest.raises(ValueError, match="background_mode"):
        follow_cfg(background_mode="riot")
    with pytest.raises(ValueError, match="eval_window"):
        follow_cfg(max_timesteps=4, eval_window=5)


def test_env_config_refuses_declarations_outside_the_crop_list():
    """One line per institution that names a crop past num_crops, constant or rotating."""
    rotating = institutions.Institution(id=1, name="Bram", crops=(0, 1, 7))
    with pytest.raises(ValueError) as info:
        orchard.EnvConfig(
            institutions=(institutions.make_institution(0, crop=3, authoritative=True), rotating,
                          institutions.make_institution(2, crop=1)),
            num_crops=2, num_background=2, max_timesteps=4, eval_window=2)
    assert str(info.value).splitlines() == [
        "Ophilia declares crop 3, outside the crop list",
        "Bram declares crop 7, outside the crop list",
    ]
    inside = orchard.EnvConfig(institutions=(
        institutions.Institution(id=0, name="Bram", crops=(1, 0)),
    ), num_crops=2)
    assert inside.crop_names == ("apples", "bananas")


@pytest.mark.parametrize("seed", range(5))
def test_signals_are_declared_once_per_config(seed, monkeypatch):
    """A step picks each institution's signal out of its config's cycles, so an
    episode declares each (institution, crop position) once, not once a step,
    and every config, even one equal to another, declares its own."""
    declared = Counter()
    declare = institutions.declare
    monkeypatch.setattr(orchard, "declare",
                        lambda inst, t, names: declared.update([inst.id]) or declare(inst, t, names))
    rng = np.random.default_rng(seed)
    for _ in range(10):
        rotations = [tuple(int(c) for c in rng.integers(5, size=int(rng.integers(1, 6))))
                     for _ in range(int(rng.integers(1, 6)))]
        insts = tuple(institutions.Institution(i, institutions.institution_name(i), crops)
                      for i, crops in enumerate(rotations))
        steps = int(rng.integers(1, 20))
        twins = [orchard.EnvConfig(institutions=insts, num_background=2, max_timesteps=steps,
                                   eval_window=1) for _ in range(2)]
        assert twins[0] == twins[1] and twins[0] is not twins[1]
        declared.clear()
        for count, cfg in enumerate(twins, 1):
            history = orchard.run_episode(cfg, [Scripted(i, [0] * steps) for i in range(3)])
            assert declared == {inst.id: count * len(inst.crops) for inst in insts}
            for state in history:
                assert state.signals == tuple(declare(inst, state.t, cfg.crop_names) for inst in insts)


def test_roster_names():
    assert orchard.roster_names(follow_cfg(num_background=2)) == ("Alice", "John", "Anthony")
    names = orchard.roster_names(follow_cfg(num_background=11))
    assert names[-1] == "Villager10"


def test_modal_crop_tie_breaks():
    assert orchard.modal_crop([2, 1, 2, 1]) == 1
    assert orchard.modal_crop([3]) == 3
    with pytest.raises(ValueError):
        orchard.modal_crop([])


def counted_modal_crop(actions):
    """The modal crop by counting: the highest count, then the lowest crop."""
    counts = Counter(actions)
    best = max(counts.values())
    return min(crop for crop, k in counts.items() if k == best)


@pytest.mark.parametrize("seed", range(5))
def test_modal_crops_match_counting(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        actions = tuple(int(c) for c in rng.integers(5, size=int(rng.integers(1, 9))))
        assert orchard.modal_crop(actions) == counted_modal_crop(actions)
        for me in range(-1, len(actions) + 1):  # an index outside `actions` leaves them all
            others = [c for j, c in enumerate(actions) if j != me]
            expected = counted_modal_crop(others) if others else None
            assert orchard.others_modal_crop(actions, me) == expected


def test_reward_arithmetic_oracle_values():
    # six agents; everyone harvests apples at t=0 (no criticisms possible),
    # then five criticisms land on the focal agent while one villager defects.
    cfg = follow_cfg(num_background=5, max_timesteps=2, eval_window=1)
    crits_t1 = [crit(j, 0, 0) for j in range(1, 6)]
    agents = [Scripted(0, [0, 0])]
    for j in range(1, 5):
        agents.append(Scripted(j, [0, 0], {1: (crits_t1[j - 1],)}))
    agents.append(Scripted(5, [0, 1], {1: (crits_t1[4],)}))
    history = orchard.run_episode(cfg, agents)

    assert history[0].rewards == (1.5,) * 6
    # focal: modal crop (5/6 bonus), five received criticisms
    assert history[1].rewards[0] == 0.16666666666666674
    # criticizing followers: modal, one sent criticism each
    assert history[1].rewards[1] == 1.3666666666666667
    assert history[1].actions == (0, 0, 0, 0, 0, 1)


def test_criticism_validation():
    cfg = follow_cfg(num_background=1, max_timesteps=2, eval_window=1)

    def run(crits):
        agents = [Scripted(0, [0, 0]), Scripted(1, [1, 1], crits)]
        return orchard.run_episode(cfg, agents)

    with pytest.raises(orchard.EnvError, match="step 0"):
        run({0: (crit(1, 0, 0),)})
    with pytest.raises(orchard.EnvError, match="harvested"):
        run({1: (crit(1, 0, 3),)})  # focal actually harvested crop 0
    with pytest.raises(orchard.EnvError, match="sender"):
        run({1: (crit(0, 1, 1),)})  # speaker 1 forging sender 0
    with pytest.raises(orchard.EnvError, match="institution"):
        bad = orchard.Criticism(sender=1, target=0, criticized_crop=0, basis=9, text="x")
        run({1: (bad,)})
    with pytest.raises(orchard.EnvError, match="^agents do not criticize themselves$"):
        run({1: (crit(1, 1, 1),)})  # John calls out his own crop


def test_criticism_fields_and_immutability():
    c = orchard.Criticism(sender=1, target=0, criticized_crop=2, basis=None, text="tsk")
    assert (c.sender, c.target, c.criticized_crop, c.basis, c.text) == (1, 0, 2, None, "tsk")
    assert c == orchard.Criticism(1, 0, 2, None, "tsk")
    assert hash(c) == hash(orchard.Criticism(1, 0, 2, None, "tsk"))
    for name in ("sender", "text", "extra"):
        with pytest.raises(AttributeError):
            setattr(c, name, 5)
    with pytest.raises(TypeError):
        orchard.Criticism(sender=1, target=0, criticized_crop=2, basis=None)
    # a self-criticism can be built; the step refuses it (test_criticism_validation)
    assert orchard.Criticism(sender=1, target=1, criticized_crop=0, basis=None, text="me").target == 1


def test_action_validation():
    cfg = follow_cfg(num_background=1, max_timesteps=1, eval_window=1)
    with pytest.raises(orchard.EnvError, match="crop"):
        orchard.run_episode(cfg, [Scripted(0, [7]), Scripted(1, [0])])
    with pytest.raises(orchard.EnvError, match="non-integer"):
        orchard.run_episode(cfg, [Scripted(0, ["apples"]), Scripted(1, [0])])
    with pytest.raises(ValueError, match="agent handles"):
        orchard.run_episode(cfg, [Scripted(0, [0])])


class FixedCrowd(NamedTuple):
    """Test double: a crowd whose script is itself, harvesting `action` and
    criticizing no one."""

    action: object
    idle: str = "we agree"
    criticisms: tuple = ()

    def script(self, obs):
        return self

    def turn(self, me):
        return self.idle, ()


class Member:
    def __init__(self, crowd):
        self.crowd = crowd


def test_crowd_run_action_checked_once_naming_its_first_member():
    cfg = follow_cfg(num_background=4, max_timesteps=1, eval_window=1)

    def run(action):
        roster = [Scripted(0, [0]), Scripted(1, [0])] + [Member(FixedCrowd(action))] * 3
        return orchard.run_episode(cfg, roster)

    with pytest.raises(orchard.EnvError, match="^agent Anthony returned out-of-range crop 7$"):
        run(7)
    with pytest.raises(orchard.EnvError, match="^agent Anthony returned non-integer action 'x'$"):
        run("x")
    (state,) = run(True)  # anything `operator.index` accepts
    assert state.actions == (0, 0, 1, 1, 1) and all(type(a) is int for a in state.actions)
    assert state.discussion_log[2:] == tuple(DiscussionEntry(i, "we agree") for i in range(2, 5))


class CrowdScript(NamedTuple):
    action: int
    idle: str
    criticisms: tuple
    basis: object


class CriticizingCrowd:
    """Test double: a crowd harvesting crop 0 whose members criticize each
    (target, crop, text) of `criticisms` on `basis`'s grounds from step 1 on.
    It records the observation each of its scripts is built from."""

    def __init__(self, criticisms, basis=None):
        self.criticisms, self.basis, self.seen = criticisms, basis, []

    def script(self, obs):
        self.seen.append(obs)
        return CrowdScript(0, "we agree", self.criticisms if obs.t else (), self.basis)


def test_crowd_criticisms_checked_once_at_the_runs_first_member():
    cfg = follow_cfg(num_background=5, max_timesteps=2, eval_window=1)

    def run(*criticisms, basis=None):
        crowd, spoke = CriticizingCrowd(criticisms, basis), []

        class Last(Scripted):
            def discuss(self, obs):
                spoke.append(obs.t)
                return super().discuss(obs)

        roster = [Scripted(0, [1, 1]), Scripted(1, [0, 0])] + [Member(crowd)] * 3
        with pytest.raises(orchard.EnvError) as failure:
            orchard.run_episode(cfg, roster + [Last(5, [0, 0])])
        # step 1's script was built at the run's first member, after two turns,
        # and the step stopped there: the handle after the run never spoke
        assert [(obs.t, obs.agent_index, len(obs.discussion_so_far)) for obs in crowd.seen] == [
            (0, 2, 2), (1, 2, 2)]
        assert spoke == [0]
        return str(failure.value)

    assert run((9, 1, "x")) == "criticism target 9 is not an agent"
    assert run((0, 1, "x"), (0, 3, "y")) == "criticism names crop 3 but agent 0 harvested 1 last step"
    assert run((0, 1, "x"), basis=9) == "criticism cites unknown institution 9"

    # a valid script: each member criticizes every triple but its own
    crowd = CriticizingCrowd(((0, 1, "Alice strayed."), (3, 0, "Jane too.")), basis=0)
    roster = [Scripted(0, [1, 1]), Scripted(1, [0, 0])] + [Member(crowd)] * 3 + [Scripted(5, [0, 0])]
    state = orchard.run_episode(cfg, roster)[1]

    def entry(me, *triples):
        return DiscussionEntry(me, " ".join(text for _, _, text in triples),
                               tuple(orchard.Criticism(me, j, crop, 0, text) for j, crop, text in triples))

    alice, jane = (0, 1, "Alice strayed."), (3, 0, "Jane too.")
    assert state.discussion_log[2:5] == (entry(2, alice, jane), entry(3, alice), entry(4, alice, jane))
    assert state.rewards[3] != state.rewards[2]  # Jane sent one criticism and received two


def test_discussion_order_and_observation():
    cfg = follow_cfg(num_background=2, max_timesteps=2, eval_window=1, discussion_turns=2)
    seen = []

    class Probe(Scripted):
        def discuss(self, obs):
            seen.append((obs.t, self.index, len(obs.discussion_so_far)))
            return super().discuss(obs)

    agents = [Probe(i, [0, 0]) for i in range(3)]
    history = orchard.run_episode(cfg, agents)
    # two turns x three agents, in index order, each seeing all prior entries
    assert seen[:6] == [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 0, 3), (0, 1, 4), (0, 2, 5)]
    assert len(history[0].discussion_log) == 6


def test_observation_contents():
    cfg = follow_cfg(num_background=1, max_timesteps=3, eval_window=1)
    captured = {}

    class Probe(Scripted):
        def act(self, obs):
            captured[obs.t] = obs
            return super().act(obs)

    # the criticism spoken at t=1 reaches observations at t=2
    agents = [Probe(0, [1, 1, 1]), Scripted(1, [0, 0, 0], {1: (crit(1, 0, 1),)})]
    orchard.run_episode(cfg, agents)
    first, last = captured[0], captured[2]
    assert first.last_step_actions == ()
    assert first.last_step_criticisms == ()
    assert [s.crop for s in first.signals] == [0]
    assert last.last_step_actions == (1, 0)
    assert last.last_step_criticisms[0].target == 0
    assert last.agent_names == ("Alice", "John")


def test_observation_fields_and_immutability():
    fields = dict(
        t=1, agent_index=0, agent_names=("Alice", "John"), crop_names=("apples", "bananas"),
        signals=(), last_step_actions=(1, 0), last_step_criticisms=(crit(1, 0, 1),),
        discussion_so_far=(),
    )
    obs = orchard.Observation(**fields)
    assert {name: getattr(obs, name) for name in fields} == fields
    assert orchard.Observation(*fields.values()) == obs
    with pytest.raises(TypeError):
        orchard.Observation(**{k: v for k, v in fields.items() if k != "signals"})
    for name in ("t", "signals", "extra"):
        with pytest.raises(AttributeError):
            setattr(obs, name, 5)
    assert obs.t == 1 and obs.signals == ()


def test_observations_of_one_step_share_its_data():
    cfg = follow_cfg(num_background=3, max_timesteps=3, eval_window=1, discussion_turns=2)
    seen = []

    class Probe(Scripted):
        def discuss(self, obs):
            seen.append(("discuss", obs))
            return super().discuss(obs)

        def act(self, obs):
            seen.append(("act", obs))
            return super().act(obs)

    # John criticizes Alice's step-0 crop at t=1, so step 2 has criticisms to share
    agents = [Probe(i, [0, 1, 0], {1: (crit(1, 0, 0),)} if i == 1 else None) for i in range(4)]
    history = orchard.run_episode(cfg, agents)
    shared = ("agent_names", "crop_names", "signals", "last_step_actions", "last_step_criticisms")
    for state in history:
        step_obs = [obs for _, obs in seen if obs.t == state.t]
        assert len(step_obs) == 4 * 2 + 4
        first = step_obs[0]
        assert first.signals is state.signals
        if state.t:
            assert first.last_step_actions is history[state.t - 1].actions
            assert first.last_step_criticisms is history[state.t - 1].criticisms
        for obs in step_obs:
            assert all(getattr(obs, name) is getattr(first, name) for name in shared)
        acting = [obs for phase, obs in seen if phase == "act" and obs.t == state.t]
        assert all(obs.discussion_so_far is state.discussion_log for obs in acting)
    assert len(history[1].criticisms) == 2  # one per discussion turn
    alice_at_2 = [obs for _, obs in seen if obs.t == 2 and obs.agent_index == 0]
    assert [obs.last_step_criticisms for obs in alice_at_2] == [history[1].criticisms] * 3


GOLDEN_TRANSCRIPT = """\
==================================================
Time: 8:00 AM
==================================================

classification institution SIGNALS:
Ophilia's Message: Valued citizens of Skymeadow, let's focus on harvesting apples. It is important for the prosperity of our community!

DISCUSSION PHASE:

----- Discussion, Turn 1/1 -----
(Me) Alice: "I'm new to Skymeadow and eager to be a good citizen."
John: "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow."
Anthony: "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow."

ACTIONS:
Alice: Harvest apple from apple tree
John: Harvest apple from apple tree
Anthony: Harvest apple from apple tree

==================================================
Time: 8:30 AM
==================================================

classification institution SIGNALS:
Ophilia's Message: Valued citizens of Skymeadow, let's focus on harvesting apples. It is important for the prosperity of our community!

DISCUSSION PHASE:

----- Discussion, Turn 1/1 -----
(Me) Alice: "I'm watching what the community values before committing to a crop."
John: "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow."
Anthony: "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow."

ACTIONS:
Alice: Harvest apple from apple tree
John: Harvest apple from apple tree
Anthony: Harvest apple from apple tree

"""


def test_transcript_golden():
    from normsim import agents as agent_mod

    cfg = follow_cfg(num_background=2, max_timesteps=2, eval_window=2)
    roster = agent_mod.build_roster(cfg, "normative")
    history = orchard.run_episode(cfg, roster)
    assert orchard.render_transcript(history, cfg) == GOLDEN_TRANSCRIPT


def test_clock_rolls_past_noon():
    cfg = follow_cfg(num_background=1, max_timesteps=10, eval_window=1)
    agents = [Scripted(0, [0] * 10), Scripted(1, [0] * 10)]
    transcript = orchard.render_transcript(orchard.run_episode(cfg, agents), cfg)
    assert "Time: 12:00 PM" in transcript
    assert "Time: 12:30 PM" in transcript


def test_alignment_metric():
    cfg = follow_cfg(num_background=1, max_timesteps=4, eval_window=2)
    agents = [Scripted(0, [1, 1, 0, 0]), Scripted(1, [1, 1, 1, 1])]
    history = orchard.run_episode(cfg, agents)
    assert orchard.alignment_metric(history, cfg, 0) == 1.0  # last two steps: apples
    assert orchard.alignment_metric(history, cfg, "community_modal") == 0.0
    with pytest.raises(KeyError):
        orchard.alignment_metric(history, cfg, 9)
    with pytest.raises(ValueError):
        orchard.alignment_metric(history[:2], cfg, 0)


def test_steps_to_convergence():
    cfg = follow_cfg(num_background=1, max_timesteps=4, eval_window=1)

    def steps(actions):
        agents = [Scripted(0, actions), Scripted(1, [0, 0, 0, 0])]
        return orchard.steps_to_convergence(orchard.run_episode(cfg, agents), cfg)

    assert steps([2, 2, 2, 2]) == 0
    assert steps([0, 2, 2, 2]) == 1
    assert steps([2, 0, 2, 0]) == 3
    assert orchard.steps_to_convergence((), cfg) == 4


def test_group_welfare():
    cfg = follow_cfg(num_background=1, max_timesteps=2, eval_window=1)
    agents = [Scripted(0, [0, 0]), Scripted(1, [0, 0])]
    history = orchard.run_episode(cfg, agents)
    assert orchard.group_welfare(history) == 3.0  # two agents x 1.5, both steps
    assert orchard.group_welfare(()) == 0.0


def test_episode_dump(tmp_path):
    cfg = follow_cfg(num_background=1, max_timesteps=2, eval_window=1, seed=9)
    agents = [Scripted(0, [1, 0]), Scripted(1, [0, 0], {1: (crit(1, 0, 1),)})]
    history = orchard.run_episode(cfg, agents)
    path = tmp_path / "episode.json"
    orchard.save_episode(history, cfg, path)
    dump = json.loads(path.read_text())
    assert dump["config"]["seed"] == 9
    assert dump["config"]["institutions"][0]["authoritative"] is True
    assert len(dump["steps"]) == 2
    assert dump["steps"][0]["actions"] == [1, 0]
    assert dump["steps"][1]["discussion"][1]["criticisms"][0]["target"] == 0
    assert dump["steps"][1]["rewards"] == [1.25, 1.45]
    # byte-stable on re-dump
    orchard.save_episode(history, cfg, tmp_path / "episode2.json")
    assert path.read_bytes() == (tmp_path / "episode2.json").read_bytes()


def test_episode_dump_writes_one_declared_crop_as_crop():
    """A one-crop rotation is the same declaration as a constant one, and dumps alike."""
    insts = (institutions.Institution(0, "Ophilia", (1,), True),
             institutions.Institution(1, "Bram", (2, 0)))
    cfg = orchard.EnvConfig(institutions=insts, num_background=1, max_timesteps=2,
                            eval_window=1)
    history = orchard.run_episode(cfg, [Scripted(0, [1, 1]), Scripted(1, [1, 1])])
    dumped = orchard.episode_to_dict(history, cfg)["config"]["institutions"]
    assert [{k: v for k, v in inst.items() if k in ("crop", "rotation")} for inst in dumped] == [
        {"crop": 1}, {"rotation": [2, 0]}]


def test_episode_determinism():
    from normsim import agents as agent_mod

    cfg = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=0),),
        num_background=3,
        background_mode="defy_institution",
        seed=123,
    )
    runs = []
    for _ in range(2):
        roster = agent_mod.build_roster(cfg, "normative")
        runs.append(orchard.run_episode(cfg, roster))
    assert runs[0] == runs[1]

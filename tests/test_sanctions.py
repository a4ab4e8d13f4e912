"""Sanction games: costs, transforms, enforceability, and advice checks."""
import itertools
import json
import math

import numpy as np
import pytest

from normsim import games, sanctions
from tests.conftest import advice_to_dict, declaration_menus, game_to_dict, sanction_game_to_dict


def test_sanction_cost_oracle_values(pd_sg3):
    # both players declare; player 0 defected at (D,C)
    assert sanctions.sanction_cost(pd_sg3, (1, 1), (1, 0), 0) == 3.0
    assert sanctions.sanction_cost(pd_sg3, (1, 1), (1, 0), 1) == 0.1
    # nobody sanctions at the target itself
    assert sanctions.sanction_cost(pd_sg3, (1, 1), (0, 0), 0) == 0.0
    assert sanctions.sanction_cost(pd_sg3, (1, 1), (0, 0), 1) == 0.0
    # only the sanctioning side pays the self cost
    assert sanctions.sanction_cost(pd_sg3, (0, 1), (1, 0), 1) == 0.1
    assert sanctions.sanction_cost(pd_sg3, (0, 1), (1, 0), 0) == 3.0


def test_apply_transform_oracle_values(pd, pd_sg3):
    transformed = sanctions.apply_transform(pd_sg3, (1, 1))
    assert games.payoffs_at(transformed, (1, 0)) == (2.0, -0.1)
    assert games.payoffs_at(transformed, (0, 1)) == (-0.1, 2.0)
    assert games.payoffs_at(transformed, (0, 0)) == (3.0, 3.0)
    # the base game is untouched
    assert games.payoffs_at(pd, (1, 0)) == (5.0, 0.0)
    assert transformed.action_names == pd.action_names


def test_is_dilemma_resolving(pd, pd_sg3):
    transformed = sanctions.apply_transform(pd_sg3, (1, 1))
    assert sanctions.is_dilemma_resolving(pd, transformed, 0)
    assert sanctions.is_dilemma_resolving(pd, transformed, 1)
    # identity transform resolves nothing
    identity = sanctions.apply_transform(pd_sg3, (0, 0))
    assert not sanctions.is_dilemma_resolving(pd, identity, 0)


def test_resolving_needs_a_profitable_deviation(pd, pd_sg3):
    # at the base game's equilibrium there is nothing to resolve
    punished = sanctions.apply_transform(pd_sg3, (1, 1))
    assert not sanctions.is_dilemma_resolving(
        games.game_from_table(
            [["C", "D"], ["C", "D"]],
            {(0, 0): [9, 9], (0, 1): [0, 1], (1, 0): [1, 0], (1, 1): [1, 1]},
        ),
        punished,
        0,
    )


def test_sanction_minimax_oracle_values(pd_sg3, pd_sg1, effort):
    assert sanctions.sanction_minimax(pd_sg3, (1, 0), 0) == -3.0
    assert sanctions.sanction_minimax(pd_sg1, (1, 0), 0) == -1.0
    sg25 = sanctions.SanctionGame(
        base=effort, menus=declaration_menus(effort, (1, 1, 1), 0.25)
    )
    sg10 = sanctions.SanctionGame(
        base=effort, menus=declaration_menus(effort, (1, 1, 1), 0.1)
    )
    assert sanctions.sanction_minimax(sg25, (0, 1, 1), 0) == -0.5
    assert sanctions.sanction_minimax(sg10, (0, 1, 1), 0) == -0.2


def test_theorem1_pd_enforceable(pd_sg3):
    report = sanctions.theorem1_feasibility(pd_sg3, (0, 0))
    assert report.enforceable
    assert report.witness == (1, 1)
    for p, punish in zip(report.players, [(1, 0), (0, 1)]):
        assert p.delta == 2.0
        assert p.minimax == -3.0
        assert p.punish_profile == punish
        assert p.enforceable


def test_theorem1_pd_not_enforceable(pd_sg1):
    report = sanctions.theorem1_feasibility(pd_sg1, (0, 0))
    assert not report.enforceable
    assert report.witness is None
    assert all(p.delta == 2.0 and p.minimax == -1.0 for p in report.players)
    assert not any(p.enforceable for p in report.players)


def test_theorem1_effort(effort):
    sg25 = sanctions.SanctionGame(
        base=effort, menus=declaration_menus(effort, (1, 1, 1), 0.25)
    )
    report = sanctions.theorem1_feasibility(sg25, (1, 1, 1))
    assert report.enforceable
    assert report.witness == (1, 1, 1)
    sg10 = sanctions.SanctionGame(
        base=effort, menus=declaration_menus(effort, (1, 1, 1), 0.1)
    )
    assert not sanctions.theorem1_feasibility(sg10, (1, 1, 1)).enforceable


def test_theorem1_stable_target_needs_no_sanctions(pd):
    menus = tuple((sanctions.never_sanction(i),) for i in range(2))
    sg = sanctions.SanctionGame(base=pd, menus=menus)
    report = sanctions.theorem1_feasibility(sg, (1, 1))
    assert report.enforceable
    assert report.witness == (0, 0)
    assert all(p.delta == 0.0 and p.punish_profile == (1, 1) for p in report.players)


def test_non_resolving_witness_is_identity(pd_sg3, effort):
    for sg in (
        pd_sg3,
        sanctions.SanctionGame(base=effort, menus=declaration_menus(effort, (1, 1, 1), 0.25)),
    ):
        witness = sanctions.non_resolving_witness(sg)
        transformed = sanctions.apply_transform(sg, witness)
        assert np.array_equal(transformed.payoffs, sg.base.payoffs)
        assert transformed.action_names == sg.base.action_names


def test_classifier_validation(pd):
    with pytest.raises(ValueError):
        sanctions.ClassificationFunction(
            owner=0, sanctions=frozenset({(((0, 0)), 0)}), cost=1.0
        )  # self-targeting
    with pytest.raises(ValueError):
        sanctions.ClassificationFunction(owner=0, sanctions=frozenset(), cost=-1.0)
    with pytest.raises(ValueError):
        sanctions.SanctionGame(base=pd, menus=(((sanctions.never_sanction(0),)),))
    with pytest.raises(ValueError):
        # menus without a never-sanction entry
        decl = sanctions.declaration_classifier(pd, 0, (0, 0), 1.0)
        sanctions.SanctionGame(base=pd, menus=((decl,), (sanctions.never_sanction(1),)))


def test_negative_zero_costs_keep_minimax_sign(pd):
    # -0.0 passes the >= 0 check; it must not flip the sign of a zero minimax
    def game(zero):
        return sanctions.SanctionGame(base=pd, menus=declaration_menus(pd, (0, 0), zero, zero))

    plus, minus = game(0.0), game(-0.0)
    for profile in itertools.product((0, 1), repeat=2):
        for player in (0, 1):
            a = sanctions.sanction_minimax(plus, profile, player)
            b = sanctions.sanction_minimax(minus, profile, player)
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    assert math.copysign(1.0, minus.menus[0][1].cost) == 1.0


def test_exhaustive_menu_shape(pd):
    menu = sanctions.exhaustive_menu(pd, 0, cost=1.0, self_cost=0.1, limit=8)
    assert len(menu) == 8
    assert menu[0].is_never
    sizes = [len(c.sanctions) for c in menu]
    assert sizes == sorted(sizes)


def test_enforceable_iff_witness_on_declaration_menus():
    # integer payoffs with .25/.75 costs keep cost sums away from every delta,
    # so the theorem-1 verdict and the brute-force witness must agree exactly.
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(120):
        n = int(rng.integers(2, 4))
        num_actions = 2 if n == 3 else int(rng.integers(2, 4))
        actions = [[f"a{i}{k}" for k in range(num_actions)] for i in range(n)]
        shape = (num_actions,) * n + (n,)
        payoffs = rng.integers(-3, 6, size=shape).astype(float)
        table = {p: list(payoffs[p]) for p in np.ndindex(*shape[:-1])}
        game = games.game_from_table(actions, table)
        target = tuple(int(rng.integers(num_actions)) for _ in range(n))
        cost = float(rng.integers(0, 5)) + (0.25 if rng.integers(2) else 0.75)
        sg = sanctions.SanctionGame(
            base=game, menus=declaration_menus(game, target, cost, self_cost=0.25)
        )
        report = sanctions.theorem1_feasibility(sg, target)
        witness = sanctions.find_nash_witness(sg, target)
        assert report.enforceable == (witness is not None)
        if report.enforceable:
            assert games.is_nash(sanctions.apply_transform(sg, report.witness), target)
            agreements += 1
    assert 0 < agreements < 120  # both verdicts actually occurred


# ---------------------------------------------------------------------------
# Advice verification
# ---------------------------------------------------------------------------


def pointless_sanction_game(pd):
    """Player 0 can pay a self cost to sanction player 1 at the target itself."""
    pointless = sanctions.ClassificationFunction(
        owner=0, sanctions=frozenset({((0, 0), 1)}), cost=0.7, self_cost=0.1
    )
    menus = ((sanctions.never_sanction(0), pointless), (sanctions.never_sanction(1),))
    return sanctions.SanctionGame(base=pd, menus=menus)


def test_ce_counterexample_rejected(pd):
    sg = pointless_sanction_game(pd)
    advice = sanctions.advice_point_mass((1, 0))
    for mode in ("literal", "conditioned"):
        report = sanctions.verify_correlated_equilibrium(sg, advice, (0, 0), mode=mode)
        assert not report.holds
        assert abs(report.worst_violation - 0.1) <= 1e-9
        assert report.violating_player == 0
        assert report.violating_deviation == 0
    literal = sanctions.verify_correlated_equilibrium(sg, advice, (0, 0), mode="literal")
    assert literal.violating_recommendation is None
    conditioned = sanctions.verify_correlated_equilibrium(sg, advice, (0, 0), mode="conditioned")
    assert conditioned.violating_recommendation == 1


def test_ce_all_never_accepted(pd):
    sg = pointless_sanction_game(pd)
    advice = sanctions.advice_point_mass((0, 0))
    for mode in ("literal", "conditioned"):
        report = sanctions.verify_correlated_equilibrium(sg, advice, (0, 0), mode=mode)
        assert report.holds
        assert report.worst_violation == 0.0
        assert report.violating_player is None


def test_ce_weak_inequality_boundary(pd_sg3):
    # a uniform mix over symmetric declarations: deviating to the other menu
    # entry changes nothing in expectation at the target profile
    advice = sanctions.AdviceDistribution(support=(((0, 0), 0.5), ((1, 1), 0.5)))
    report = sanctions.verify_correlated_equilibrium(pd_sg3, advice, (0, 0))
    assert report.holds


def test_advice_validation(pd_sg3):
    with pytest.raises(ValueError):
        sanctions.AdviceDistribution(support=(((0, 0), 0.4),))  # mass != 1
    with pytest.raises(ValueError):
        sanctions.AdviceDistribution(support=(((0, 0), -0.5), ((1, 1), 1.5)))
    advice = sanctions.AdviceDistribution(support=(((0, 5), 1.0),))
    with pytest.raises(ValueError):
        advice.validate_for(pd_sg3)
    with pytest.raises(ValueError):
        sanctions.verify_correlated_equilibrium(
            pd_sg3, sanctions.advice_point_mass((0, 0)), (0, 0), mode="strict"
        )


def _random_sanction_game(rng):
    num_actions = int(rng.integers(2, 4))
    actions = [[f"a{k}" for k in range(num_actions)], [f"b{k}" for k in range(num_actions)]]
    shape = (num_actions, num_actions, 2)
    payoffs = rng.integers(-3, 4, size=shape).astype(float)
    table = {p: list(payoffs[p]) for p in np.ndindex(*shape[:-1])}
    game = games.game_from_table(actions, table)
    profiles = list(games.enumerate_profiles(game))
    menus = []
    for owner in range(2):
        menu = [sanctions.never_sanction(owner)]
        for _ in range(int(rng.integers(1, 3))):
            pairs = set()
            for profile in profiles:
                if rng.random() < 0.4:
                    pairs.add((profile, 1 - owner))
            menu.append(
                sanctions.ClassificationFunction(
                    owner=owner,
                    sanctions=frozenset(pairs),
                    cost=float(rng.integers(0, 4)) / 2.0,
                    self_cost=float(rng.integers(0, 3)) / 4.0,
                )
            )
        menus.append(tuple(menu))
    return sanctions.SanctionGame(base=game, menus=tuple(menus))


def _random_advice(rng, sg):
    profiles = list(sanctions.enumerate_classifier_profiles(sg))
    k = int(rng.integers(1, min(4, len(profiles)) + 1))
    picks = rng.choice(len(profiles), size=k, replace=False)
    weights = rng.random(k) + 0.05
    weights /= weights.sum()
    support = tuple((profiles[int(i)], float(w)) for i, w in zip(picks, weights))
    return sanctions.AdviceDistribution(support=support)


def test_conditioned_holds_implies_literal_holds():
    rng = np.random.default_rng(11)
    conditioned_held = 0
    for _ in range(1000):
        sg = _random_sanction_game(rng)
        advice = _random_advice(rng, sg)
        base_profile = tuple(
            int(rng.integers(sg.base.payoffs.shape[i])) for i in range(2)
        )
        conditioned = sanctions.verify_correlated_equilibrium(
            sg, advice, base_profile, mode="conditioned"
        )
        if conditioned.holds:
            conditioned_held += 1
            literal = sanctions.verify_correlated_equilibrium(
                sg, advice, base_profile, mode="literal"
            )
            assert literal.holds
    assert conditioned_held > 50  # the property was actually exercised


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def test_sanction_game_round_trip(pd_sg3, tmp_path):
    obj = sanction_game_to_dict(pd_sg3)
    path = tmp_path / "sg.json"
    path.write_text(json.dumps(obj))
    loaded = sanctions.load_sanction_game(path)
    assert loaded.menus == pd_sg3.menus
    assert np.array_equal(loaded.base.payoffs, pd_sg3.base.payoffs)


def test_sanction_game_parse_errors(pd):
    base = game_to_dict(pd)
    with pytest.raises(games.GameFormatError, match="classifiers"):
        sanctions.parse_sanction_game(base)
    bad = dict(base, classifiers=[[], []])
    with pytest.raises(games.GameFormatError):
        sanctions.parse_sanction_game(bad)
    bad = dict(
        base,
        classifiers=[
            [{"sanctions": [{"profile": "D,C", "target": 0}], "cost": 1.0}],
            [{"sanctions": []}],
        ],
    )
    with pytest.raises(games.GameFormatError):  # owner 0 targeting itself
        sanctions.parse_sanction_game(bad)


def test_advice_round_trip(tmp_path):
    advice = sanctions.AdviceDistribution(support=(((0, 1), 0.25), ((1, 0), 0.75)))
    path = tmp_path / "advice.json"
    path.write_text(json.dumps(advice_to_dict(advice)))
    assert sanctions.load_advice(path) == advice
    path.write_text('{"support": [{"profile_indices": [0, 0], "p": "x"}]}')
    with pytest.raises(games.GameFormatError):
        sanctions.load_advice(path)

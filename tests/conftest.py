"""Shared fixtures: the classic two-player dilemma, a three-player effort
game, and declaration-style sanction menus over them; plus the JSON form of
games, sanction games and advice, the inverse of their parsers."""
import itertools

import pytest

from normsim import games, sanctions


@pytest.fixture
def pd() -> games.FiniteGame:
    return games.game_from_table(
        [["C", "D"], ["C", "D"]],
        {(0, 0): [3, 3], (0, 1): [0, 5], (1, 0): [5, 0], (1, 1): [1, 1]},
    )


@pytest.fixture
def effort() -> games.FiniteGame:
    # u_i = 2/3 * (total effort) - own effort; working is socially optimal,
    # shirking is individually optimal.
    def u(profile):
        total = sum(profile)
        return [2.0 * total / 3.0 - x for x in profile]

    table = {p: u(p) for p in itertools.product((0, 1), repeat=3)}
    return games.game_from_table([["rest", "work"]] * 3, table)


def declaration_menus(game, target, cost, self_cost=0.1):
    """Per-player menus [never, declare-target] used across the sanction tests."""
    menus = []
    for owner in range(game.num_players):
        menus.append(
            (
                sanctions.never_sanction(owner),
                sanctions.declaration_classifier(game, owner, target, cost, self_cost),
            )
        )
    return tuple(menus)


@pytest.fixture
def pd_sg3(pd) -> sanctions.SanctionGame:
    return sanctions.SanctionGame(base=pd, menus=declaration_menus(pd, (0, 0), 3.0))


@pytest.fixture
def pd_sg1(pd) -> sanctions.SanctionGame:
    return sanctions.SanctionGame(base=pd, menus=declaration_menus(pd, (0, 0), 1.0))


def game_to_dict(game: games.FiniteGame) -> dict:
    """The JSON-ready table form of a game."""
    return {
        "players": game.num_players,
        "actions": [list(per_player) for per_player in game.action_names],
        "utilities": {
            games.profile_key(game, profile): [float(x) for x in game.payoffs[profile]]
            for profile in games.enumerate_profiles(game)
        },
    }


def sanction_game_to_dict(sg: sanctions.SanctionGame) -> dict:
    out = game_to_dict(sg.base)
    out["classifiers"] = [
        [
            {
                "sanctions": [
                    {"profile": games.profile_key(sg.base, profile), "target": target}
                    for profile, target in sorted(c.sanctions)
                ],
                "cost": c.cost,
                "self_cost": c.self_cost,
            }
            for c in menu
        ]
        for menu in sg.menus
    ]
    return out


def advice_to_dict(advice: sanctions.AdviceDistribution) -> dict:
    return {
        "support": [
            {"profile_indices": list(profile), "p": p} for profile, p in advice.support
        ]
    }

"""Base-game analysis: welfare optimum, deviation incentives, Nash checks,
and the JSON table format."""
import json

import numpy as np
import pytest

from normsim import games
from tests.conftest import game_to_dict


def test_pd_welfare_optimum(pd):
    assert games.social_welfare_optimum(pd) == (0, 0)
    report = games.detect_cooperation_dilemma(pd)
    assert report.sw_total == 6.0


def test_pd_dilemma_report(pd):
    report = games.detect_cooperation_dilemma(pd)
    assert report.has_dilemma
    assert report.dilemma_players == (0, 1)
    assert [p.gain for p in report.incentives] == [2.0, 2.0]
    assert [p.witness for p in report.incentives] == [1, 1]


def test_pd_nash(pd):
    nash = [p for p in games.enumerate_profiles(pd) if games.is_nash(pd, p)]
    assert nash == [(1, 1)]


def test_pd_best_responses(pd):
    assert games.best_response_set(pd, 0, (0,)) == (1,)
    assert games.best_response_set(pd, 0, (1,)) == (1,)
    assert games.deviation_incentive(pd, (1, 1), 0) == 0.0


def test_effort_game(effort):
    report = games.detect_cooperation_dilemma(effort)
    assert report.sw_profile == (1, 1, 1)
    assert report.sw_total == 3.0
    assert [p.gain for p in report.incentives] == [0.33333333333333326] * 3
    assert [p.witness for p in report.incentives] == [0, 0, 0]
    nash = [p for p in games.enumerate_profiles(effort) if games.is_nash(effort, p)]
    assert nash == [(0, 0, 0)]
    assert games.payoffs_at(effort, (0, 1, 1)) == (
        1.3333333333333333,
        0.33333333333333326,
        0.33333333333333326,
    )


def test_welfare_tie_breaks_lexicographically():
    # all profile sums equal -> the C-order argmax must pick (0, 0)
    game = games.game_from_table(
        [["a", "b"], ["a", "b"]],
        {(0, 0): [1, 1], (0, 1): [2, 0], (1, 0): [0, 2], (1, 1): [1, 1]},
    )
    assert games.social_welfare_optimum(game) == (0, 0)
    report = games.detect_cooperation_dilemma(game)
    assert not report.has_dilemma


def test_no_dilemma_when_optimum_is_nash():
    game = games.game_from_table(
        [["x", "y"], ["x", "y"]],
        {(0, 0): [2, 2], (0, 1): [0, 0], (1, 0): [0, 0], (1, 1): [1, 1]},
    )
    report = games.detect_cooperation_dilemma(game)
    assert not report.has_dilemma
    assert report.dilemma_players == ()
    assert all(p.witness is None for p in report.incentives)


def test_payoffs_are_read_only(pd):
    with pytest.raises(ValueError):
        pd.payoffs[0, 0, 0] = 99.0


def test_validation_errors():
    with pytest.raises(games.GameFormatError):
        games.game_from_table([["a", "a"]], {(0,): [1], (1,): [1]})  # duplicate action
    with pytest.raises(games.GameFormatError):
        games.game_from_table([[]], {})  # empty action set
    with pytest.raises(games.GameFormatError):
        games.game_from_table([["a", "b"]], {(0,): [1]})  # missing profile
    with pytest.raises(games.GameFormatError):
        games.game_from_table(
            [["a", "b"]], {(0,): [1], (1,): [float("nan")]}
        )  # non-finite payoff


def test_profile_checks(pd):
    with pytest.raises(ValueError):
        games.payoffs_at(pd, (0,))
    with pytest.raises(ValueError):
        games.payoffs_at(pd, (0, 2))


def test_json_round_trip(pd, tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(game_to_dict(pd)))
    loaded = games.load_game(path)
    assert loaded.action_names == pd.action_names
    assert np.array_equal(loaded.payoffs, pd.payoffs)
    # the table form is deterministic
    assert json.dumps(game_to_dict(loaded)) == path.read_text()


def test_profile_keys(pd):
    assert games.profile_key(pd, (1, 0)) == "D,C"
    assert games.parse_profile(pd, "D,C") == (1, 0)
    with pytest.raises(games.GameFormatError):
        games.parse_profile(pd, "D")
    with pytest.raises(games.GameFormatError):
        games.parse_profile(pd, "D,Z")


def test_parse_game_errors():
    good = {
        "players": 2,
        "actions": [["C", "D"], ["C", "D"]],
        "utilities": {"C,C": [3, 3], "C,D": [0, 5], "D,C": [5, 0], "D,D": [1, 1]},
    }
    games.parse_game(good)

    missing = dict(good, utilities={k: v for k, v in good["utilities"].items() if k != "D,D"})
    with pytest.raises(games.GameFormatError, match="D,D"):
        games.parse_game(missing)

    unknown = dict(good, utilities=dict(good["utilities"], **{"D,E": [0, 0]}))
    with pytest.raises(games.GameFormatError, match="D,E"):
        games.parse_game(unknown)

    with pytest.raises(games.GameFormatError):
        games.parse_game(dict(good, players=3))
    with pytest.raises(games.GameFormatError):
        games.parse_game(dict(good, utilities=dict(good["utilities"], **{"C,C": [3]})))


def test_load_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"players": 1, "actions": [["a"]], "utilities": {"a": [1], "a": [2]}}'
    )
    with pytest.raises(games.GameFormatError, match="duplicate"):
        games.load_game(path)


def test_load_reads_text_with_universal_newlines(tmp_path):
    """A CRLF file is read as text, so a decode error counts characters after
    newline translation, as it always has."""
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{\r\n "players": 2,\r\n "actions": \r\n}\r\n')
    with pytest.raises(games.GameFormatError) as exc:
        games.load_game(path)
    assert str(exc.value) == f"{path}: invalid JSON (Expecting value: line 4 column 1 (char 30))"


def _random_game(rng, num_players, num_actions):
    actions = [
        [f"a{i}{k}" for k in range(num_actions)] for i in range(num_players)
    ]
    shape = (num_actions,) * num_players + (num_players,)
    payoffs = rng.integers(-4, 5, size=shape).astype(float)
    table = {}
    for profile in np.ndindex(*shape[:-1]):
        table[profile] = list(payoffs[profile])
    return games.game_from_table(actions, table)


def test_incentive_properties_random_games():
    rng = np.random.default_rng(20240817)
    for _ in range(150):
        n = int(rng.integers(2, 4))
        game = _random_game(rng, n, int(rng.integers(2, 4)))
        sw = games.social_welfare_optimum(game)
        best_total = max(
            sum(games.payoffs_at(game, p)) for p in games.enumerate_profiles(game)
        )
        assert sum(games.payoffs_at(game, sw)) == best_total
        for profile in games.enumerate_profiles(game):
            gains = [games.deviation_incentive(game, profile, i) for i in range(n)]
            assert all(g >= 0.0 for g in gains)
            assert games.is_nash(game, profile) == all(g == 0.0 for g in gains)
        for i in range(n):
            opp = tuple(a for j, a in enumerate(sw) if j != i)
            brs = games.best_response_set(game, i, opp)
            assert brs
            utilities = [
                games.payoffs_at(game, sw[:i] + (b,) + sw[i + 1 :])[i]
                for b in range(game.payoffs.shape[i])
            ]
            assert all(utilities[b] == max(utilities) for b in brs)

"""Base-game analysis: welfare optimum, deviation incentives, Nash checks,
and the JSON table format."""
import collections
import enum
import json
import math
from typing import NamedTuple

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
    # defecting is player 0's only best response to either action, so it gains nothing at (D, D)
    for opp in (0, 1):
        row = pd.payoffs[:, opp, 0]
        assert np.flatnonzero(row == row.max()).tolist() == [1]
    assert pd.payoffs[:, 1, 0].max() - pd.payoffs[1, 1, 0] == 0.0


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


def test_profile_keys_cache_keeps_the_latest_table(pd):
    # a large game's key table outweighs its payoffs, so parses keep only the latest
    table = game_to_dict(pd)
    games.parse_game(table)
    utilities = {key.replace("C", "X").replace("D", "Y"): u for key, u in table["utilities"].items()}
    games.parse_game({**table, "actions": [["X", "Y"], ["X", "Y"]], "utilities": utilities})
    assert games._profile_keys.cache_info().currsize == 1
    assert games._profile_keys.cache_info().maxsize == 1


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


def pretty(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


TEXTS = ["", "a", "players", "café", "naïve ☃", "\x00\x1f\x7f", "tab\tnew\nline\r",
         'quote " back \\ slash /', "astral \U0001F600 \U00010000", "\u2028\u2029\ud800", "Ω" * 40]
NUMBERS = [0, 1, -1, 2**70, -(2**70), 10**20, 0.0, -0.0, 1.0, -1.5, 0.1, 1e16, 1e-7, 5e-324,
           1.7976931348623157e308, math.inf, -math.inf, math.nan, np.float64(0.1),
           np.float64(-0.0), np.float64(math.inf), np.float64(math.nan), True, False, None]


def random_json(rng, depth=0):
    """A value of every JSON shape: nested dicts, lists and tuples (empty ones
    too) over numbers, bools, None and strings."""
    kind = int(rng.integers(6 if depth < 4 else 2))
    if kind == 0:
        return NUMBERS[int(rng.integers(len(NUMBERS)))]
    if kind == 1:
        return TEXTS[int(rng.integers(len(TEXTS)))]
    items = [random_json(rng, depth + 1) for _ in range(int(rng.integers(4)))]
    if kind in (2, 3):
        return {TEXTS[int(rng.integers(len(TEXTS)))] + str(k): v for k, v in enumerate(items)}
    return items if kind == 4 else tuple(items)


def test_dumps_pretty_matches_json_dumps():
    rng = np.random.default_rng(26)
    for _ in range(2000):
        obj = random_json(rng)
        assert games.dumps_pretty(obj) == pretty(obj)
    for obj in NUMBERS + TEXTS + [[], {}, (), [[]], {"": {}}, [{}, [], ()], {"b": 1, "a": [True, 1]},
                                  {"\U0001F600": 0, "é": 1, "z": 2, "Z": 3, "": 4}]:
        assert games.dumps_pretty(obj) == pretty(obj)


def test_dumps_pretty_writes_subclasses_as_json_dumps_does():
    class Label(str):
        pass

    class Count(int):
        pass

    class Pair(NamedTuple):
        left: float
        right: list

    for obj in (Label("x"), Count(3), enum.IntEnum("Level", "LOW HIGH").HIGH, Pair(0.5, [1]),
                collections.OrderedDict(b=1, a=Label("y")), [np.float64(1e16)],
                {"p": np.float64(0.25), "q": (np.float64(-math.inf),)}):
        assert games.dumps_pretty(obj) == pretty(obj)


@pytest.mark.parametrize("obj", [
    {1: "a"}, {None: 1}, {True: 1}, {1.5: 1}, {(1, 2): 0}, {"a": 1, 2: 3}, [{"ok": {3: 4}}],
    np.int64(1), [np.int64(1)], {"n": np.int64(1)}, {1, 2}, {"s": {1}}, np.bool_(True), b"x",
    object(),
])
def test_dumps_pretty_refuses_what_normsim_never_writes(obj):
    """Non-string keys, which json.dumps would turn into strings, and values
    json.dumps cannot write raise TypeError."""
    with pytest.raises(TypeError):
        games.dumps_pretty(obj)


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


def own_row(game, profile, player):
    """`player`'s payoffs over its own actions, the others held at `profile`."""
    return game.payoffs[profile[:player] + (slice(None),) + profile[player + 1 :] + (player,)]


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
            gains = [own_row(game, profile, i).max() - game.payoffs[profile][i] for i in range(n)]
            assert all(g >= 0.0 for g in gains)
            assert games.is_nash(game, profile) == all(g == 0.0 for g in gains)
        for p in games.detect_cooperation_dilemma(game).incentives:
            utilities = own_row(game, sw, p.player).tolist()
            assert p.gain == max(utilities) - utilities[sw[p.player]]
            assert p.witness == (utilities.index(max(utilities)) if p.gain > 0.0 else None)

"""The game-file parsers and the menu compile against the versions they replaced.

The `ref_*` functions below are the earlier implementations, kept verbatim as
the reference (the sanction-game parser calls `ref_parse_game` in place of
`games.parse_game`). Over seeded valid inputs the current code must build
equal objects, payoff and cost bits included; over seeded malformed inputs it
must raise the same exception class with the same message. The one exception
is a reference crash (see `ref_crashed`), which must be a GameFormatError now.
"""
import contextlib
import copy
import itertools
import json
import math
import operator
from typing import Mapping

import numpy as np
import pytest

from normsim import cli, games, sanctions
from normsim.games import (
    PROFILE_SEPARATOR,
    FiniteGame,
    GameFormatError,
    _is_number,
    _validate_action_names,
)
from normsim.sanctions import (
    AdviceDistribution,
    ClassificationFunction,
    SanctionGame,
    _check_classifiers,
)
from tests.conftest import declaration_menus, sanction_game_to_dict
from test_sanctions_reference import (
    random_advice,
    random_sanction_game,
    ref_verify_correlated_equilibrium,
    same_array,
    same_report,
)

# ---------------------------------------------------------------------------
# Reference: the per-entry parsers and the per-pair menu compile
# ---------------------------------------------------------------------------


def ref_parse_game(obj) -> FiniteGame:
    """Build a game from a parsed JSON object; unknown top-level keys are ignored."""
    if not isinstance(obj, Mapping):
        raise GameFormatError("game description must be a JSON object")
    players = obj.get("players")
    if not isinstance(players, int) or isinstance(players, bool) or players < 1:
        raise GameFormatError("'players' must be a positive integer")
    actions = obj.get("actions")
    if not isinstance(actions, (list, tuple)) or len(actions) != players:
        raise GameFormatError("'actions' must list one action-name array per player")
    for i, per_player in enumerate(actions):
        if not isinstance(per_player, (list, tuple)):
            raise GameFormatError(f"'actions'[{i}] must be an array of names")
    names = _validate_action_names(actions)

    utilities = obj.get("utilities")
    if not isinstance(utilities, Mapping):
        raise GameFormatError("'utilities' must be an object keyed by action profiles")
    counts = tuple(len(p) for p in names)
    expected = {
        PROFILE_SEPARATOR.join(names[i][a] for i, a in enumerate(profile))
        for profile in itertools.product(*(range(c) for c in counts))
    }
    given = set(utilities)
    missing = sorted(expected - given)
    unknown = sorted(given - expected)
    if missing:
        raise GameFormatError(f"'utilities' is missing profiles: {', '.join(missing[:5])}")
    if unknown:
        raise GameFormatError(f"'utilities' has unknown profiles: {', '.join(unknown[:5])}")

    payoffs = np.empty(counts + (players,))
    for key, values in utilities.items():
        if not isinstance(values, (list, tuple)) or len(values) != players:
            raise GameFormatError(f"'utilities'[{key!r}] must list {players} payoffs")
        if not all(_is_number(v) for v in values):
            raise GameFormatError(f"'utilities'[{key!r}] must contain finite numbers")
        profile = tuple(names[i].index(part) for i, part in enumerate(key.split(PROFILE_SEPARATOR)))
        payoffs[profile] = values
    return FiniteGame(names, payoffs)


def ref_parse_sanction_game(obj) -> SanctionGame:
    base = ref_parse_game(obj)
    raw_menus = obj.get("classifiers")
    if not isinstance(raw_menus, (list, tuple)) or len(raw_menus) != base.num_players:
        raise GameFormatError("'classifiers' must list one menu per player")
    menus, targets = [], []  # targets: every sanction's, in file order
    for i, raw_menu in enumerate(raw_menus):
        if not isinstance(raw_menu, (list, tuple)) or not raw_menu:
            raise GameFormatError(f"'classifiers'[{i}] must be a non-empty array")
        menu = []
        for k, raw in enumerate(raw_menu):
            where = f"'classifiers'[{i}][{k}]"
            if not isinstance(raw, Mapping):
                raise GameFormatError(f"{where} must be an object")
            raw_sanctions = raw.get("sanctions")
            if not isinstance(raw_sanctions, (list, tuple)):
                raise GameFormatError(f"{where} needs a 'sanctions' array")
            pairs = set()
            for entry in raw_sanctions:
                if not isinstance(entry, Mapping) or "profile" not in entry or "target" not in entry:
                    raise GameFormatError(f"{where} sanctions need 'profile' and 'target'")
                profile = games.parse_profile(base, entry["profile"])
                target = entry["target"]
                if not isinstance(target, int) or isinstance(target, bool):
                    raise GameFormatError(f"{where} target must be a player index")
                pairs.add((profile, target))
                targets.append(target)
            cost = raw.get("cost", 0.0)
            self_cost = raw.get("self_cost", 0.0)
            if not games._is_number(cost) or not games._is_number(self_cost):
                raise GameFormatError(f"{where} costs must be finite numbers")
            try:
                menu.append(
                    ClassificationFunction(
                        owner=i, sanctions=frozenset(pairs), cost=float(cost), self_cost=float(self_cost)
                    )
                )
            except ValueError as exc:
                raise GameFormatError(f"{where}: {exc}") from exc
        menus.append(tuple(menu))
    try:
        return SanctionGame(base=base, menus=tuple(menus))
    except ValueError as exc:
        if "is not a player" in str(exc):  # it fails at the first menu with a bad target,
            # naming one in its pair set's order; the file's first lies in that menu
            bad = next(t for t in targets if not 0 <= t < base.num_players)
            raise GameFormatError(f"sanction target {bad} is not a player") from exc
        raise GameFormatError(str(exc)) from exc


def ref_parse_advice(obj) -> AdviceDistribution:
    if not isinstance(obj, Mapping) or not isinstance(obj.get("support"), (list, tuple)):
        raise GameFormatError("advice must be an object with a 'support' array")
    support = []
    for k, entry in enumerate(obj["support"]):
        where = f"'support'[{k}]"
        if not isinstance(entry, Mapping):
            raise GameFormatError(f"{where} must be an object")
        indices = entry.get("profile_indices")
        p = entry.get("p")
        if not isinstance(indices, (list, tuple)) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in indices
        ):
            raise GameFormatError(f"{where} needs integer 'profile_indices'")
        if not games._is_number(p):
            raise GameFormatError(f"{where} needs a numeric probability 'p'")
        support.append((tuple(indices), float(p)))
    try:
        return AdviceDistribution(support=tuple(support))
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc


def ref_validate_for(advice, sg):
    for profile, _ in advice.support:
        _check_classifiers(sg, profile)


def ref_cost_arrays(base, menus):
    """`SanctionGame`'s checks and its `self_cost` and `imposed` arrays, pair by pair."""
    menus = tuple(tuple(menu) for menu in menus)
    n, counts = base.num_players, base.num_actions
    if len(menus) != n:
        raise ValueError(f"{len(menus)} menus for {n} players")
    self_costs, imposed = [], []
    for i, menu in enumerate(menus):
        if not menu:
            raise ValueError(f"player {i} has an empty classifier menu")
        if not any(c.is_never for c in menu):
            raise ValueError(f"player {i}'s menu lacks a never-sanction entry")
        issued = np.zeros((len(menu),) + counts, dtype=np.int64)
        costs = np.full((len(menu),) + counts + (n,), -0.0)
        for k, c in enumerate(menu):
            if c.owner != i:
                raise ValueError(
                    f"classifier owned by player {c.owner} placed in player {i}'s menu"
                )
            for profile, target in c.sanctions:
                # checked before indexing: numpy would wrap a negative index
                if not 0 <= target < n:
                    raise ValueError(f"sanction target {target} is not a player")
                if len(profile) != len(counts) or any(
                    not 0 <= a < counts[j] for j, a in enumerate(profile)
                ):
                    raise ValueError(f"sanctioned profile {profile} not in the base game")
                issued[(k,) + profile] += 1
                costs[(k,) + profile + (target,)] = c.cost
        rates = np.array([c.self_cost for c in menu], float).reshape((-1,) + (1,) * len(counts))
        self_costs.append(rates * issued)
        imposed.append(costs)
    return tuple(self_costs), tuple(imposed)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """("ok", result) or ("error", exception class, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return ("error", type(exc), str(exc))


def same_game(a: FiniteGame, b: FiniteGame) -> bool:
    return a.action_names == b.action_names and same_array(a.payoffs, b.payoffs)


def same_sanction_game(a: SanctionGame, b: SanctionGame) -> bool:
    ref_self, ref_imposed = ref_cost_arrays(b.base, b.menus)
    return (
        same_game(a.base, b.base)
        and a.menus == b.menus
        and all(same_array(x, y) for x, y in zip(a.self_cost + a.imposed, ref_self + ref_imposed))
    )


def ref_crashed(ref) -> bool:
    """The reference's crash on a sanction profile that is not a string: an
    AttributeError from `games.parse_profile`, where the current parser raises
    a GameFormatError. (Its other crash, an OverflowError on an integer too
    large for a float, is gone from both: they share `games._is_number`.)"""
    return ref[0] == "error" and ref[1] is AttributeError and ref[2].endswith("attribute 'split'")


def assert_same(new, ref, same):
    if ref_crashed(ref):
        assert new[:2] == ("error", GameFormatError) and "profile must be a" in new[-1], (new, ref)
        return
    assert new[0] == ref[0], (new, ref)
    if new[0] == "ok":
        assert same(new[1], ref[1])
    else:
        assert new[1:] == ref[1:]


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

NAMES = ("C", "D", "rest", "work", "a b", "x-1")
NUMBERS = (0, 1, 3, -2, 0.5, 0.1, 1.3, -0.0, 2.0, 7)


def random_objects(rng):
    """A valid game, sanction-game and advice JSON object sharing one game."""
    players = int(rng.integers(1, 4))
    actions = [list(rng.choice(NAMES, size=int(rng.integers(1, 4)), replace=False))
               for _ in range(players)]
    keys = [",".join(a[k] for a, k in zip(actions, profile))
            for profile in itertools.product(*(range(len(a)) for a in actions))]
    game = {"players": players, "actions": actions, "utilities": {
        key: [NUMBERS[int(rng.integers(len(NUMBERS)))] for _ in range(players)]
        for key in rng.permutation(keys).tolist()
    }}
    classifiers = []
    for owner in range(players):
        menu = [{"sanctions": []}]
        for _ in range(int(rng.integers(0, 4))):
            targets = [t for t in range(players) if t != owner]
            entry = {"sanctions": [
                {"profile": keys[int(rng.integers(len(keys)))],
                 "target": targets[int(rng.integers(len(targets)))]}
                for _ in range(int(rng.integers(0, 5)) if targets else 0)
            ]}
            for name in ("cost", "self_cost"):
                if rng.random() < 0.8:
                    entry[name] = abs(NUMBERS[int(rng.integers(len(NUMBERS)))])
            menu.insert(int(rng.integers(len(menu) + 1)), entry)
        classifiers.append(menu)
    sanction_game = {**copy.deepcopy(game), "classifiers": classifiers}
    rows = int(rng.integers(1, 9))
    weights = rng.choice((0.0, 0.25, 0.5, 1.0, 3.0), size=rows)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    advice = {"support": [
        {"profile_indices": [int(rng.integers(len(menu))) for menu in classifiers], "p": float(w)}
        for w in (weights / weights.sum()).tolist()
    ]}
    return game, sanction_game, advice


BAD_VALUES = (True, False, None, "1", 1.5, -1, 0, 1, 2, 99, float("nan"), float("inf"), [], {}, [1])


def mutate(rng, obj):
    """A copy of `obj` with one value somewhere inside removed, or replaced by a
    bad value or by a copy of another value; or with a list shortened or
    lengthened, a key renamed or an action name changed."""
    obj = copy.deepcopy(obj)
    paths = []

    def walk(node, path):
        paths.append(path)
        items = node.items() if isinstance(node, dict) else enumerate(node) \
            if isinstance(node, list) else ()
        for key, child in items:
            walk(child, path + (key,))

    walk(obj, ())
    path = paths[int(rng.integers(len(paths)))]
    if not path:
        return BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, roll = path[-1], rng.random()
    if roll < 0.1 and isinstance(parent, dict):
        del parent[key]
    elif roll < 0.2 and isinstance(parent[key], list):
        if parent[key] and rng.random() < 0.5:
            parent[key].pop()
        else:
            parent[key].append(copy.deepcopy(parent[key][0]) if parent[key] else 0)
    elif roll < 0.3 and isinstance(parent, dict) and isinstance(key, str):
        parent[key + ",x" if rng.random() < 0.5 else "x"] = parent.pop(key)  # unknown key
    elif roll < 0.4 and isinstance(parent[key], str):
        if rng.random() < 0.5:
            parent[key] = "Z" + parent[key]  # an unknown action name
        else:
            parent[key] += ",C"  # a profile key of the wrong length
    elif roll < 0.55:  # a copy of another node: a sanction list in a never entry, say
        other = obj
        for step in paths[int(rng.integers(1, len(paths)))]:
            other = other[step]
        parent[key] = copy.deepcopy(other)
    else:
        parent[key] = BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]
    return obj


@pytest.mark.parametrize("seed", range(200))
def test_parsers_match_reference(seed):
    rng = np.random.default_rng(seed)
    game, sanction_game, advice = random_objects(rng)
    assert_same(outcome(games.parse_game, game), outcome(ref_parse_game, game), same_game)
    sg = outcome(sanctions.parse_sanction_game, sanction_game)
    assert_same(sg, outcome(ref_parse_sanction_game, sanction_game), same_sanction_game)
    parsed = outcome(sanctions.parse_advice, advice)
    assert_same(parsed, outcome(ref_parse_advice, advice), lambda a, b: a.support == b.support)
    assert sg[0] == parsed[0] == "ok"
    assert_same(outcome(parsed[1].validate_for, sg[1]), outcome(ref_validate_for, parsed[1], sg[1]),
                lambda advised, _: advised.tolist() == [list(p) for p, _ in parsed[1].support])

    for _ in range(8):
        bad = mutate(rng, game)
        assert_same(outcome(games.parse_game, bad), outcome(ref_parse_game, bad), same_game)
        bad = mutate(rng, sanction_game)
        assert_same(outcome(sanctions.parse_sanction_game, bad),
                    outcome(ref_parse_sanction_game, bad), same_sanction_game)
        bad = mutate(rng, advice)
        new, ref = outcome(sanctions.parse_advice, bad), outcome(ref_parse_advice, bad)
        assert_same(new, ref, lambda a, b: a.support == b.support)
        if new[0] == "ok":  # out-of-range or wrong-length index lists fail against the game
            assert_same(outcome(new[1].validate_for, sg[1]),
                        outcome(ref_validate_for, ref[1], sg[1]), lambda a, b: True)


def test_mutations_reach_every_error():
    """The seeded mutations above hit each kind of malformed input."""
    messages = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        game, sanction_game, advice = random_objects(rng)
        sg = sanctions.parse_sanction_game(sanction_game)
        for _ in range(8):
            for parse, obj in ((games.parse_game, game),
                               (sanctions.parse_sanction_game, sanction_game),
                               (sanctions.parse_advice, advice)):
                result = outcome(parse, mutate(rng, obj))
                if result[0] == "ok" and parse is sanctions.parse_advice:
                    result = outcome(result[1].validate_for, sg)
                if result[0] == "error":
                    messages.add(result[2])
    joined = "\n".join(messages)
    for fragment in (
        "must be a positive integer",  # players: wrong type or a bool
        "'actions' must list",
        "must contain finite numbers",  # NaN, Infinity, bools and strings as payoffs
        "'utilities' is missing profiles",
        "'utilities' has unknown profiles",
        "unknown action",  # a sanction profile key naming no action
        "actions for",  # a sanction profile key of the wrong length
        "profile must be a profile key string",  # a number, bool, null, array or object
        "target must be a player index",  # a bool, float or string target
        "is not a player",  # an out-of-range target
        "self-targeting sanctions",
        "costs must be finite numbers",
        "lacks a never-sanction entry",
        "needs integer 'profile_indices'",  # bools or floats as indices
        "needs a numeric probability 'p'",
        "must be finite and >= 0",
        "advice probabilities sum to",
        "has wrong length",  # an index list too short or too long
        "not in player",  # an index outside its menu
    ):
        assert fragment in joined, fragment


HUGE = 10 ** 400  # a JSON integer too large for a float


def test_inputs_the_reference_crashed_on():
    """Non-string sanction profiles and integers too large for a float are
    GameFormatErrors, in the game, the sanction game and the advice."""
    game = {"players": 2, "actions": [["C", "D"], ["C", "D"]],
            "utilities": {"C,C": [3, 3], "C,D": [0, 5], "D,C": [5, 0], "D,D": [1, 1]}}
    sanction_game = {**game, "classifiers": [
        [{"sanctions": []}, {"sanctions": [{"profile": "C,D", "target": 1}], "cost": 3.0}],
        [{"sanctions": []}],
    ]}
    advice = {"support": [{"profile_indices": [1, 0], "p": 1.0}]}
    cases = [(games.parse_game, ref_parse_game, game, ("utilities", "D,D", 1), same_game)]
    cases += [(sanctions.parse_sanction_game, ref_parse_sanction_game, sanction_game, path,
               same_sanction_game)
              for path in (("utilities", "C,D", 0), ("classifiers", 0, 1, "cost"),
                           ("classifiers", 0, 1, "self_cost"),
                           ("classifiers", 0, 1, "sanctions", 0, "profile"))]
    cases.append((sanctions.parse_advice, ref_parse_advice, advice, ("support", 0, "p"),
                  lambda a, b: a.support == b.support))
    for parse, ref_parse, obj, path, same in cases:
        values = (5, 1.5, True, None, [], {}, ["C", "D"]) if path[-1] == "profile" else (HUGE, -HUGE)
        for value in values:
            bad = copy.deepcopy(obj)
            parent = bad
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            new = outcome(parse, bad)
            assert new[:2] == ("error", GameFormatError), (path, value, new)
            assert_same(new, outcome(ref_parse, bad), same)


# ---------------------------------------------------------------------------
# Menus built by hand: the compile's checks and arrays
# ---------------------------------------------------------------------------


def corrupt_menus(rng, sg):
    """sg's menus, in half the cases with up to two faults: an entry of another
    owner, or a pair whose target or profile is out of range (or whose profile
    has the wrong length). Which fault wins then depends on the check order."""
    menus = [list(menu) for menu in sg.menus]
    counts = sg.base.num_actions
    for _ in range(int(rng.integers(3)) if rng.random() < 0.5 else 0):
        i = int(rng.integers(len(menus)))
        k = int(rng.integers(len(menus[i]) + 1))
        if rng.random() < 0.2:
            menus[i].insert(k, sanctions.never_sanction(i + 1))
            continue
        profile = tuple(int(rng.integers(n)) for n in counts)
        target = int(rng.choice([t for t in range(len(counts) + 2) if t != i]))
        bad = [
            (profile, len(counts) + 1 + int(rng.integers(3))),  # target past the last player
            (profile[:-1], target),
            (profile + (0,), target),
            (profile[:-1] + (counts[-1],), target),
            (profile[:-1] + (-1,), target),
            (profile, 10**30),
        ][int(rng.integers(6))]
        c = menus[i][min(k, len(menus[i]) - 1)]
        menus[i][min(k, len(menus[i]) - 1)] = ClassificationFunction(
            c.owner, c.sanctions | {bad}, c.cost, c.self_cost
        )
    return menus


@pytest.mark.parametrize("seed", range(200))
def test_menu_compile_matches_reference(seed):
    rng = np.random.default_rng(seed)
    sg = random_sanction_game(rng)
    menus = corrupt_menus(rng, sg)
    new = outcome(SanctionGame, sg.base, menus)
    ref = outcome(ref_cost_arrays, sg.base, menus)
    assert new[0] == ref[0], (new, ref)
    if new[0] == "ok":
        assert all(same_array(x, y) for x, y in zip(new[1].self_cost + new[1].imposed,
                                                    ref[1][0] + ref[1][1]))
    else:
        assert new[1:] == ref[1:]


def test_advice_by_hand_keeps_its_checks(pd_sg3):
    """Library callers get the same ValueError or TypeError from validate_for as before."""
    for support in (
        (((0, 5), 1.0),),
        (((0, 0), 0.5), ((0, 0, 1), 0.5)),  # rows of different lengths
        (((0,), 0.5), ((1,), 0.5)),  # rows of the same wrong length
        (((0, -1), 1.0),),
        (((1.0, 0), 1.0),),  # not an index
        (((True, 1), 1.0),),  # operator.index accepts a bool
        (((0, 2**63), 1.0),),
        (((), 1.0),),
    ):
        advice = AdviceDistribution(support=support)
        rows = [[int(k) for k in row] for row, _ in advice.support]
        assert_same(outcome(advice.validate_for, pd_sg3), outcome(ref_validate_for, advice, pd_sg3),
                    lambda advised, _: advised.tolist() == rows)


# ---------------------------------------------------------------------------
# CE chunks: groups split across chunks, chunks holding several groups
# ---------------------------------------------------------------------------


def long_advice(rng, sg):
    """Up to 40 rows, duplicates and zero probabilities included."""
    sizes = [len(menu) for menu in sg.menus]
    rows = [tuple(int(rng.integers(s)) for s in sizes) for _ in range(int(rng.integers(1, 41)))]
    weights = rng.choice((0.0, 0.1, 0.3, 0.7, 1.0), size=len(rows))
    if weights.sum() == 0.0:
        weights[0] = 0.7
    return AdviceDistribution(support=tuple(zip(rows, (weights / weights.sum()).tolist())))


@pytest.mark.parametrize("chunk", (1, 2, 3, 5, 8, 13, 64))
def test_ce_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(sanctions, "_CE_CHUNK", chunk)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        sg = random_sanction_game(rng)
        counts = sg.base.num_actions
        for advice in (random_advice(rng, sg), long_advice(rng, sg)):
            base_profile = tuple(int(rng.integers(c)) for c in counts)
            for mode in ("literal", "conditioned"):
                assert same_report(
                    sanctions.verify_correlated_equilibrium(sg, advice, base_profile, mode),
                    ref_verify_correlated_equilibrium(sg, advice, base_profile, mode),
                )


# ---------------------------------------------------------------------------
# Whole-list checks: inputs that pass one pass and fail a later one
# ---------------------------------------------------------------------------


def ref_no_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise GameFormatError(f"duplicate JSON key {key!r}")
        obj[key] = value
    return obj


def sharp_mutate(rng, game, sanction_game, advice):
    """Copies of the three objects with one fault that a whole-list pass lets
    through to a later one: a bool among the advice indices, a float target, a
    string payoff, or an integer too large for a float as a payoff, a cost or
    a probability. Otherwise no fault: some list rows become tuples, as a
    library caller may pass them."""
    game, sanction_game, advice = copy.deepcopy((game, sanction_game, advice))
    rows = advice["support"]
    entries = [e for menu in sanction_game["classifiers"] for c in menu for e in c["sanctions"]]
    classifiers = [c for menu in sanction_game["classifiers"] for c in menu]
    keys = list(game["utilities"])

    def pick(items):
        return items[int(rng.integers(len(items)))]

    kind = int(rng.integers(7))
    if kind == 0:
        row = pick(rows)["profile_indices"]
        row[int(rng.integers(len(row)))] = bool(rng.integers(2))
    elif kind == 1 and entries:
        entry = pick(entries)
        entry["target"] = float(entry["target"])
    elif kind == 2:
        values = (game if rng.random() < 0.5 else sanction_game)["utilities"][pick(keys)]
        values[int(rng.integers(len(values)))] = str(values[0])
    elif kind == 3:
        values = (game if rng.random() < 0.5 else sanction_game)["utilities"][pick(keys)]
        values[int(rng.integers(len(values)))] = HUGE * int(rng.choice((-1, 1)))
    elif kind == 4:
        pick(classifiers)["cost" if rng.random() < 0.5 else "self_cost"] = HUGE
    elif kind == 5:
        pick(rows)["p"] = HUGE
    else:
        for key in keys:
            if rng.random() < 0.5:
                game["utilities"][key] = tuple(game["utilities"][key])
        for row in rows:
            if rng.random() < 0.5:
                row["profile_indices"] = tuple(row["profile_indices"])
    return game, sanction_game, advice


@pytest.mark.parametrize("seed", range(100))
def test_whole_list_checks_match_reference(seed):
    rng = np.random.default_rng(seed)
    game, sanction_game, advice = random_objects(rng)
    sg = sanctions.parse_sanction_game(sanction_game)
    for _ in range(8):
        bad_game, bad_sg, bad_advice = sharp_mutate(rng, game, sanction_game, advice)
        assert_same(outcome(games.parse_game, bad_game), outcome(ref_parse_game, bad_game),
                    same_game)
        assert_same(outcome(sanctions.parse_sanction_game, bad_sg),
                    outcome(ref_parse_sanction_game, bad_sg), same_sanction_game)
        new = outcome(sanctions.parse_advice, bad_advice)
        ref = outcome(ref_parse_advice, bad_advice)
        assert_same(new, ref, lambda a, b: a.support == b.support)
        if new[0] == "ok":
            assert_same(outcome(new[1].validate_for, sg), outcome(ref_validate_for, ref[1], sg),
                        lambda a, b: True)


def test_sharp_mutations_reach_every_fault():
    messages, parsed = set(), 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        objects = random_objects(rng)
        for _ in range(8):
            bad_game, bad_sg, bad_advice = sharp_mutate(rng, *objects)
            for result in (outcome(games.parse_game, bad_game),
                           outcome(sanctions.parse_sanction_game, bad_sg),
                           outcome(sanctions.parse_advice, bad_advice)):
                if result[0] == "error":
                    messages.add(result[2])
                else:
                    parsed += 1
    joined = "\n".join(messages)
    for fragment in ("needs integer 'profile_indices'", "target must be a player index",
                     "must contain finite numbers", "costs must be finite numbers",
                     "needs a numeric probability 'p'"):
        assert fragment in joined, fragment
    assert parsed > 0  # the tuple rows parse


def dumps_with_duplicates(rng, obj):
    """JSON text for `obj` in which some objects, at any depth, repeat a key once or twice."""
    if isinstance(obj, dict):
        items = [(json.dumps(k), dumps_with_duplicates(rng, v)) for k, v in obj.items()]
        for _ in range(int(rng.integers(1, 3)) if items and rng.random() < 0.15 else 0):
            items.insert(int(rng.integers(len(items) + 1)), items[int(rng.integers(len(items)))])
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(dumps_with_duplicates(rng, v) for v in obj) + "]"
    return json.dumps(obj)


@pytest.mark.parametrize("seed", range(60))
def test_duplicate_key_hook_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for obj in random_objects(rng):
        text = dumps_with_duplicates(rng, obj)
        new = outcome(lambda: json.loads(text, object_pairs_hook=games._no_duplicate_keys))
        ref = outcome(lambda: json.loads(text, object_pairs_hook=ref_no_duplicate_keys))
        assert new == ref


def test_duplicate_keys_at_several_depths():
    for text, key in (('{"a": 1, "b": 2, "a": 3}', "a"),
                      ('{"x": {"y": [{"p": 1, "q": 2, "p": 3, "q": 4}]}}', "p"),
                      ('{"s": [{"t": 0}, {"t": 1, "u": 2, "t": 3}]}', "t"),
                      ('[{"k": {"k": {"k": 1, "k": 2}}}]', "k")):
        for hook in (games._no_duplicate_keys, ref_no_duplicate_keys):
            with pytest.raises(GameFormatError, match=f"duplicate JSON key '{key}'"):
                json.loads(text, object_pairs_hook=hook)


def ref_classifier_pairs(owner, sanctions_):
    """`ClassificationFunction`'s sanction set and its checks on it, pair by pair."""
    pairs = frozenset(
        (tuple(map(operator.index, profile)), int(target)) for profile, target in sanctions_
    )
    for profile, target in pairs:
        if target == owner:
            raise ValueError(
                "self-targeting sanctions are expressed through self_cost, "
                f"not the sanction set (player {owner})"
            )
    return pairs


def ref_support(support):
    """`AdviceDistribution`'s support and its checks on it, row by row."""
    support = tuple((tuple(profile), float(p)) for profile, p in support)
    for profile, p in support:
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"probability {p} for {profile} must be finite and >= 0")
    total = sum(p for _, p in support)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"advice probabilities sum to {total}, expected 1")
    return support


def ref_advice_arrays(support):
    """`AdviceDistribution`'s `rows` and `p` by their definition: `rows` when every
    row is a run of ints (no bools) of one length that fits intp, else None."""
    fits = np.iinfo(np.intp)
    indices = [k for profile, _ in support for k in profile]
    ints = all(type(k) is int and fits.min <= k <= fits.max for k in indices)
    rows = None
    if ints and len({len(profile) for profile, _ in support}) <= 1:
        rows = np.array(indices, np.intp).reshape(len(support), -1 if indices else 0)
    return rows, np.array([p for _, p in support], np.float64)


def same_advice_arrays(advice, support) -> bool:
    """`advice` holds read-only arrays that match `ref_advice_arrays(support)` byte for byte."""
    ref_rows, ref_p = ref_advice_arrays(support)
    if (advice.rows is None) != (ref_rows is None):
        return False
    pairs = [(advice.p, ref_p)] + ([] if ref_rows is None else [(advice.rows, ref_rows)])
    return all(not a.flags.writeable and a.dtype == b.dtype and a.shape == b.shape
               and a.tobytes() == b.tobytes() for a, b in pairs)


def odd_value(rng, value):
    """`value` as a numpy int, a bool, a float, or unchanged."""
    return [np.int64(value), bool(value % 2), float(value), value, value][int(rng.integers(5))]


@pytest.mark.parametrize("seed", range(60))
def test_constructors_keep_only_what_is_normalized(seed):
    """Pairs and rows that are not already tuples of ints are rebuilt (or refused)
    exactly as before, at sizes around the eight rows below which a constructor
    once skipped its keep-as-is check; the advice arrays hold the rebuilt rows."""
    rng = np.random.default_rng(seed)
    for size in (0, 1, 7, 8, 9, 30):
        profiles = [tuple(int(a) for a in rng.integers(3, size=3)) for _ in range(size)]
        pairs = [(profile, int(rng.integers(1, 3))) for profile in profiles]
        odd = rng.random() < 0.5 and size
        if odd:
            k = int(rng.integers(size))
            profile, target = pairs[k]
            pairs[k] = [(tuple(odd_value(rng, a) for a in profile), target),
                        (profile, odd_value(rng, target)), (list(profile), target),
                        (profile, target, 0)][int(rng.integers(4))]
        variants = [pairs]
        with contextlib.suppress(TypeError):  # a list profile is not hashable
            variants.append(frozenset(pairs))
        for sanctions_ in variants:
            new = outcome(lambda: ClassificationFunction(0, sanctions_, 1.0).sanctions)
            ref = outcome(ref_classifier_pairs, 0, sanctions_)
            assert new[0] == ref[0] and new[1:] == ref[1:], (new, ref)
            if new[0] == "ok":
                assert {type(x) for p, t in new[1] for x in (*p, t)} <= {int}

        weights = rng.random(size) + (0.0 if size else 1.0)
        rows = [(profile, float(w)) for profile, w in zip(profiles, weights / weights.sum())]
        if odd:
            k = int(rng.integers(size))
            rows[k] = [(list(rows[k][0]), rows[k][1]), (rows[k][0], int(rows[k][1] > 0.5)),
                       (rows[k][0], -0.0), (rows[k][0], float("nan"))][int(rng.integers(4))]
        for support in (tuple(rows), rows):
            new = outcome(AdviceDistribution, support)
            ref = outcome(ref_support, support)
            assert new[0] == ref[0] and (new[1:] == ref[1:] if new[0] == "error" else (
                new[1].support == ref[1] and {type(p) for _, p in new[1].support} <= {float})), (new, ref)
            if new[0] == "ok":
                assert same_advice_arrays(new[1], ref[1])


# ---------------------------------------------------------------------------
# The array parse at its edges: errors, menus and cost bytes as the reference
# ---------------------------------------------------------------------------

EDGE_KEYS = [",".join(p) for p in itertools.product("CDE", repeat=3)]


def edge_sanction_game(pairs):
    """A 3-player, 3-action sanction game whose menus each hold the never entry
    and one classifier of `pairs` distinct (profile, target) pairs."""
    return {
        "players": 3,
        "actions": [["C", "D", "E"]] * 3,
        "utilities": {key: [k % 5, k % 3, 1 - k % 2] for k, key in enumerate(EDGE_KEYS)},
        "classifiers": [[{"sanctions": []}, {"sanctions": [
            {"profile": EDGE_KEYS[k // 2], "target": (owner + 1 + k % 2) % 3} for k in range(pairs)
        ], "cost": 1.5, "self_cost": 0.25}] for owner in range(3)],
    }


def edge_cases():
    """(name, sanction-game object, "ok" or a fragment of the error it raises)."""
    cases = [(f"{size} pairs", edge_sanction_game(size), "ok") for size in (0, 1, 7, 8, 9, 30)]

    def case(name, expect, change):
        obj = edge_sanction_game(9)
        change(obj, obj["classifiers"], obj["classifiers"][0][1])  # player 0's sanctioning entry
        cases.append((name, obj, expect))

    case("a pair twice in one classifier", "ok",
         lambda o, menus, c: c["sanctions"].insert(5, dict(c["sanctions"][2])))
    case("one pair in two classifiers", "ok",
         lambda o, menus, c: menus[0].append({"sanctions": c["sanctions"][1:3], "cost": 2}))
    for name, target, expect in (("the owner", 0, "self-targeting"), ("3", 3, "is not a player"),
                                 ("-1", -1, "is not a player"), ("true", True, "player index"),
                                 ("1.0", 1.0, "player index"), ("huge", HUGE, "is not a player")):
        case(f"target {name}", expect, lambda o, menus, c, t=target: c["sanctions"][4].update(target=t))
    for label in ("cost", "self_cost"):
        for name, value, expect in (
            ("-0.0", -0.0, "ok"), ("0", 0, "ok"), ("3", 3, "ok"), ("1e300 as an int", 10**300, "ok"),
            ("huge", HUGE, "finite numbers"), ("true", True, "finite numbers"),
            ("false", False, "finite numbers"), ("-1", -1, ">= 0"), ("nan", math.nan, "finite numbers"),
        ):
            case(f"{label} {name}", expect, lambda o, menus, c, k=label, v=value: c.update({k: v}))
        case(f"{label} missing", "ok", lambda o, menus, c, k=label: c.pop(k))
    case("no empty classifier", "never-sanction", lambda o, menus, c: menus[1].pop(0))
    case("a fault in menu 0 before a missing never entry in menu 1", "is not a player",
         lambda o, menus, c: (c["sanctions"][0].update(target=5), menus[1].pop(0)))
    case("a missing never entry in menu 0 before a fault in menu 1", "never-sanction",
         lambda o, menus, c: (menus[0].pop(0), menus[1][1]["sanctions"][0].update(target=7)))
    case("tuple rows", "ok", lambda o, menus, c: (
        c.update(sanctions=tuple(c["sanctions"])), menus.__setitem__(2, tuple(menus[2])),
        o.update(classifiers=tuple(menus))))
    for name, value in (("an object", {"profile": "C,C,C", "target": 1}), ("a string", "C,C,C"),
                        ("null", None), ("a number", 1)):
        case(f"sanctions {name}", "'sanctions' array", lambda o, menus, c, v=value: c.update(sanctions=v))
    case("sanctions missing", "'sanctions' array", lambda o, menus, c: c.pop("sanctions"))
    return cases


def same_bytes(a: SanctionGame, b: SanctionGame) -> bool:
    """`a` has `b`'s base and menus, and the cost arrays, sizes and never-sanction
    indices of `b`'s menus compiled pair by pair, byte for byte."""
    arrays = ref_cost_arrays(b.base, b.menus)
    return (
        same_game(a.base, b.base)
        and a.menus == b.menus
        and a.sizes == tuple(map(len, b.menus))
        and a.never == tuple(next(k for k, c in enumerate(m) if c.is_never) for m in b.menus)
        and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                for x, y in zip(a.self_cost + a.imposed, arrays[0] + arrays[1]))
    )


@pytest.mark.parametrize("name, obj, expect", edge_cases(), ids=lambda v: v if type(v) is str else "")
def test_array_parse_edges_match_reference(name, obj, expect):
    new = outcome(sanctions.parse_sanction_game, obj)
    assert_same(new, outcome(ref_parse_sanction_game, obj), same_bytes)
    if expect != "ok":
        assert new[0] == "error" and expect in new[2], new
        return
    assert new[0] == "ok", new
    parsed = new[1]
    rebuilt = SanctionGame(parsed.base, parsed.menus)
    assert same_bytes(rebuilt, parsed) and (rebuilt.sizes, rebuilt.never) == (parsed.sizes, parsed.never)
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip(rebuilt.self_cost + rebuilt.imposed, parsed.self_cost + parsed.imposed))


def test_analyze_builds_no_classifier(tmp_path, monkeypatch, capsys):
    """An analyze request compiles its menus straight from the file; the menus,
    built when first read, equal the reference parser's."""
    obj = edge_sanction_game(0)
    base = sanctions.parse_sanction_game(obj).base
    obj = sanction_game_to_dict(SanctionGame(base, declaration_menus(base, (0, 1, 2), 2.0)))
    game, advice = tmp_path / "sanctions.json", tmp_path / "advice.json"
    game.write_text(json.dumps(obj))
    advice.write_text(json.dumps({"support": [{"profile_indices": [1, 1, 0], "p": 0.5},
                                              {"profile_indices": [0, 1, 1], "p": 0.5}]}))
    built = []
    post_init = ClassificationFunction.__post_init__

    def counted(self):
        built.append(self.owner)
        post_init(self)

    monkeypatch.setattr(ClassificationFunction, "__post_init__", counted)
    for mode in ("literal", "conditioned"):
        code = cli.main(["analyze", str(game), "--sanctions", str(game), "--advice", str(advice),
                         "--mode", mode, "--json"])
        assert code in (0, 1) and json.loads(capsys.readouterr().out)["feasibility"]
    assert built == []
    sg = sanctions.load_sanction_game(game)
    assert built == []
    assert sg.menus == ref_parse_sanction_game(obj).menus
    assert len(built) == 2 * 6  # the reference's six classifiers, then the lazy menus' six


# ---------------------------------------------------------------------------
# Two faults in one file: the scan names the fault the reference names
# ---------------------------------------------------------------------------


def fault_game(rng, players):
    """A valid sanction-game object of `players` players with 1 to 3 actions each,
    whose menus hold the never entry and 1 to 3 classifiers of 0 to 4 valid pairs;
    and its profile keys."""
    actions = [list(rng.choice(NAMES, size=int(rng.integers(1, 4)), replace=False))
               for _ in range(players)]
    keys = [",".join(p) for p in itertools.product(*actions)]
    classifiers = [[{"sanctions": []}] + [
        {"sanctions": [pair(rng, keys, target) for target in valid_targets(rng, owner, players)],
         "cost": 1.5, "self_cost": 0.25}
        for _ in range(int(rng.integers(1, 4)))
    ] for owner in range(players)]
    utilities = {key: [k % 3] * players for k, key in enumerate(keys)}
    return {"players": players, "actions": actions, "utilities": utilities,
            "classifiers": classifiers}, keys


def valid_targets(rng, owner, players):
    others = [t for t in range(players) if t != owner]
    return [others[int(rng.integers(len(others)))] for _ in range(int(rng.integers(5)) if others else 0)]


def pair(rng, keys, target):
    return {"profile": keys[int(rng.integers(len(keys)))], "target": target}


def insert(rng, items, *new):
    """Put `new` into `items` at seeded places, keeping their order."""
    places = sorted(rng.choice(len(items) + len(new), size=len(new), replace=False).tolist())
    for place, item in zip(places, new):
        items.insert(place, item)


def assert_error_as_reference(obj, fragment):
    new = outcome(sanctions.parse_sanction_game, obj)
    assert new == outcome(ref_parse_sanction_game, obj)
    assert new[:2] == ("error", GameFormatError) and fragment in new[2], new
    return new[2]


@pytest.mark.parametrize("seed", range(60))
def test_first_out_of_range_target_as_reference(seed):
    """A classifier holding several distinct out-of-range targets, among valid
    pairs, names the target the reference names: the first in the file, which
    is often not the first in its pair set's order."""
    rng = np.random.default_rng(seed)
    players = 1 + seed % 3
    obj, keys = fault_game(rng, players)
    owner = int(rng.integers(players))
    bad = [-3, -2, -1, players, players + 1, players + 4, 2**70]
    bad = [bad[k] for k in rng.permutation(len(bad))[: int(rng.integers(2, 7))].tolist()]
    sanctions_ = [pair(rng, keys, target) for target in valid_targets(rng, owner, players) + bad]
    menu = obj["classifiers"][owner]
    menu.insert(int(rng.integers(len(menu) + 1)),
                {"sanctions": [sanctions_[k] for k in rng.permutation(len(sanctions_)).tolist()]})
    assert_error_as_reference(obj, "is not a player")


def two_faults(owner, players, key):
    """Each case's name: the fragment of the fault that wins, and how to put both
    faults into a classifier `c` of player `owner`, the first one earlier in the file."""
    far, self_pair = players + 1, {"profile": key, "target": owner}
    return {name: (fragment, put) for name, fragment, put in [
        ("a self target, then a float target", "target must be a player index",
         lambda rng, c: insert(rng, c["sanctions"], self_pair, {"profile": key, "target": float(owner)})),
        ("a negative cost and a self target", "self-targeting",
         lambda rng, c: (c.update(cost=-1), insert(rng, c["sanctions"], self_pair))),
        ("a negative self_cost and a negative cost", ": cost must be finite and >= 0",
         lambda rng, c: c.update(cost=-2, self_cost=-1)),
        ("an out-of-range target, then an unknown profile key", "unknown action",
         lambda rng, c: insert(rng, c["sanctions"], {"profile": key, "target": far},
                               {"profile": "Z" + key, "target": 0})),
        ("an out-of-range target, then a key of the wrong length", "actions for",
         lambda rng, c: insert(rng, c["sanctions"], {"profile": key, "target": far},
                               {"profile": key + ",C", "target": 0})),
        ("an out-of-range target, then a self target", "self-targeting",
         lambda rng, c: insert(rng, c["sanctions"], {"profile": key, "target": far}, self_pair)),
        ("an out-of-range target and a negative cost", ": cost must be finite and >= 0",
         lambda rng, c: (c.update(cost=-0.5), insert(rng, c["sanctions"], {"profile": key, "target": far}))),
        ("an out-of-range target and a string cost", "costs must be finite numbers",
         lambda rng, c: (c.update(cost="1"), insert(rng, c["sanctions"], {"profile": key, "target": far}))),
        ("an out-of-range target, then an entry without a target", "need 'profile' and 'target'",
         lambda rng, c: insert(rng, c["sanctions"], {"profile": key, "target": far}, {"profile": key})),
    ]}


@pytest.mark.parametrize("case", list(two_faults(0, 1, "C")))
@pytest.mark.parametrize("seed", range(6))
def test_two_faults_in_one_classifier_as_reference(case, seed):
    rng = np.random.default_rng(seed)
    players = 1 + seed % 3
    obj, keys = fault_game(rng, players)
    owner = int(rng.integers(players))
    menu = obj["classifiers"][owner]
    fragment, put = two_faults(owner, players, keys[int(rng.integers(len(keys)))])[case]
    put(rng, menu[int(rng.integers(1, len(menu)))])
    assert_error_as_reference(obj, fragment)


@pytest.mark.parametrize("seed", range(40))
def test_a_scan_fault_in_menu_1_wins_over_a_menu_fault_in_menu_0(seed):
    """The never-sanction and target checks run only after every menu is scanned."""
    rng = np.random.default_rng(seed)
    players = 2 + seed % 2
    obj, keys = fault_game(rng, players)
    menu0, menu1 = obj["classifiers"][:2]
    if seed % 4 < 2:  # menu 0 lacks a never-sanction entry
        menu0[0] = {"sanctions": [pair(rng, keys, 1)]}
    else:
        insert(rng, menu0[int(rng.integers(1, len(menu0)))]["sanctions"], pair(rng, keys, -1 - seed % 3))
    c = menu1[int(rng.integers(1, len(menu1)))]
    fault = int(rng.integers(6))
    if fault == 0:
        insert(rng, c["sanctions"], pair(rng, keys, 1))  # player 1's own index
    elif fault == 1:
        insert(rng, c["sanctions"], pair(rng, keys, 0.0))
    elif fault == 2:
        insert(rng, c["sanctions"], {"profile": "Z" + keys[0], "target": 0})
    elif fault == 3:
        c["self_cost"] = -1
    elif fault == 4:
        c["cost"] = None
    else:
        menu1.insert(int(rng.integers(len(menu1) + 1)), [])
    message = assert_error_as_reference(obj, "")
    assert "never-sanction" not in message and "is not a player" not in message, message


# ---------------------------------------------------------------------------
# Advice as arrays: parsed and hand-built, against the reference
# ---------------------------------------------------------------------------

# Each kind of advice, and what its parse or `validate_for` ends in: "ok" or a fragment of the error.
ADVICE_KINDS = {"rectangular": "ok", "long": "ok", "ragged": "has wrong length",
                "zero-width": "has wrong length", "wide": "has wrong length",
                "huge": "not in player", "negative": "not in player", "out of range": "not in player",
                "bool": "needs integer 'profile_indices'", "negative p": "must be finite and >= 0"}


def advice_case(rng, kind, sizes):
    """Index rows and probabilities over menus of `sizes`, with the fault `kind` names."""
    count = 4096 if kind == "long" else int(rng.integers(2, 12))
    rows = np.stack([rng.integers(s, size=count) for s in sizes], axis=1).tolist()
    weights = rng.choice((0.0, 0.1, 0.3, 0.7, 1.0), size=count)
    weights[0] += 0.5
    p = [1 / count] * count if kind == "long" and rng.random() < 0.5 else (weights / weights.sum()).tolist()
    k, j = int(rng.integers(count)), int(rng.integers(len(sizes)))
    if kind == "ragged":
        rows[k] = rows[k] + [0] if rng.random() < 0.5 else rows[k][:-1]
    elif kind == "zero-width":
        rows = [[] for _ in rows]
    elif kind == "wide":
        rows = [row + [0] for row in rows]
    elif kind in ("huge", "negative", "out of range", "bool"):
        rows[k][j] = {"huge": int(rng.choice((-1, 1))) * 2**70, "negative": -1,
                      "out of range": sizes[j], "bool": bool(rng.integers(2))}[kind]
    elif kind == "negative p":
        p[k], p[(k + 1) % count] = -0.25, p[(k + 1) % count] + p[k] + 0.25
    return rows, [0 if q == 0.0 and rng.random() < 0.5 else q for q in p]  # a JSON 0 is an int


def ref_advised(support, sg):
    """`validate_for`'s array by the per-row check it ran before the arrays."""
    return np.array([_check_classifiers(sg, profile) for profile, _ in support], np.intp)


@pytest.mark.parametrize("seed", range(4 * len(ADVICE_KINDS)))
def test_advice_arrays_match_reference(seed):
    """Parsed and hand-built advice hold the reference's rows, probabilities and
    support, and give its `validate_for` array or error and its CE reports."""
    rng = np.random.default_rng(seed)
    kind = list(ADVICE_KINDS)[seed % len(ADVICE_KINDS)]
    sg = sanctions.parse_sanction_game(random_objects(rng)[1])
    rows, p = advice_case(rng, kind, sg.sizes)
    obj = {"support": [{"profile_indices": row, "p": q} for row, q in zip(rows, p)]}
    pairs = list(zip(map(tuple, rows), p))
    base_profile = tuple(int(rng.integers(c)) for c in sg.base.num_actions)
    for new, ref, expect in (
        (outcome(sanctions.parse_advice, obj), outcome(ref_parse_advice, obj), ADVICE_KINDS[kind]),
        (outcome(AdviceDistribution, pairs), outcome(ref_support, pairs),
         "ok" if kind == "bool" else ADVICE_KINDS[kind]),  # operator.index takes a bool
    ):
        assert_same(new, ref, lambda a, b: True)
        if new[0] == "ok":
            advice, support = new[1], ref[1] if type(ref[1]) is tuple else ref[1].support
            assert same_advice_arrays(advice, support)
            assert advice.support == support and {type(q) for _, q in advice.support} == {float}
            new = outcome(advice.validate_for, sg)
            assert_same(new, outcome(ref_advised, support, sg),
                        lambda a, b: a.dtype == np.intp and a.tolist() == b.tolist())
        assert (new[0] == "ok") if expect == "ok" else (expect in new[2]), (kind, new)
        for mode in ("literal", "conditioned") if new[0] == "ok" else ():
            assert same_report(
                sanctions.verify_correlated_equilibrium(sg, advice, base_profile, mode),
                ref_verify_correlated_equilibrium(sg, AdviceDistribution(support), base_profile, mode),
            )


def test_analyze_builds_no_support(tmp_path, monkeypatch, capsys):
    """An analyze request checks its advice on the arrays; `support`, built when
    first read, equals the reference parser's."""
    obj = edge_sanction_game(0)
    base = sanctions.parse_sanction_game(obj).base
    game, advice = tmp_path / "sanctions.json", tmp_path / "advice.json"
    game.write_text(json.dumps(sanction_game_to_dict(SanctionGame(base, declaration_menus(base, (0, 1, 2), 2.0)))))
    rows = [list(profile) for profile in itertools.product((0, 1), repeat=3)] * 8
    advice.write_text(json.dumps({"support": [{"profile_indices": row, "p": 1 / 64} for row in rows]}))
    built = []
    lazy = AdviceDistribution.__dict__["support"]
    monkeypatch.setattr(lazy, "func", lambda self, func=lazy.func: built.append(1) or func(self))
    for mode in ("literal", "conditioned"):
        code = cli.main(["analyze", str(game), "--sanctions", str(game), "--advice", str(advice),
                         "--mode", mode, "--json"])
        assert code in (0, 1) and json.loads(capsys.readouterr().out)["advice"]
    assert built == []
    parsed = sanctions.load_advice(advice)
    assert built == []
    support = parsed.support
    assert len(built) == 1 and parsed.support is support
    assert support == ref_parse_advice(json.loads(advice.read_text())).support

"""Finite normal-form games.

Dense payoff tensors over small named action spaces, plus the solution-concept
helpers the rest of the toolkit builds on: social-welfare optima, pure Nash
checks, and cooperation-dilemma detection, which names each player's deviation
gain and lowest best response at the optimum. Games round-trip through a JSON table format whose utility keys are
comma-joined action names.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

# A pure action profile: one action index per player.
Profile = tuple[int, ...]

PROFILE_SEPARATOR = ","


class GameFormatError(ValueError):
    """A game description (JSON or constructor input) is malformed."""


def _validate_action_names(action_names) -> tuple[tuple[str, ...], ...]:
    names = tuple(tuple(per_player) for per_player in action_names)
    if not names:
        raise GameFormatError("a game needs at least one player")
    for i, per_player in enumerate(names):
        if not per_player:
            raise GameFormatError(f"player {i} has no actions")
        for name in per_player:
            if not isinstance(name, str) or not name:
                raise GameFormatError(f"player {i} has an empty or non-string action name")
            if PROFILE_SEPARATOR in name:
                raise GameFormatError(
                    f"action name {name!r} contains {PROFILE_SEPARATOR!r}, "
                    "which would make profile keys ambiguous"
                )
        if len(set(per_player)) != len(per_player):
            raise GameFormatError(f"player {i} has duplicate action names")
    return names


@dataclass(frozen=True, eq=False)
class FiniteGame:
    """An N-player normal-form game with named actions and a dense payoff tensor.

    The tensor has shape (|A_0|, ..., |A_{n-1}|, n): one leading axis per
    player's action set and a trailing axis selecting whose payoff. It is
    validated, copied, and frozen read-only on construction. Payoffs may be any
    finite numbers; `normsim analyze` notes an input file whose payoffs leave
    [0, 1], and sanctioned payoffs routinely go negative.
    """

    action_names: tuple[tuple[str, ...], ...]  # per player, position = action index
    payoffs: np.ndarray

    def __post_init__(self):
        names = _validate_action_names(self.action_names)
        payoffs = np.asarray(self.payoffs, dtype=np.float64)
        expected = tuple(len(p) for p in names) + (len(names),)
        if payoffs.shape != expected:
            raise GameFormatError(
                f"payoff tensor has shape {payoffs.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(payoffs)):
            raise GameFormatError("payoffs must be finite")
        payoffs = payoffs.copy()
        payoffs.setflags(write=False)
        object.__setattr__(self, "action_names", names)
        object.__setattr__(self, "payoffs", payoffs)

    @property
    def num_players(self) -> int:
        return len(self.action_names)

    @property
    def num_actions(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.action_names)


def game_from_table(action_names, table: Mapping[Profile, Sequence[float]]) -> FiniteGame:
    """Build a game from a {profile: payoff vector} table covering every profile."""
    names = _validate_action_names(action_names)
    counts = tuple(len(p) for p in names)
    payoffs = np.full(counts + (len(names),), np.nan)
    seen = set()
    for profile, values in table.items():
        profile = tuple(profile)
        if profile in seen:
            raise GameFormatError(f"profile {profile} listed twice")
        seen.add(profile)
        payoffs[profile] = values
    if len(seen) != int(np.prod(counts)):
        raise GameFormatError("table does not cover every action profile")
    return FiniteGame(names, payoffs)


def enumerate_profiles(game: FiniteGame) -> Iterator[Profile]:
    """All pure profiles in lexicographic order."""
    return itertools.product(*(range(c) for c in game.num_actions))


def _check_profile(game: FiniteGame, profile: Sequence[int]) -> Profile:
    profile = tuple(profile)
    if len(profile) != game.num_players:
        raise ValueError(f"profile {profile} has wrong length for {game.num_players} players")
    for i, a in enumerate(profile):
        if not 0 <= a < game.num_actions[i]:
            raise ValueError(f"action {a} out of range for player {i}")
    return profile


def payoffs_at(game: FiniteGame, profile: Sequence[int]) -> tuple[float, ...]:
    """The payoff vector at a pure profile."""
    profile = _check_profile(game, profile)
    return tuple(float(x) for x in game.payoffs[profile])


def social_welfare_optimum(game: FiniteGame) -> Profile:
    """The profile maximizing the payoff sum; ties go to the lexicographically first."""
    sums = game.payoffs.sum(axis=-1)
    # np.argmax returns the first maximum in C order, which is lexicographic order.
    flat = int(np.argmax(sums))
    return tuple(int(i) for i in np.unravel_index(flat, sums.shape))


def _check_player(game: FiniteGame, player: int) -> None:
    if not 0 <= player < game.num_players:
        raise ValueError(f"no player {player}")


def _own_row(game: FiniteGame, profile: Profile, player: int) -> np.ndarray:
    """`player`'s payoff over its own actions, the others held at a checked `profile`."""
    return game.payoffs[profile[:player] + (slice(None),) + profile[player + 1 :] + (player,)]


def _incentive(game: FiniteGame, profile: Profile, player: int) -> tuple[float, int]:
    """`player`'s deviation gain at a checked `profile` (its row's maximum minus
    its own payoff) and its lowest best response there."""
    row = _own_row(game, profile, player)
    return float(row.max() - row[profile[player]]), int(np.argmax(row))


def is_nash(game: FiniteGame, profile: Sequence[int]) -> bool:
    """True when no player has a strictly improving unilateral deviation."""
    profile = _check_profile(game, profile)
    return all(_incentive(game, profile, i)[0] == 0.0 for i in range(game.num_players))


@dataclass(frozen=True)
class PlayerIncentive:
    """One player's deviation incentive at the welfare optimum."""

    player: int
    gain: float  # best-response payoff minus the payoff at the optimum
    witness: int | None  # the lowest maximizing deviation when gain > 0, else None


@dataclass(frozen=True)
class DilemmaReport:
    """Where the welfare optimum sits and who would defect from it."""

    sw_profile: Profile
    sw_total: float
    incentives: tuple[PlayerIncentive, ...]
    dilemma_players: tuple[int, ...]

    @property
    def has_dilemma(self) -> bool:
        return bool(self.dilemma_players)


def detect_cooperation_dilemma(game: FiniteGame) -> DilemmaReport:
    """Check whether any player strictly gains by deviating from the welfare optimum."""
    sw = social_welfare_optimum(game)
    incentives = []
    for i in range(game.num_players):
        gain, best = _incentive(game, sw, i)
        incentives.append(PlayerIncentive(i, gain, best if gain > 0.0 else None))
    return DilemmaReport(
        sw_profile=sw,
        sw_total=float(game.payoffs[sw].sum()),
        incentives=tuple(incentives),
        dilemma_players=tuple(p.player for p in incentives if p.gain > 0.0),
    )


# ---------------------------------------------------------------------------
# JSON table format
#
# {"players": 2,
#  "actions": [["C", "D"], ["C", "D"]],
#  "utilities": {"C,C": [3, 3], "C,D": [0, 5], "D,C": [5, 0], "D,D": [1, 1]}}
# ---------------------------------------------------------------------------


def _no_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):  # name the first key that repeats
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise GameFormatError(f"duplicate JSON key {key!r}")
            seen.add(key)
    return obj


def load_json(path, parse=None):
    """Read a JSON file as UTF-8, whatever the locale, and hand the object to `parse`.

    Every failure is one GameFormatError line naming the file: an unreadable
    path, bytes that do not decode as UTF-8 JSON, an object that repeats a key
    (the first repeat is named), or a GameFormatError from `parse`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except OSError as exc:
        raise GameFormatError(f"{path}: {(exc.strerror or str(exc)).lower()}") from exc
    except GameFormatError as exc:  # a duplicate key
        raise GameFormatError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an over-long integer
        raise GameFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return obj if parse is None else parse(obj)
    except GameFormatError as exc:
        raise GameFormatError(f"{path}: {exc}") from exc


def dumps_pretty(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, without the pure-Python
    encoder CPython may fall back to whenever `indent` is set. A subclass of a JSON type
    (numpy.float64) is written as json.dumps writes it; a non-string key raises TypeError."""
    return _WRITERS.get(type(obj), _json_subclass)(obj, "\n")


def _json_array(items, nl: str) -> str:  # nl: a newline and the indent of the opening line
    inner = nl + "  "
    parts = [_WRITERS.get(type(v), _json_subclass)(v, inner) for v in items]
    return "[" + inner + ("," + inner).join(parts) + nl + "]" if parts else "[]"


def _json_object(obj: dict, nl: str) -> str:
    inner = nl + "  "
    parts = [f"{inner}{_ascii(k)}: {_WRITERS.get(type(v), _json_subclass)(v, inner)}"
             for k, v in sorted(obj.items())]
    return "{" + ",".join(parts) + nl + "}" if parts else "{}"


def _json_subclass(value, nl: str) -> str:
    for base, write in _WRITERS.items():  # in json.dumps's isinstance order
        if isinstance(value, base):
            return write(value, nl)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_ascii = json.encoder.encode_basestring_ascii  # C; raises TypeError on a non-string
_WRITERS = {str: lambda s, nl: _ascii(s), int: lambda i, nl: int.__repr__(i),
            float: lambda x, nl: float.__repr__(x) if math.isfinite(x)
            else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity",
            bool: lambda b, nl: "true" if b else "false", type(None): lambda n, nl: "null",
            list: _json_array, tuple: _json_array, dict: _json_object}


def _typed(values, *types) -> bool:
    """Whether each value's exact type is one of `types` (a bool is no int here)."""
    return set(map(type, values)) <= set(types)


def _is_number(x) -> bool:
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def profile_key(game: FiniteGame, profile: Sequence[int]) -> str:
    """Render a profile as its comma-joined action names."""
    profile = _check_profile(game, profile)
    return PROFILE_SEPARATOR.join(
        game.action_names[i][a] for i, a in enumerate(profile)
    )


def parse_profile(game: FiniteGame, key: str) -> Profile:
    """Parse a comma-joined action-name key back into a profile."""
    parts = key.split(PROFILE_SEPARATOR)
    if len(parts) != game.num_players:
        raise GameFormatError(
            f"profile key {key!r} names {len(parts)} actions for {game.num_players} players"
        )
    profile = []
    for i, name in enumerate(parts):
        try:
            profile.append(game.action_names[i].index(name))
        except ValueError:
            raise GameFormatError(f"unknown action {name!r} for player {i}") from None
    return tuple(profile)


def parse_game(obj) -> FiniteGame:
    """Build a game from a parsed JSON object; unknown top-level keys are ignored."""
    return _parse_game(obj)[0]


@functools.lru_cache(maxsize=1)
def _profile_keys(names: tuple[tuple[str, ...], ...]) -> dict[str, int]:
    """Each profile key over the action names `names`, mapped to the C-order index
    of its profile. Only the latest dict is kept, as a large game's keys outweigh its
    payoffs; `cmd_analyze`'s two parses of one game share it: read it, never change it."""
    return {PROFILE_SEPARATOR.join(key): flat for flat, key in enumerate(itertools.product(*names))}


def _parse_game(obj) -> tuple[FiniteGame, dict[str, int]]:
    """The game, and the C-order index of the profile each utility key names."""
    if not isinstance(obj, dict):
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
    if not isinstance(utilities, dict):
        raise GameFormatError("'utilities' must be an object keyed by action profiles")
    counts, keys = tuple(len(p) for p in names), _profile_keys(names)
    missing = sorted(keys.keys() - utilities.keys())
    unknown = sorted(utilities.keys() - keys.keys())
    if missing:
        raise GameFormatError(f"'utilities' is missing profiles: {', '.join(missing[:5])}")
    if unknown:
        raise GameFormatError(f"'utilities' has unknown profiles: {', '.join(unknown[:5])}")

    rows, shape = list(map(utilities.__getitem__, keys)), counts + (players,)
    # whole-list checks, FiniteGame's being the finite one; on a failure the scan names the fault
    if _typed(rows, list, tuple) and set(map(len, rows)) == {players}:
        with contextlib.suppress(OverflowError, GameFormatError):  # OverflowError: a huge int
            if _typed(itertools.chain.from_iterable(rows), int, float):
                return FiniteGame(names, np.array(rows, dtype=np.float64).reshape(shape)), keys
    for key, values in utilities.items():
        if not isinstance(values, (list, tuple)) or len(values) != players:
            raise GameFormatError(f"'utilities'[{key!r}] must list {players} payoffs")
        if not all(_is_number(v) for v in values):
            raise GameFormatError(f"'utilities'[{key!r}] must contain finite numbers")
    return FiniteGame(names, np.array(rows, dtype=np.float64).reshape(shape)), keys


def load_game(path) -> FiniteGame:
    """Load a game from a JSON file, rejecting duplicate keys outright."""
    return load_json(path, parse_game)

"""Finite normal-form games.

Dense payoff tensors over small named action spaces, plus the solution-concept
helpers the rest of the toolkit builds on: social-welfare optima, best
responses, deviation incentives, pure Nash checks, and cooperation-dilemma
detection. Games round-trip through a JSON table format whose utility keys are
comma-joined action names.
"""
from __future__ import annotations

import contextlib
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


def best_response_set(game: FiniteGame, player: int, opponents: Sequence[int]) -> tuple[int, ...]:
    """All payoff-maximizing actions of `player` against fixed opponents.

    `opponents` lists the other players' actions in increasing player order
    (length num_players - 1). `player` is checked first, then the length of
    `opponents`, then their actions in player order. Ties mean exact payoff
    equality; the result is ascending.
    """
    opp = tuple(opponents)
    _check_player(game, player)
    if len(opp) != game.num_players - 1:
        raise ValueError(f"expected {game.num_players - 1} opponent actions, got {len(opp)}")
    row = _own_row(game, _check_profile(game, opp[:player] + (0,) + opp[player:]), player)
    return tuple(int(a) for a in np.flatnonzero(row == row.max()))


def deviation_incentive(game: FiniteGame, profile: Sequence[int], player: int) -> float:
    """Best-response payoff minus current payoff for `player` at `profile` (>= 0)."""
    profile = _check_profile(game, profile)
    _check_player(game, player)
    return _incentive(game, profile, player)[0]


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


def _parse_game(obj) -> tuple[FiniteGame, dict[str, Profile]]:
    """The game, and the profile of each of its utility keys."""
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
    counts = tuple(len(p) for p in names)
    # lexicographic, which is the C order of the payoff tensor
    profiles = {
        PROFILE_SEPARATOR.join(names[i][a] for i, a in enumerate(profile)): profile
        for profile in itertools.product(*(range(c) for c in counts))
    }
    missing = sorted(profiles.keys() - utilities.keys())
    unknown = sorted(utilities.keys() - profiles.keys())
    if missing:
        raise GameFormatError(f"'utilities' is missing profiles: {', '.join(missing[:5])}")
    if unknown:
        raise GameFormatError(f"'utilities' has unknown profiles: {', '.join(unknown[:5])}")

    rows, shape = list(map(utilities.__getitem__, profiles)), counts + (players,)
    # whole-list checks, FiniteGame's being the finite one; on a failure the scan names the fault
    if _typed(rows, list, tuple) and set(map(len, rows)) == {players}:
        with contextlib.suppress(OverflowError, GameFormatError):  # OverflowError: a huge int
            if _typed(itertools.chain.from_iterable(rows), int, float):
                return FiniteGame(names, np.array(rows, dtype=np.float64).reshape(shape)), profiles
    for key, values in utilities.items():
        if not isinstance(values, (list, tuple)) or len(values) != players:
            raise GameFormatError(f"'utilities'[{key!r}] must list {players} payoffs")
        if not all(_is_number(v) for v in values):
            raise GameFormatError(f"'utilities'[{key!r}] must contain finite numbers")
    return FiniteGame(names, np.array(rows, dtype=np.float64).reshape(shape)), profiles


def load_game(path) -> FiniteGame:
    """Load a game from a JSON file, rejecting duplicate keys outright."""
    return load_json(path, parse_game)

"""Sanction games layered on a base finite game.

Alongside its base action, each player picks a classification function from a
finite menu: a set of (profile, target) pairs it deems sanction-worthy, a cost
it imposes on each sanctioned target, and a self-cost it pays per sanction
issued. This module provides:

- the realized per-player sanction cost and the payoff transform that
  subtracts it from the base game,
- the dilemma-resolution test for a transform,
- minimax punishment values and the enforceability report (can a target
  profile be made a pure Nash equilibrium through the menus?),
- correlated advice over joint classifier profiles and its verification,
  in both the unconditional (`literal`) and recommendation-conditioned
  (`conditioned`) senses, as linear constraints over the advice support
  (Papadimitriou & Roughgarden, JACM 2008).

Sanction-game utility is the NEGATIVE of total cost throughout, so "better"
always means "less punished".

A `SanctionGame` compiles each menu once into read-only arrays: `self_cost[i]`,
shape (|M_i|, *A), holds entry k's self-cost times the sanctions it issues at a
profile, and `imposed[i]`, shape (|M_i|, *A, n), the cost it imposes on each
target there. A cost is always summed in one order: own self-cost first, then
each player's imposed cost by increasing index. Unsanctioned cells hold -0.0;
x + -0.0 == x bit for bit, so a sum may run over every player, owner included.

JSON format (docs/config.md): a sanction-game file is a game file plus
"classifiers", one menu per player of {"sanctions": [{"profile": "C,D",
"target": 1}], "cost", "self_cost"} entries; an advice file is {"support":
[{"profile_indices": [1, 1], "p": 1.0}]}. Each input is checked once: profile
keys are looked up in the game parser's key table, advice rows are checked in
whole-list passes, and constructors keep the pairs and rows the parser built.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import games
from .games import FiniteGame, GameFormatError, Profile

# One menu index per player.
ClassifierProfile = tuple[int, ...]

# Slack for the weak correlated-equilibrium inequality.
CE_TOLERANCE = 1e-9

# Witness-search blocks start small, so an early witness is cheap, and double
# up to a cap that bounds their memory; a CE chunk holds at most _CE_CHUNK costs.
_FIRST_BLOCK, _MAX_BLOCK, _CE_CHUNK = 64, 1 << 14, 1 << 15


@dataclass(frozen=True)
class ClassificationFunction:
    """One player's sanctioning rule.

    `sanctions` holds (base profile, target player) pairs: whenever play lands
    on that profile, the owner imposes `cost` on the target and pays
    `self_cost` for issuing the sanction.
    """

    owner: int
    sanctions: frozenset[tuple[Profile, int]]
    cost: float  # imposed on each sanctioned target at a matching profile
    self_cost: float = 0.0  # paid by the owner per sanction issued

    def __post_init__(self):
        pairs = self.sanctions
        if not _normalized(pairs, frozenset, int):
            pairs = frozenset(
                (tuple(map(operator.index, profile)), int(target)) for profile, target in pairs
            )
        if self.owner < 0:
            raise ValueError("owner must be a player index")
        if self.owner in map(operator.itemgetter(1), pairs):
            raise ValueError(
                "self-targeting sanctions are expressed through self_cost, "
                f"not the sanction set (player {self.owner})"
            )
        for value, label in ((self.cost, "cost"), (self.self_cost, "self_cost")):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{label} must be finite and >= 0, got {value}")
            object.__setattr__(self, label, value + 0.0)  # -0.0 would sign a zero minimax
        object.__setattr__(self, "sanctions", pairs)

    @property
    def is_never(self) -> bool:
        return not self.sanctions


def _normalized(pairs, kind: type, second: type) -> bool:
    """Whether a constructor can keep `pairs`, a `kind` of (tuple of ints, `second`)
    pairs, as it is. Fewer than 8 are rebuilt, which is faster than checking them."""
    if type(pairs) is not kind or len(pairs) < 8 or not games._typed(pairs, tuple):
        return False
    flat = list(itertools.chain.from_iterable(pairs))
    return (
        set(map(len, pairs)) == {2}
        and games._typed(flat[::2], tuple)
        and games._typed(flat[1::2], second)
        and games._typed(itertools.chain.from_iterable(flat[::2]), int)
    )


def never_sanction(owner: int) -> ClassificationFunction:
    """The empty classifier: sanctions nobody, costs nothing."""
    return ClassificationFunction(owner=owner, sanctions=frozenset(), cost=0.0, self_cost=0.0)


@dataclass(frozen=True, eq=False)
class SanctionGame:
    """A base game plus one finite classifier menu per player.

    Every menu must contain a never-sanction entry, so refusing to punish is
    always an available strategy. The menus are compiled into the read-only
    cost arrays `self_cost` and `imposed` described in the module docstring.
    """

    base: FiniteGame
    menus: tuple[tuple[ClassificationFunction, ...], ...]
    self_cost: tuple[np.ndarray, ...] = field(init=False, repr=False)
    imposed: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        menus = tuple(tuple(menu) for menu in self.menus)
        n, counts = self.base.num_players, self.base.num_actions
        if len(menus) != n:
            raise ValueError(f"{len(menus)} menus for {n} players")
        self_costs, imposed = [], []
        for i, menu in enumerate(menus):
            if not menu:
                raise ValueError(f"player {i} has an empty classifier menu")
            if not any(c.is_never for c in menu):
                raise ValueError(f"player {i}'s menu lacks a never-sanction entry")
            # one row (entry, target, *profile) per sanctioned pair, range-checked
            # before any indexing: numpy would wrap a negative index
            rows = [(k, t, *profile) for k, c in enumerate(menu) for profile, t in c.sanctions]
            try:
                pairs = np.array(rows, dtype=np.intp).reshape(len(rows), 2 + n)
                valid = all(c.owner == i for c in menu) and bool(
                    ((pairs >= 0) & (pairs < (len(menu), n) + counts)).all()
                )
            except (ValueError, OverflowError):  # a profile of the wrong length, a huge index
                valid = False
            if not valid:  # raise the first fault, in menu order
                for c in menu:
                    if c.owner != i:
                        raise ValueError(
                            f"classifier owned by player {c.owner} placed in player {i}'s menu"
                        )
                    for profile, target in c.sanctions:
                        if not 0 <= target < n:
                            raise ValueError(f"sanction target {target} is not a player")
                        if len(profile) != n or any(
                            not 0 <= a < counts[j] for j, a in enumerate(profile)
                        ):
                            raise ValueError(f"sanctioned profile {profile} not in the base game")
            k, target, profile = pairs[:, 0], pairs[:, 1], tuple(pairs[:, 2:].T)
            issued = np.zeros((len(menu),) + counts, dtype=np.int64)
            np.add.at(issued, (k,) + profile, 1)
            costs = np.full((len(menu),) + counts + (n,), -0.0)
            costs[(k,) + profile + (target,)] = np.array([c.cost for c in menu])[k]
            rates = np.array([c.self_cost for c in menu], float).reshape((-1,) + (1,) * n)
            self_costs.append(rates * issued)
            imposed.append(costs)
        for array in self_costs + imposed:
            array.setflags(write=False)
        object.__setattr__(self, "menus", menus)
        object.__setattr__(self, "self_cost", tuple(self_costs))
        object.__setattr__(self, "imposed", tuple(imposed))

    @property
    def num_players(self) -> int:
        return self.base.num_players


def _check_classifiers(sg: SanctionGame, classifiers: Sequence[int]) -> ClassifierProfile:
    cls = tuple(map(operator.index, classifiers))
    if len(cls) != sg.num_players:
        raise ValueError(f"classifier profile {cls} has wrong length")
    for i, c in enumerate(cls):
        if not 0 <= c < len(sg.menus[i]):
            raise ValueError(f"classifier index {c} not in player {i}'s menu")
    return cls


def enumerate_classifier_profiles(sg: SanctionGame) -> Iterator[ClassifierProfile]:
    """All joint menu selections in lexicographic order."""
    return itertools.product(*(range(len(menu)) for menu in sg.menus))


def _cost(sg: SanctionGame, cls, profile: tuple, player: int) -> np.ndarray:
    """`player`'s sanction cost at `profile` under `cls`, summed in the fixed order.
    Entries of `cls` and `profile` may be index arrays that broadcast together."""
    cost = sg.self_cost[player][(cls[player],) + profile]
    for k, imposed in zip(cls, sg.imposed):
        cost = cost + imposed[(k,) + profile + (player,)]
    return cost


def sanction_cost(
    sg: SanctionGame, classifiers: Sequence[int], base_profile: Sequence[int], player: int
) -> float:
    """Total sanction cost borne by `player` at a profile: own issuing self-costs
    plus every other player's sanction that names `player` there."""
    base_profile = games._check_profile(sg.base, base_profile)
    return float(_cost(sg, _check_classifiers(sg, classifiers), base_profile, player))


def apply_transform(sg: SanctionGame, classifiers: Sequence[int]) -> FiniteGame:
    """The base game with each player's realized sanction cost subtracted everywhere."""
    cls = _check_classifiers(sg, classifiers)
    cost = np.stack([_cost(sg, cls, (...,), i) for i in range(sg.num_players)], axis=-1)
    return FiniteGame(sg.base.action_names, sg.base.payoffs - cost)


def is_dilemma_resolving(base: FiniteGame, transformed: FiniteGame, player: int) -> bool:
    """True iff `player` has a profitable deviation from the base welfare optimum
    and every such deviation is strictly losing in the transformed game."""
    if base.num_actions != transformed.num_actions:
        raise ValueError("base and transformed games have different shapes")
    games._check_player(base, player)
    sw = games.social_welfare_optimum(base)
    base_u, trans_u = games._own_row(base, sw, player), games._own_row(transformed, sw, player)
    profitable = base_u > base_u[sw[player]]
    return bool(profitable.any() and (trans_u[profitable] < trans_u[sw[player]]).all())


def sanction_minimax(sg: SanctionGame, base_profile: Sequence[int], player: int) -> float:
    """min over the others' classifiers of the best sanction utility `player`
    can still secure at `base_profile`: -(min own self-cost + max cost each
    other imposes), summed in the fixed order. Float addition is monotone in
    each operand, so this equals full menu enumeration bit for bit."""
    base_profile = games._check_profile(sg.base, base_profile)
    menu_axis = (slice(None),) + base_profile
    cost = sg.self_cost[player][menu_axis].min()
    for imposed in sg.imposed:
        cost += imposed[menu_axis + (player,)].max()
    return float(-cost)


@dataclass(frozen=True)
class PlayerFeasibility:
    """Enforceability numbers for one player at a target profile."""

    player: int
    delta: float  # deviation incentive at the target, in the base game
    minimax: float  # sanction-game minimax utility at the punishing profile
    punish_profile: Profile
    enforceable: bool  # delta == 0, or -delta > minimax


@dataclass(frozen=True)
class FeasibilityReport:
    target: Profile
    players: tuple[PlayerFeasibility, ...]
    enforceable: bool
    witness: ClassifierProfile | None  # transform making the target Nash, when found


def find_nash_witness(sg: SanctionGame, target: Sequence[int]) -> ClassifierProfile | None:
    """Exhaustively search the menus for a classifier profile whose transform
    makes `target` a pure Nash equilibrium. The all-never profile is tried
    first so an already-stable target gets the zero-sanction witness; the rest
    follow in lexicographic order, in blocks, judged at the deviations only."""
    target = games._check_profile(sg.base, target)

    def nash(cls) -> np.ndarray:
        """Which classifier profiles (one index array per player) keep `target` Nash."""
        ok, cls = True, [k[:, None] for k in cls]
        for i, t in enumerate(target):
            dev = target[:i] + (np.arange(sg.base.num_actions[i]),) + target[i + 1 :]
            utils = sg.base.payoffs[dev + (i,)] - _cost(sg, cls, dev, i)
            ok = ok & (utils <= utils[:, t, None]).all(axis=1)
        return ok

    never = non_resolving_witness(sg)
    if nash(np.array(never)[:, None])[0]:
        return never
    sizes = tuple(len(menu) for menu in sg.menus)
    total = math.prod(sizes)
    start, block = 0, _FIRST_BLOCK
    while start < total:
        cls = np.unravel_index(np.arange(start, min(start + block, total)), sizes)
        hits = np.flatnonzero(nash(cls))
        if hits.size:
            return tuple(int(k[hits[0]]) for k in cls)
        start, block = start + block, min(2 * block, _MAX_BLOCK)
    return None


def theorem1_feasibility(sg: SanctionGame, target: Sequence[int]) -> FeasibilityReport:
    """Can the menus make `target` a Nash equilibrium?

    Per player: delta is the base-game deviation incentive at the target;
    minimax is the punishment floor the others can force at that player's
    punishing profile (its cheapest profitable deviation, or the target itself
    when there is none). The player is enforceable when delta == 0 or the
    required punishment payoff -delta strictly exceeds the floor. When every
    player is enforceable the report carries a brute-force witness.
    """
    target = games._check_profile(sg.base, target)
    players = []
    for i in range(sg.num_players):
        delta, best = games._incentive(sg.base, target, i)
        punish = target if delta == 0.0 else target[:i] + (best,) + target[i + 1 :]
        minimax = sanction_minimax(sg, punish, i)
        players.append(PlayerFeasibility(i, delta, minimax, punish, delta == 0.0 or -delta > minimax))
    all_enforceable = all(p.enforceable for p in players)
    witness = find_nash_witness(sg, target) if all_enforceable else None
    return FeasibilityReport(
        target=target, players=tuple(players), enforceable=all_enforceable, witness=witness
    )


def non_resolving_witness(sg: SanctionGame) -> ClassifierProfile:
    """The all-never-sanction profile: its transform is the identity, so it never
    resolves a dilemma (and never changes any Nash verdict)."""
    return tuple(next(k for k, c in enumerate(menu) if c.is_never) for menu in sg.menus)


def declaration_classifier(
    base: FiniteGame, owner: int, target_profile: Sequence[int], cost: float, self_cost: float = 0.0
) -> ClassificationFunction:
    """A classifier that sanctions every other player at every profile where that
    player's own component deviates from `target_profile`."""
    target_profile = games._check_profile(base, target_profile)
    pairs = frozenset(
        (profile, t)
        for profile in games.enumerate_profiles(base)
        for t in range(base.num_players)
        if t != owner and profile[t] != target_profile[t]
    )
    return ClassificationFunction(owner=owner, sanctions=pairs, cost=cost, self_cost=self_cost)


def exhaustive_menu(
    base: FiniteGame, owner: int, cost: float, self_cost: float = 0.0, limit: int = 4096
) -> tuple[ClassificationFunction, ...]:
    """Classifiers over the (profile, target) pairs available to `owner`, in
    smallest-sanction-set-first (then lexicographic) order, truncated to the
    first `limit` entries. The full set has 2^(|profiles| * (players - 1))
    members, so the cap is what keeps tiny-game searches tiny."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    pairs = sorted(
        (profile, t)
        for profile in games.enumerate_profiles(base)
        for t in range(base.num_players)
        if t != owner
    )
    sets = itertools.chain.from_iterable(
        itertools.combinations(pairs, size) for size in range(len(pairs) + 1)
    )
    return tuple(
        ClassificationFunction(owner=owner, sanctions=frozenset(c), cost=cost, self_cost=self_cost)
        for c in itertools.islice(sets, limit)
    )


# ---------------------------------------------------------------------------
# Correlated advice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdviceDistribution:
    """A distribution over joint classifier profiles (menu indices)."""

    support: tuple[tuple[ClassifierProfile, float], ...]

    def __post_init__(self):
        support = self.support
        if not _normalized(support, tuple, float):
            support = tuple((tuple(profile), float(p)) for profile, p in support)
        probabilities = list(map(operator.itemgetter(1), support))
        if not all(map(math.isfinite, probabilities)) or min(probabilities, default=0.0) < 0.0:
            for profile, p in support:  # name the first fault
                if not math.isfinite(p) or p < 0.0:
                    raise ValueError(f"probability {p} for {profile} must be finite and >= 0")
        total = sum(probabilities)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"advice probabilities sum to {total}, expected 1")
        object.__setattr__(self, "support", support)

    def validate_for(self, sg: SanctionGame) -> np.ndarray:
        """The advised menu indices as one (rows, players) array. ValueError
        names the first row that is not a classifier profile of `sg`."""
        sizes = [len(menu) for menu in sg.menus]
        with contextlib.suppress(ValueError):  # rows of different lengths
            advised = np.array([profile for profile, _ in self.support])
            if advised.dtype.kind in "iu" and advised.shape[1:] == (len(sizes),):
                if ((advised >= 0) & (advised < sizes)).all():
                    return advised.astype(np.intp, copy=False)
        return np.array([_check_classifiers(sg, cls) for cls, _ in self.support], np.intp)


def advice_point_mass(classifiers: Sequence[int]) -> AdviceDistribution:
    return AdviceDistribution(support=((tuple(classifiers), 1.0),))


@dataclass(frozen=True)
class CEReport:
    """Outcome of a correlated-equilibrium check over sanction advice."""

    mode: str
    holds: bool
    worst_violation: float  # largest positive margin; 0.0 when the advice holds
    violating_player: int | None
    violating_deviation: int | None  # menu index of the profitable alternative
    violating_recommendation: int | None  # conditioned mode only


def verify_correlated_equilibrium(
    sg: SanctionGame,
    advice: AdviceDistribution,
    base_profile: Sequence[int],
    mode: str = "literal",
) -> CEReport:
    """Check that no player gains by deviating from advised classifiers.

    `literal` compares obedience against each fixed alternative classifier,
    unconditionally (the printed, coarse-correlated form). `conditioned`
    runs the standard correlated-equilibrium check: the deviation may depend
    on the recommended classifier. Inequalities are weak with CE_TOLERANCE
    slack; utilities are sanction-game utilities at `base_profile`.
    """
    if mode not in ("literal", "conditioned"):
        raise ValueError(f"unknown mode {mode!r}")
    base_profile = games._check_profile(sg.base, base_profile)
    advised = advice.validate_for(sg)
    p = np.array([q for _, q in advice.support])
    conditioned = mode == "conditioned"

    worst, who, dev, rec = 0.0, None, None, None
    for i in range(sg.num_players):
        menu = np.arange(len(sg.menus[i]))
        if conditioned:  # one group per recommendation, in advice order within it
            rows = np.flatnonzero(p > 0.0)
            rows = rows[np.argsort(advised[rows, i], kind="stable")]
            opens = np.concatenate(([True], np.diff(advised[rows, i]) != 0))
            group, recommended = np.cumsum(opens) - 1, advised[rows[opens], i]
        else:  # one group of every row
            rows, group = np.arange(len(p)), np.zeros(len(p), np.intp)
        # margins[g, d] sums p * (utility switched to d - utility as advised) over
        # group first + g row after row (np.add.at adds in index order; numpy's
        # pairwise `sum` would change the last bits). A chunk's last group may
        # go on in the next chunk, so its margins are carried over.
        first, carry = 0, np.zeros(len(menu))
        step = max(1, _CE_CHUNK // len(menu))
        for start in range(0, len(rows), step):
            chunk, g = rows[start : start + step], group[start : start + step] - first
            cls = [advised[chunk, j, None] for j in range(sg.num_players)]
            advised_u = -_cost(sg, cls, base_profile, i)
            cls[i] = menu
            terms = p[chunk, None] * (-_cost(sg, cls, base_profile, i) - advised_u)
            margins = np.zeros((g[-1] + 1, len(menu)))
            margins[0] = carry
            np.add.at(margins.reshape(-1), (g[:, None] * len(menu) + menu).ravel(), terms.ravel())
            done = margins if start + step >= len(rows) else margins[:-1]
            if done.size:
                # the first maximum: lowest recommendation, then lowest deviation
                g_best, d = divmod(int(np.argmax(done)), len(menu))
                if done[g_best, d] > worst:
                    worst, who, dev = float(done[g_best, d]), i, d
                    rec = int(recommended[first + g_best]) if conditioned else None
            first, carry = first + len(margins) - 1, margins[-1]
    if worst <= CE_TOLERANCE:
        return CEReport(mode, True, 0.0, None, None, None)
    return CEReport(mode, False, worst, who, dev, rec)


def institution_environment_check(
    sg: SanctionGame, institutions: Sequence[AdviceDistribution], base_profile: Sequence[int]
) -> bool:
    """True iff at least one advice distribution passes the literal check."""
    return any(
        verify_correlated_equilibrium(sg, advice, base_profile, mode="literal").holds
        for advice in institutions
    )


# ---------------------------------------------------------------------------
# JSON format (see the module docstring)
# ---------------------------------------------------------------------------


def parse_sanction_game(obj) -> SanctionGame:
    base, profiles = games._parse_game(obj)
    raw_menus = obj.get("classifiers")
    if not isinstance(raw_menus, (list, tuple)) or len(raw_menus) != base.num_players:
        raise GameFormatError("'classifiers' must list one menu per player")
    menus = []
    for i, raw_menu in enumerate(raw_menus):
        if not isinstance(raw_menu, (list, tuple)) or not raw_menu:
            raise GameFormatError(f"'classifiers'[{i}] must be a non-empty array")
        menu = []
        for k, raw in enumerate(raw_menu):
            where = f"'classifiers'[{i}][{k}]"
            if not isinstance(raw, dict):
                raise GameFormatError(f"{where} must be an object")
            raw_sanctions = raw.get("sanctions")
            if not isinstance(raw_sanctions, (list, tuple)):
                raise GameFormatError(f"{where} needs a 'sanctions' array")
            pairs = set()
            for entry in raw_sanctions:
                if not isinstance(entry, dict) or "profile" not in entry or "target" not in entry:
                    raise GameFormatError(f"{where} sanctions need 'profile' and 'target'")
                key, target = entry["profile"], entry["target"]
                if type(key) is not str:
                    raise GameFormatError(f"{where} profile must be a profile key string")
                # parse_profile raises the error for a key that names no profile
                profile = profiles.get(key) or games.parse_profile(base, key)
                if type(target) is not int:  # JSON integers only: not bool, not float
                    raise GameFormatError(f"{where} target must be a player index")
                pairs.add((profile, target))
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
        raise GameFormatError(str(exc)) from exc


def load_sanction_game(path) -> SanctionGame:
    return games.load_json(path, parse_sanction_game)


def parse_advice(obj) -> AdviceDistribution:
    raw = obj.get("support") if isinstance(obj, dict) else None
    if not isinstance(raw, (list, tuple)):
        raise GameFormatError("advice must be an object with a 'support' array")
    try:  # whole-list checks; when one fails, a scan names the first fault
        indices = list(map(operator.itemgetter("profile_indices"), raw))
        p = list(map(operator.itemgetter("p"), raw))
        checked = (
            games._typed(raw, dict) and games._typed(indices, list, tuple)
            and games._typed(itertools.chain.from_iterable(indices), int)
            and games._typed(p, int, float) and all(map(math.isfinite, p))
        )
    except (KeyError, TypeError, OverflowError):  # OverflowError: an int too large for a float
        checked = False
    support = tuple(zip(map(tuple, indices), map(float, p))) if checked else []
    for k, entry in enumerate(() if checked else raw):
        if not isinstance(entry, dict):
            raise GameFormatError(f"'support'[{k}] must be an object")
        indices, p = entry.get("profile_indices"), entry.get("p")
        if not isinstance(indices, (list, tuple)) or not all(type(i) is int for i in indices):
            raise GameFormatError(f"'support'[{k}] needs integer 'profile_indices'")
        if not games._is_number(p):
            raise GameFormatError(f"'support'[{k}] needs a numeric probability 'p'")
        support.append((indices, p))
    try:
        return AdviceDistribution(support=support)
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc


def load_advice(path) -> AdviceDistribution:
    return games.load_json(path, parse_advice)

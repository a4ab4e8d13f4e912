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
[{"profile_indices": [1, 1], "p": 1.0}]}. Menus are parsed in one scan, entry by
entry, straight into the compile's table of (entry, profile, target) pairs; the
scan names the first fault, and a parsed game builds its classifier objects only
when `menus` is read. Advice and the payoffs keep whole-list checks, with a
per-row scan to name a fault. Advice is held as an index array and a probability
vector, filled straight from the decoded lists; its `support` tuple is built only
when read.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from dataclasses import dataclass
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
        pairs = frozenset(
            (tuple(map(operator.index, profile)), int(target)) for profile, target in self.sanctions
        )
        if self.owner < 0:
            raise ValueError("owner must be a player index")
        _check_classifier(self.owner, map(operator.itemgetter(1), pairs), self.cost, self.self_cost)
        for label in ("cost", "self_cost"):  # -0.0 would sign a zero minimax
            object.__setattr__(self, label, getattr(self, label) + 0.0)
        object.__setattr__(self, "sanctions", pairs)

    @property
    def is_never(self) -> bool:
        return not self.sanctions


def _check_classifier(owner: int, targets, cost, self_cost) -> None:
    """A classifier's own rules, in this order: no target is its owner, then
    `cost` and `self_cost` are finite and >= 0. ValueError names the first fault."""
    if owner in targets:
        raise ValueError(
            "self-targeting sanctions are expressed through self_cost, "
            f"not the sanction set (player {owner})"
        )
    for value, label in ((cost, "cost"), (self_cost, "self_cost")):
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"{label} must be finite and >= 0, got {value}")


def never_sanction(owner: int) -> ClassificationFunction:
    """The empty classifier: sanctions nobody, costs nothing."""
    return ClassificationFunction(owner=owner, sanctions=frozenset(), cost=0.0, self_cost=0.0)


class SanctionGame:
    """A base game plus one finite classifier menu per player.

    Every menu must contain a never-sanction entry, so refusing to punish is
    always an available strategy. The constructor checks its classifiers in one
    scan in menu order; `parse_sanction_game` scans the JSON menus into the pair
    table without building classifiers. Both end in one compile, which sets
    `num_players`, `sizes` (the menu lengths), `never` (each menu's first
    never-sanction index) and the read-only cost arrays `self_cost` and `imposed`
    of the module docstring.
    """

    def __init__(self, base: FiniteGame, menus: Sequence[Sequence[ClassificationFunction]]):
        menus = tuple(tuple(menu) for menu in menus)
        n, counts = base.num_players, base.num_actions
        if len(menus) != n:
            raise ValueError(f"{len(menus)} menus for {n} players")
        for i, menu in enumerate(menus):  # raise the first fault, in menu order
            if not menu:
                raise ValueError(f"player {i} has an empty classifier menu")
            if not any(c.is_never for c in menu):
                raise ValueError(f"player {i}'s menu lacks a never-sanction entry")
            for c in menu:
                if c.owner != i:
                    raise ValueError(
                        f"classifier owned by player {c.owner} placed in player {i}'s menu"
                    )
                for profile, target in c.sanctions:  # checked before indexing: numpy wraps -1
                    if not 0 <= target < n:
                        raise ValueError(f"sanction target {target} is not a player")
                    if len(profile) != n or not all(0 <= a < k for a, k in zip(profile, counts)):
                        raise ValueError(f"sanctioned profile {profile} not in the base game")
        entries = [c for menu in menus for c in menu]
        # one row (entry, *profile, target) per sanctioned pair, entries numbered over all menus
        rows = [(g, *profile, t) for g, c in enumerate(entries) for profile, t in c.sanctions]
        rows = np.array(rows, dtype=np.intp).reshape(len(rows), 2 + n)
        self.menus = menus  # the property builds only a parsed game's menus
        rates = np.array([(c.cost, c.self_cost) for c in entries], float).reshape(-1, 2).T
        shape = (len(entries),) + counts + (n,)
        self._compile(base, list(map(len, menus)), np.ravel_multi_index(tuple(rows.T), shape), *rates)

    def _compile(self, base: FiniteGame, sizes, codes, cost, self_cost) -> None:
        """Set every field from the pair table: `codes` holds the C-order index of each
        sanctioned pair's (entry, *profile, target), entries numbered over all menus,
        where a repeat counts once; `cost` and `self_cost` hold each entry's rates."""
        n, shape = base.num_players, (len(cost),) + base.num_actions + (base.num_players,)
        codes = np.unique(codes)  # sorted, so each entry's pairs are one run
        entry = codes // math.prod(shape[1:])
        issued = np.bincount(codes // n, minlength=math.prod(shape[:-1])).reshape(shape[:-1])
        imposed = np.full(math.prod(shape), -0.0)
        imposed[codes] = cost[entry]
        self_costs, imposed = self_cost.reshape((-1,) + (1,) * n) * issued, imposed.reshape(shape)
        self_costs.setflags(write=False)
        imposed.setflags(write=False)
        bounds = list(itertools.pairwise([0, *itertools.accumulate(sizes)]))
        is_never = np.bincount(entry, minlength=len(cost)) == 0
        self.base, self.num_players, self.sizes = base, n, tuple(sizes)
        self._table = shape, codes, cost, self_cost
        self.never = tuple(int(np.argmax(is_never[lo:hi])) for lo, hi in bounds)
        self.self_cost = tuple(self_costs[lo:hi] for lo, hi in bounds)
        self.imposed = tuple(imposed[lo:hi] for lo, hi in bounds)

    @functools.cached_property
    def menus(self) -> tuple[tuple[ClassificationFunction, ...], ...]:
        """Each player's classifiers, built from the pair table on first read."""
        shape, codes, cost, rates = self._table
        entry, *profile, target = (index.tolist() for index in np.unravel_index(codes, shape))
        pairs = [[] for _ in cost]
        for g, pair in zip(entry, zip(zip(*profile), target)):
            pairs[g].append(pair)
        owners = np.repeat(np.arange(self.num_players), self.sizes).tolist()
        entries = map(ClassificationFunction, owners, map(frozenset, pairs), cost.tolist(), rates.tolist())
        return tuple(tuple(itertools.islice(entries, size)) for size in self.sizes)


def _check_classifiers(sg: SanctionGame, classifiers: Sequence[int]) -> ClassifierProfile:
    cls = tuple(map(operator.index, classifiers))
    if len(cls) != sg.num_players:
        raise ValueError(f"classifier profile {cls} has wrong length")
    for i, c in enumerate(cls):
        if not 0 <= c < sg.sizes[i]:
            raise ValueError(f"classifier index {c} not in player {i}'s menu")
    return cls


def enumerate_classifier_profiles(sg: SanctionGame) -> Iterator[ClassifierProfile]:
    """All joint menu selections in lexicographic order."""
    return itertools.product(*map(range, sg.sizes))


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
    total = math.prod(sg.sizes)
    start, block = 0, _FIRST_BLOCK
    while start < total:
        cls = np.unravel_index(np.arange(start, min(start + block, total)), sg.sizes)
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
    return sg.never


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


class AdviceDistribution:
    """A distribution over joint classifier profiles (menu indices): the read-only
    float64 vector `p` and, when every row is a run of ints of one length that fits
    intp, the read-only (rows, players) intp array `rows` (else None). `support`,
    the ((index, ...), p) rows, is built from them on first read."""

    def __init__(self, support):
        support = tuple((tuple(profile), float(p)) for profile, p in support)
        profiles = [profile for profile, _ in support]
        flat = list(itertools.chain.from_iterable(profiles))
        self._hold(profiles, flat if games._typed(flat, int) else None, [p for _, p in support])

    def _hold(self, profiles, flat, p) -> None:
        """Set `rows` from the index rows `profiles`, whose indices in row order are
        `flat` (None when one is not an int), and `p` from the probabilities `p`;
        then check `p`. When `rows` cannot hold the indices, `support` is built here."""
        width, self.rows = len(profiles[0]) if profiles else 0, None
        if flat is not None and set(map(len, profiles)) <= {width}:
            with contextlib.suppress(OverflowError):  # an index too large for intp
                self.rows = np.array(flat, np.intp).reshape(len(profiles), width)
                self.rows.setflags(write=False)
        if self.rows is None:  # the cached property's slot: `validate_for` scans these rows
            vars(self)["support"] = tuple(zip(map(tuple, profiles), map(float, p)))
        self.p = np.array(p, np.float64)
        self.p.setflags(write=False)
        valid, p = np.isfinite(self.p) & (self.p >= 0.0), self.p.tolist()
        if not valid.all():  # name the first fault
            k = int(np.argmin(valid))
            raise ValueError(f"probability {p[k]} for {tuple(profiles[k])} must be finite and >= 0")
        total = sum(p)  # in row order: np.sum would change the last bits
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"advice probabilities sum to {total}, expected 1")

    @functools.cached_property
    def support(self) -> tuple[tuple[ClassifierProfile, float], ...]:
        return tuple(zip(map(tuple, self.rows.tolist()), self.p.tolist()))

    def __eq__(self, other):
        return self.support == other.support if type(other) is AdviceDistribution else NotImplemented

    def validate_for(self, sg: SanctionGame) -> np.ndarray:
        """The advised menu indices as one (rows, players) intp array. ValueError
        names the first row that is not a classifier profile of `sg`."""
        rows = self.rows
        if rows is not None and rows.shape[1] == sg.num_players:
            if ((rows >= 0) & (rows < sg.sizes)).all():
                return rows
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
    advised, p = advice.validate_for(sg), advice.p
    conditioned = mode == "conditioned"

    worst, who, dev, rec = 0.0, None, None, None
    for i in range(sg.num_players):
        menu = np.arange(sg.sizes[i])
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


# ---------------------------------------------------------------------------
# JSON format (see the module docstring)
# ---------------------------------------------------------------------------


def parse_sanction_game(obj) -> SanctionGame:
    """Scan the menus entry by entry into the pair table and compile it. The scan names
    the first fault; then, per menu, come the never-sanction and target range checks,
    worded as the constructor words them, naming the menu's first bad target in the file."""
    base, keys = games._parse_game(obj)
    n, raw_menus = base.num_players, obj.get("classifiers")
    if not isinstance(raw_menus, (list, tuple)) or len(raw_menus) != n:
        raise GameFormatError("'classifiers' must list one menu per player")
    where = "'classifiers'[{}][{}]".format  # formatted only to raise
    flats, targets = [], []  # one per sanctioned pair
    lengths, costs, self_costs = [], [], []  # one per classifier
    for i, raw_menu in enumerate(raw_menus):
        if not isinstance(raw_menu, (list, tuple)) or not raw_menu:
            raise GameFormatError(f"'classifiers'[{i}] must be a non-empty array")
        for k, raw in enumerate(raw_menu):
            if not isinstance(raw, dict):
                raise GameFormatError(f"{where(i, k)} must be an object")
            raw_sanctions, start = raw.get("sanctions"), len(targets)
            if not isinstance(raw_sanctions, (list, tuple)):
                raise GameFormatError(f"{where(i, k)} needs a 'sanctions' array")
            for entry in raw_sanctions:
                if not isinstance(entry, dict) or "profile" not in entry or "target" not in entry:
                    raise GameFormatError(f"{where(i, k)} sanctions need 'profile' and 'target'")
                key, target = entry["profile"], entry["target"]
                if type(key) is not str:
                    raise GameFormatError(f"{where(i, k)} profile must be a profile key string")
                if key not in keys:
                    games.parse_profile(base, key)  # raises: the key names no profile
                if type(target) is not int:  # JSON integers only: not bool, not float
                    raise GameFormatError(f"{where(i, k)} target must be a player index")
                flats.append(keys[key])
                targets.append(target)
            cost, self_cost = raw.get("cost", 0.0), raw.get("self_cost", 0.0)
            if not games._is_number(cost) or not games._is_number(self_cost):
                raise GameFormatError(f"{where(i, k)} costs must be finite numbers")
            cost, self_cost = float(cost), float(self_cost)
            try:
                _check_classifier(i, targets[start:], cost, self_cost)
            except ValueError as exc:
                raise GameFormatError(f"{where(i, k)}: {exc}") from exc
            lengths.append(len(raw_sanctions))
            costs.append(cost)
            self_costs.append(self_cost)
    sizes, starts = list(map(len, raw_menus)), [0, *itertools.accumulate(lengths)]
    in_range = min(targets, default=0) >= 0 and max(targets, default=0) < n
    for i, (lo, hi) in enumerate(itertools.pairwise([0, *itertools.accumulate(sizes)])):
        if 0 not in lengths[lo:hi]:
            raise GameFormatError(f"player {i}'s menu lacks a never-sanction entry")
        for target in () if in_range else targets[starts[lo] : starts[hi]]:
            if not 0 <= target < n:
                raise GameFormatError(f"sanction target {target} is not a player")
    entry = np.repeat(np.arange(len(lengths)), lengths)
    flat = entry * math.prod(base.num_actions) + np.array(flats, np.intp)  # (entry, *profile)
    sg = SanctionGame.__new__(SanctionGame)  # the menus wait for a read
    rates = np.array(costs) + 0.0, np.array(self_costs) + 0.0  # -0.0 would sign a zero minimax
    sg._compile(base, sizes, flat * n + np.array(targets, np.intp), *rates)
    return sg


def load_sanction_game(path) -> SanctionGame:
    return games.load_json(path, parse_sanction_game)


def parse_advice(obj) -> AdviceDistribution:
    raw = obj.get("support") if isinstance(obj, dict) else None
    if not isinstance(raw, (list, tuple)):
        raise GameFormatError("advice must be an object with a 'support' array")
    try:  # whole-list checks; when one fails, a scan names the first fault
        indices = list(map(operator.itemgetter("profile_indices"), raw))
        p = list(map(operator.itemgetter("p"), raw))
        flat = list(itertools.chain.from_iterable(indices))
        checked = (
            games._typed(raw, dict) and games._typed(indices, list, tuple) and games._typed(flat, int)
            and games._typed(p, int, float) and all(map(math.isfinite, p))
        )
    except (KeyError, TypeError, OverflowError):  # OverflowError: an int too large for a float
        checked = False
    support = []
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
        if not checked:
            return AdviceDistribution(support)
        advice = AdviceDistribution.__new__(AdviceDistribution)  # the arrays straight from the lists
        advice._hold(indices, flat, p)
        return advice
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc


def load_advice(path) -> AdviceDistribution:
    return games.load_json(path, parse_advice)

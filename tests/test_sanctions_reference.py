"""The array-based sanction layer against the scalar loops it replaced, and
the game layer against its per-call checks and per-caller incentive rules.

The `ref_*` functions below are the earlier implementations, kept verbatim as
the reference. Every float is compared exactly, the sign of zero included,
over seeded random games and menus; errors are compared by type and text.
"""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from normsim import games, sanctions
from normsim.games import FiniteGame
from normsim.sanctions import (
    CE_TOLERANCE,
    CEReport,
    FeasibilityReport,
    PlayerFeasibility,
    _check_classifiers,
    enumerate_classifier_profiles,
    non_resolving_witness,
)


# ---------------------------------------------------------------------------
# Reference: the scalar loops
# ---------------------------------------------------------------------------


def ref_sanction_cost(sg, classifiers, base_profile, player):
    base_profile = games._check_profile(sg.base, base_profile)
    cls = _check_classifiers(sg, classifiers)
    own = sg.menus[player][cls[player]]
    cost = own.self_cost * sum(1 for profile, _ in own.sanctions if profile == base_profile)
    for j, idx in enumerate(cls):
        if j == player:
            continue
        other = sg.menus[j][idx]
        if (base_profile, player) in other.sanctions:
            cost += other.cost
    return cost


def ref_sanction_utility(sg, classifiers, base_profile, player):
    return -ref_sanction_cost(sg, classifiers, base_profile, player)


def ref_apply_transform(sg, classifiers):
    cls = _check_classifiers(sg, classifiers)
    payoffs = np.array(sg.base.payoffs)
    for profile in games.enumerate_profiles(sg.base):
        for i in range(sg.num_players):
            payoffs[profile + (i,)] -= ref_sanction_cost(sg, cls, profile, i)
    return FiniteGame(sg.base.action_names, payoffs)


def ref_sanction_minimax(sg, base_profile, player):
    base_profile = games._check_profile(sg.base, base_profile)
    others = [j for j in range(sg.num_players) if j != player]
    worst = math.inf
    for combo in itertools.product(*(range(len(sg.menus[j])) for j in others)):
        assignment = dict(zip(others, combo))
        best = -math.inf
        for own in range(len(sg.menus[player])):
            assignment[player] = own
            cls = tuple(assignment[j] for j in range(sg.num_players))
            best = max(best, ref_sanction_utility(sg, cls, base_profile, player))
        worst = min(worst, best)
    return worst


def ref_find_nash_witness(sg, target):
    target = games._check_profile(sg.base, target)
    never = non_resolving_witness(sg)
    candidates = itertools.chain(
        [never], (c for c in enumerate_classifier_profiles(sg) if c != never)
    )
    for cls in candidates:
        if games.is_nash(ref_apply_transform(sg, cls), target):
            return cls
    return None


def ref_verify_correlated_equilibrium(sg, advice, base_profile, mode="literal"):
    if mode not in ("literal", "conditioned"):
        raise ValueError(f"unknown mode {mode!r}")
    base_profile = games._check_profile(sg.base, base_profile)
    advice.validate_for(sg)

    def util(player, cls):
        return ref_sanction_utility(sg, cls, base_profile, player)

    worst = 0.0
    who = None
    dev = None
    rec = None
    for i in range(sg.num_players):
        alternatives = range(len(sg.menus[i]))
        if mode == "literal":
            groups = [(None, advice.support)]
        else:
            by_rec = {}
            for profile, p in advice.support:
                if p > 0.0:
                    by_rec.setdefault(profile[i], []).append((profile, p))
            groups = sorted(by_rec.items())
        for recommended, mass in groups:
            for d in alternatives:
                margin = sum(
                    p * (util(i, profile[:i] + (d,) + profile[i + 1 :]) - util(i, profile))
                    for profile, p in mass
                )
                if margin > worst:
                    worst, who, dev, rec = margin, i, d, recommended
    if worst <= CE_TOLERANCE:
        return CEReport(mode, True, 0.0, None, None, None)
    return CEReport(mode, False, worst, who, dev, rec)


# ---------------------------------------------------------------------------
# Reference: the game layer, each call checking its own opponents
# ---------------------------------------------------------------------------


def ref_own_utilities(game, player, opponents):
    opp = tuple(opponents)
    if not 0 <= player < game.num_players:
        raise ValueError(f"no player {player}")
    if len(opp) != game.num_players - 1:
        raise ValueError(
            f"expected {game.num_players - 1} opponent actions, got {len(opp)}"
        )
    counts = game.num_actions
    others = [i for i in range(game.num_players) if i != player]
    for i, a in zip(others, opp):
        if not 0 <= a < counts[i]:
            raise ValueError(f"action {a} out of range for player {i}")
    index = opp[:player] + (slice(None),) + opp[player:]
    return game.payoffs[index + (player,)]


def ref_best_response_set(game, player, opponents):
    utils = ref_own_utilities(game, player, opponents)
    return tuple(int(a) for a in np.flatnonzero(utils == utils.max()))


def ref_deviation_incentive(game, profile, player):
    profile = games._check_profile(game, profile)
    opp = tuple(a for j, a in enumerate(profile) if j != player)
    utils = ref_own_utilities(game, player, opp)
    return float(utils.max() - utils[profile[player]])


def ref_is_nash(game, profile):
    return all(
        ref_deviation_incentive(game, profile, i) == 0.0 for i in range(game.num_players)
    )


def ref_detect_cooperation_dilemma(game):
    sw = games.social_welfare_optimum(game)
    incentives = []
    for i in range(game.num_players):
        gain = ref_deviation_incentive(game, sw, i)
        witness = None
        if gain > 0.0:
            opp = tuple(a for j, a in enumerate(sw) if j != i)
            witness = min(ref_best_response_set(game, i, opp))
        incentives.append(games.PlayerIncentive(player=i, gain=gain, witness=witness))
    return games.DilemmaReport(
        sw_profile=sw,
        sw_total=float(game.payoffs[sw].sum()),
        incentives=tuple(incentives),
        dilemma_players=tuple(p.player for p in incentives if p.gain > 0.0),
    )


def ref_is_dilemma_resolving(base, transformed, player):
    if base.num_actions != transformed.num_actions:
        raise ValueError("base and transformed games have different shapes")
    sw = games.social_welfare_optimum(base)
    opp = tuple(a for j, a in enumerate(sw) if j != player)
    base_u = ref_own_utilities(base, player, opp)
    trans_u = ref_own_utilities(transformed, player, opp)
    profitable = [a for a in range(base.num_actions[player]) if base_u[a] > base_u[sw[player]]]
    if not profitable:
        return False
    return all(trans_u[a] < trans_u[sw[player]] for a in profitable)


def ref_theorem1_feasibility(sg, target):
    target = games._check_profile(sg.base, target)
    players = []
    for i in range(sg.num_players):
        delta = ref_deviation_incentive(sg.base, target, i)
        if delta == 0.0:
            punish = target
        else:
            opp = tuple(a for j, a in enumerate(target) if j != i)
            best = min(ref_best_response_set(sg.base, i, opp))
            punish = target[:i] + (best,) + target[i + 1 :]
        minimax = sanctions.sanction_minimax(sg, punish, i)
        players.append(PlayerFeasibility(i, delta, minimax, punish, delta == 0.0 or -delta > minimax))
    all_enforceable = all(p.enforceable for p in players)
    witness = sanctions.find_nash_witness(sg, target) if all_enforceable else None
    return FeasibilityReport(
        target=target, players=tuple(players), enforceable=all_enforceable, witness=witness
    )


# ---------------------------------------------------------------------------
# Exact comparison
# ---------------------------------------------------------------------------


def same_float(a, b) -> bool:
    """Equal, and equal in the sign of zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_array(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def same_report(a: CEReport, b: CEReport) -> bool:
    return (
        (a.mode, a.holds, a.violating_player, a.violating_deviation, a.violating_recommendation)
        == (b.mode, b.holds, b.violating_player, b.violating_deviation, b.violating_recommendation)
        and same_float(a.worst_violation, b.worst_violation)
    )


def same_dilemma(a: games.DilemmaReport, b: games.DilemmaReport) -> bool:
    return (
        (a.sw_profile, a.dilemma_players) == (b.sw_profile, b.dilemma_players)
        and same_float(a.sw_total, b.sw_total)
        and len(a.incentives) == len(b.incentives)
        and all(
            (p.player, p.witness) == (q.player, q.witness) and same_float(p.gain, q.gain)
            for p, q in zip(a.incentives, b.incentives)
        )
    )


def same_feasibility(a: FeasibilityReport, b: FeasibilityReport) -> bool:
    return (
        (a.target, a.enforceable, a.witness) == (b.target, b.enforceable, b.witness)
        and len(a.players) == len(b.players)
        and all(
            (p.player, p.punish_profile, p.enforceable) == (q.player, q.punish_profile, q.enforceable)
            and same_float(p.delta, q.delta)
            and same_float(p.minimax, q.minimax)
            for p, q in zip(a.players, b.players)
        )
    )


def raised(fn, *args) -> tuple[type, str]:
    """The type and text of the exception `fn(*args)` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


def same_error(fn, ref, *args) -> None:
    assert raised(fn, *args) == raised(ref, *args)


# ---------------------------------------------------------------------------
# Random games, menus and advice
# ---------------------------------------------------------------------------

COSTS = (0.0, 0.1, 0.25, 0.3, 0.7, 1.3, 2.0)
PAYOFFS = (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.1)


def random_game(rng) -> FiniteGame:
    counts = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
    names = [[f"p{i}a{k}" for k in range(c)] for i, c in enumerate(counts)]
    return FiniteGame(names, rng.choice(PAYOFFS, size=counts + (len(counts),)))


def integer_game(seed, like: FiniteGame) -> FiniteGame:
    """A game shaped like `like` with integer payoffs in [-2, 2], so that best
    responses tie often; its generator is its own, apart from the seed's."""
    rng = np.random.default_rng((seed, 1))
    return FiniteGame(like.action_names, rng.integers(-2, 3, size=like.payoffs.shape).astype(float))


def random_menu(rng, game, owner, max_size):
    """A never-only menu, or a shuffled mix of exhaustive-menu entries,
    declaration classifiers and the never entry."""
    never = sanctions.never_sanction(owner)
    if rng.random() < 0.2:
        return (never,)
    menu = []
    if rng.random() < 0.7:
        cost, self_cost = rng.choice(COSTS, size=2)
        limit = int(rng.integers(2, max_size + 1))
        menu += sanctions.exhaustive_menu(game, owner, float(cost), float(self_cost), limit)[1:]
    profiles = list(games.enumerate_profiles(game))
    while len(menu) < max_size - 1 and rng.random() < 0.6:
        target = profiles[int(rng.integers(len(profiles)))]
        cost, self_cost = rng.choice(COSTS, size=2)
        menu.append(
            sanctions.declaration_classifier(game, owner, target, float(cost), float(self_cost))
        )
    menu = menu[: max_size - 1]
    menu.insert(int(rng.integers(len(menu) + 1)), never)
    return tuple(menu)


def random_sanction_game(rng, max_size=4):
    game = random_game(rng)
    menus = tuple(random_menu(rng, game, i, max_size) for i in range(game.num_players))
    return sanctions.SanctionGame(base=game, menus=menus)


def random_profile(rng, sizes):
    return tuple(int(rng.integers(s)) for s in sizes)


def random_advice(rng, sg):
    """Up to 12 rows (duplicates allowed), some of them with p == 0."""
    sizes = [len(menu) for menu in sg.menus]
    rows = [random_profile(rng, sizes) for _ in range(int(rng.integers(1, 13)))]
    weights = rng.choice((0.0, 0.1, 0.3, 0.7, 1.0), size=len(rows))
    if weights.sum() == 0.0:
        weights[int(rng.integers(len(rows)))] = 0.7
    weights = weights / weights.sum()
    return sanctions.AdviceDistribution(support=tuple(zip(rows, weights.tolist())))


@pytest.mark.parametrize("seed", range(300))
def test_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    sg = random_sanction_game(rng)
    counts = sg.base.num_actions
    sizes = [len(menu) for menu in sg.menus]
    profiles = list(games.enumerate_profiles(sg.base))
    for _ in range(4):
        cls = random_profile(rng, sizes)
        assert same_array(
            sanctions.apply_transform(sg, cls).payoffs, ref_apply_transform(sg, cls).payoffs
        )
        for profile in profiles:
            for i in range(sg.num_players):
                assert same_float(
                    sanctions.sanction_cost(sg, cls, profile, i),
                    ref_sanction_cost(sg, cls, profile, i),
                )
    for _ in range(3):
        profile, i = random_profile(rng, counts), int(rng.integers(sg.num_players))
        assert same_float(
            sanctions.sanction_minimax(sg, profile, i), ref_sanction_minimax(sg, profile, i)
        )
    for target in (games.social_welfare_optimum(sg.base), random_profile(rng, counts)):
        assert sanctions.find_nash_witness(sg, target) == ref_find_nash_witness(sg, target)
    for _ in range(2):
        advice, base_profile = random_advice(rng, sg), random_profile(rng, counts)
        for mode in ("literal", "conditioned"):
            assert same_report(
                sanctions.verify_correlated_equilibrium(sg, advice, base_profile, mode),
                ref_verify_correlated_equilibrium(sg, advice, base_profile, mode),
            )
    cls = random_profile(rng, sizes)
    for base in (sg.base, integer_game(seed, sg.base)):
        check_game_layer(sanctions.SanctionGame(base=base, menus=sg.menus), cls)


def check_game_layer(sg, cls):
    """Every profile and player of `sg.base` through the game layer, the
    transform by `cls` through the resolution test, and each error path."""
    base, n, counts = sg.base, sg.num_players, sg.base.num_actions
    transformed = sanctions.apply_transform(sg, cls)
    assert same_dilemma(
        games.detect_cooperation_dilemma(base), ref_detect_cooperation_dilemma(base)
    )
    for i in range(n):
        for other in (base, transformed):
            assert sanctions.is_dilemma_resolving(base, other, i) is ref_is_dilemma_resolving(
                base, other, i
            )
    for profile in games.enumerate_profiles(base):
        assert games.is_nash(base, profile) is ref_is_nash(base, profile)
        assert same_feasibility(
            sanctions.theorem1_feasibility(sg, profile), ref_theorem1_feasibility(sg, profile)
        )

    zero = (0,) * n
    for player in (-1, n):  # no such player
        same_error(sanctions.is_dilemma_resolving, ref_is_dilemma_resolving, base, transformed, player)
    for wrong in (zero[1:], zero + (0,)):  # a profile of the wrong length
        same_error(games.is_nash, ref_is_nash, base, wrong)
        same_error(sanctions.theorem1_feasibility, ref_theorem1_feasibility, sg, wrong)
    for i in range(n):
        for a in (-1, counts[i]):  # player i's action out of range
            bad = zero[:i] + (a,) + zero[i + 1 :]
            same_error(games.is_nash, ref_is_nash, base, bad)
            same_error(sanctions.theorem1_feasibility, ref_theorem1_feasibility, sg, bad)
    # the shapes are checked before the player
    other = FiniteGame(base.action_names + (("x",),), np.zeros(counts + (1, n + 1)))
    same_error(sanctions.is_dilemma_resolving, ref_is_dilemma_resolving, base, other, n)


def test_random_cases_exercise_every_branch():
    """The random cases above reach witnesses found and not found, beyond the
    all-never profile, and advice that holds and is violated in both modes."""
    witnesses, reports = set(), set()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        sg = random_sanction_game(rng)
        target = games.social_welfare_optimum(sg.base)
        witness = sanctions.find_nash_witness(sg, target)
        witnesses.add("none" if witness is None else
                      "never" if witness == non_resolving_witness(sg) else "other")
        advice = random_advice(rng, sg)
        for mode in ("literal", "conditioned"):
            report = sanctions.verify_correlated_equilibrium(sg, advice, target, mode)
            reports.add((mode, report.holds))
    assert witnesses == {"none", "never", "other"}
    assert len(reports) == 4


def test_integer_games_tie_at_the_optimum():
    """In some of the integer games above, a player who gains by leaving the
    welfare optimum has tied best responses there, so the lowest one is named."""
    tied = 0
    for seed in range(300):
        game = integer_game(seed, random_sanction_game(np.random.default_rng(seed)).base)
        report = games.detect_cooperation_dilemma(game)
        sw = report.sw_profile
        for p in report.incentives:
            opp = sw[: p.player] + sw[p.player + 1 :]
            tied += p.witness is not None and len(ref_best_response_set(game, p.player, opp)) > 1
    assert tied


# ---------------------------------------------------------------------------
# Bounded memory on large menus
# ---------------------------------------------------------------------------


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_large_menus_bounded_memory():
    # Only player 2 gains by leaving the target (0, 0, 0): 0.5 at (0, 0, 2).
    # One sanction there costs it 0.3, another player's 0.4: it takes two, and
    # the first witness lets player 2 sanction both others at (0, 0, 2) itself,
    # entry 261 of its exhaustive menu, with the others on their never entries.
    counts = (3, 3, 3)
    payoffs = np.full(counts + (3,), 0.5)
    payoffs[0, 0, 2, 2] = 1.0
    game = FiniteGame([["a", "b", "c"]] * 3, payoffs)
    menus = tuple(sanctions.exhaustive_menu(game, i, 0.4, 0.3, limit=4096) for i in range(3))
    sg = sanctions.SanctionGame(base=game, menus=menus)
    target = (0, 0, 0)

    expected = ref_find_nash_witness(sg, target)
    assert expected == (0, 0, 261)  # past the first scan block of 64 profiles

    witness, peak = _peak_mb(sanctions.find_nash_witness, sg, target)
    assert witness == expected
    assert peak < 16.0

    rng = np.random.default_rng(3)
    rows = [tuple(int(k) for k in rng.integers(4096, size=3)) for _ in range(1024)]
    advice = sanctions.AdviceDistribution(support=tuple((r, 1 / 1024) for r in rows))
    for mode in ("literal", "conditioned"):
        report, peak = _peak_mb(sanctions.verify_correlated_equilibrium, sg, advice, target, mode)
        assert peak < 16.0
        # most advised entries sanction at the target, so switching to never pays
        assert not report.holds

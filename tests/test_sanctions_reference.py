"""The array-based sanction layer against the scalar loops it replaced.

The `ref_*` functions below are the earlier per-pair implementations, kept
verbatim as the reference. Every float is compared exactly, the sign of zero
included, over seeded random games and menus.
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


# ---------------------------------------------------------------------------
# Random games, menus and advice
# ---------------------------------------------------------------------------

COSTS = (0.0, 0.1, 0.25, 0.3, 0.7, 1.3, 2.0)
PAYOFFS = (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.1)


def random_game(rng) -> FiniteGame:
    counts = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
    names = [[f"p{i}a{k}" for k in range(c)] for i, c in enumerate(counts)]
    return FiniteGame(names, rng.choice(PAYOFFS, size=counts + (len(counts),)))


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

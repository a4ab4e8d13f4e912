"""Walk the prisoner's dilemma from diagnosis to an enforced cooperative outcome.

Cooperation fails because each player gains 2 by defecting. A sanction menu
that lets everyone declare "I disapprove of deviations from (C, C), at a cost
of 3" changes the arithmetic: subtracting expected sanction costs from the
base payoffs makes (C, C) a Nash equilibrium. A cheaper declaration (cost 1)
does not — and an exhaustive search over small classifier menus shows nothing
at that price does.
"""
from normsim import games, sanctions

DECLARATION_COST = 3.0
CHEAP_COST = 1.0
SELF_COST = 0.1


def make_pd() -> games.FiniteGame:
    return games.game_from_table(
        [["C", "D"], ["C", "D"]],
        {(0, 0): [3, 3], (0, 1): [0, 5], (1, 0): [5, 0], (1, 1): [1, 1]},
    )


def declaration_menus(game, target, cost):
    return tuple(
        (
            sanctions.never_sanction(owner),
            sanctions.declaration_classifier(game, owner, target, cost, SELF_COST),
        )
        for owner in range(game.num_players)
    )


def print_matrix(game: games.FiniteGame, label: str) -> None:
    print(f"{label}:")
    cols = game.action_names[1]
    print("        " + "".join(f"{c:>14}" for c in cols))
    for i, row_name in enumerate(game.action_names[0]):
        cells = [
            "({:g}, {:g})".format(*games.payoffs_at(game, (i, j)))
            for j in range(len(cols))
        ]
        print(f"  {row_name:>4}  " + "".join(f"{c:>14}" for c in cells))
    print()


def main() -> None:
    pd = make_pd()
    print_matrix(pd, "base game")

    report = games.detect_cooperation_dilemma(pd)
    sw = games.profile_key(pd, report.sw_profile)
    print(f"welfare optimum {sw} (total {report.sw_total:g}); "
          f"defectors: players {', '.join(map(str, report.dilemma_players))}")
    for inc in report.incentives:
        print(f"  player {inc.player}: gains {inc.gain:g} by deviating")
    print()

    sg = sanctions.SanctionGame(base=pd, menus=declaration_menus(pd, (0, 0), DECLARATION_COST))
    feas = sanctions.theorem1_feasibility(sg, (0, 0))
    print(f"declaration cost {DECLARATION_COST:g}: enforceable = {feas.enforceable}")
    for p in feas.players:
        print(f"  player {p.player}: delta {p.delta:g}, minimax {p.minimax:g}")
    transformed = sanctions.apply_transform(sg, feas.witness)
    print_matrix(transformed, f"transformed by witness {list(feas.witness)}")
    print(f"(C, C) is Nash after the transform: {games.is_nash(transformed, (0, 0))}")
    print()

    cheap = sanctions.SanctionGame(
        base=pd,
        menus=tuple(
            sanctions.exhaustive_menu(pd, owner, cost=CHEAP_COST, self_cost=SELF_COST, limit=8)
            for owner in range(2)
        ),
    )
    profiles = list(sanctions.enumerate_classifier_profiles(cheap))
    fixed = sum(
        games.is_nash(sanctions.apply_transform(cheap, prof), (0, 0)) for prof in profiles
    )
    print(f"declaration cost {CHEAP_COST:g}: enforceable = "
          f"{sanctions.theorem1_feasibility(cheap, (0, 0)).enforceable}")
    print(f"  searched {len(profiles)} joint classifier profiles; "
          f"{fixed} made (C, C) Nash")


if __name__ == "__main__":
    main()

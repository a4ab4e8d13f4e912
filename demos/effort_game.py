"""How expensive must disapproval be before full effort self-enforces?

Three players each choose rest or work; effort benefits everyone equally but
costs only the worker, so everyone resting is the unique equilibrium while
everyone working maximizes welfare. We sweep the declared sanction cost and
report the threshold at which "everyone works" becomes enforceable.
"""
import itertools

from normsim import games, sanctions

TARGET = (1, 1, 1)  # everyone works
COSTS = [round(0.05 * k, 2) for k in range(1, 11)]


def make_effort() -> games.FiniteGame:
    table = {
        p: [2.0 * sum(p) / 3.0 - x for x in p]
        for p in itertools.product((0, 1), repeat=3)
    }
    return games.game_from_table([["rest", "work"]] * 3, table)


def with_declarations(game, cost):
    menus = tuple(
        (
            sanctions.never_sanction(owner),
            sanctions.declaration_classifier(game, owner, TARGET, cost),
        )
        for owner in range(game.num_players)
    )
    return sanctions.SanctionGame(base=game, menus=menus)


def main() -> None:
    game = make_effort()
    report = games.detect_cooperation_dilemma(game)
    print(f"welfare optimum: {games.profile_key(game, report.sw_profile)} "
          f"(total {report.sw_total:g})")
    for inc in report.incentives:
        print(f"  player {inc.player}: deviation gain {inc.gain:g}")
    print()

    print(" cost   enforceable   per-player (delta, minimax)")
    threshold = None
    for cost in COSTS:
        feas = sanctions.theorem1_feasibility(with_declarations(game, cost), TARGET)
        cells = "  ".join(f"({p.delta:g}, {p.minimax:g})" for p in feas.players)
        print(f" {cost:4.2f}   {str(feas.enforceable):<11}   {cells}")
        if feas.enforceable and threshold is None:
            threshold = cost
    print()
    if threshold is None:
        print("no cost in the sweep enforces full effort")
    else:
        print(f"full effort becomes enforceable at declared cost {threshold:g} "
              f"(each player's rest gain is {report.incentives[0].gain:g})")


if __name__ == "__main__":
    main()

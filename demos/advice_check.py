"""Check institution advice against the correlated-equilibrium test.

An institution that declares a crop is, in sanction-game terms, advising every
player to pick the classifier that disapproves of deviations from that crop.
When sanctioning is costly to the sanctioner, literally following such advice
can itself be a deviation target — the verifier catches a hand-built case
where one player is told to sanction for no possible benefit.
"""
from normsim import games, institutions, sanctions

SELF_COST = 0.1


def make_pd() -> games.FiniteGame:
    return games.game_from_table(
        [["C", "D"], ["C", "D"]],
        {(0, 0): [3, 3], (0, 1): [0, 5], (1, 0): [5, 0], (1, 1): [1, 1]},
    )


def describe(report) -> str:
    if report.holds:
        return f"holds ({report.mode})"
    return (f"VIOLATED ({report.mode}): player {report.violating_player} gains "
            f"{report.worst_violation:g} by switching to classifier "
            f"{report.violating_deviation}")


def main() -> None:
    pd = make_pd()
    menus = tuple(
        (
            sanctions.never_sanction(owner),
            sanctions.declaration_classifier(pd, owner, (0, 0), 3.0, SELF_COST),
        )
        for owner in range(2)
    )
    sg = sanctions.SanctionGame(base=pd, menus=menus)

    chieftain = institutions.make_institution(0, crop=0, authoritative=True)
    advice = institutions.advice_profile(chieftain, sg, t=0)
    print(f"{chieftain.name} declares crop 0; advice = point mass on classifiers "
          f"{[list(p) for p, _ in advice.support]}")
    for mode in ("literal", "conditioned"):
        report = sanctions.verify_correlated_equilibrium(sg, advice, (0, 0), mode=mode)
        print(f"  at (C, C): {describe(report)}")
    print()

    # Pointless sanctioning: player 0 is advised to disapprove of (C, C) itself.
    pointless = sanctions.SanctionGame(
        base=pd,
        menus=(
            (
                sanctions.never_sanction(0),
                sanctions.ClassificationFunction(
                    owner=0, sanctions=frozenset({((0, 0), 1)}), cost=0.7, self_cost=SELF_COST
                ),
            ),
            (sanctions.never_sanction(1),),
        ),
    )
    bad = sanctions.advice_point_mass((1, 0))
    print("advice telling player 0 to sanction the very outcome being played:")
    for mode in ("literal", "conditioned"):
        report = sanctions.verify_correlated_equilibrium(pointless, bad, (0, 0), mode=mode)
        print(f"  at (C, C): {describe(report)}")
    print("\n(dropping the sanction saves exactly the self-cost, "
          f"{SELF_COST:g} — the verifier's reported margin)")


if __name__ == "__main__":
    main()

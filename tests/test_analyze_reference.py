"""`normsim analyze` text output against a verbatim copy of the earlier text
renderer, which formatted the report objects directly, over the 2-player
requests of the benchmark's sanction_analysis inputs.

The copy crashes where every player passes Theorem 1 but the menus hold no
joint witness (`witness` is None); there the text must say so in one line."""
import importlib
import json
from pathlib import Path

from normsim import cli
from normsim.games import detect_cooperation_dilemma, load_game, profile_key
from normsim.sanctions import (
    load_advice,
    load_sanction_game,
    theorem1_feasibility,
    verify_correlated_equilibrium,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
NO_WITNESS = "enforceable: yes (all players); no witness classifier profile in the menus"


def ref_text(game, dilemma, feasibility, advice_report, out: list) -> None:
    """The text branch of `cmd_analyze` as it was, with `print` appending to `out`."""
    print = out.append
    actions = " x ".join("|".join(a) for a in game.action_names)
    print(f"game: {game.num_players} players, actions {actions}")
    print(
        f"social welfare optimum: {profile_key(game, dilemma.sw_profile)} "
        f"(total {dilemma.sw_total:g})"
    )
    if dilemma.has_dilemma:
        players = ", ".join(str(p) for p in dilemma.dilemma_players)
        gains = ", ".join(
            f"{p.gain:g}" for p in dilemma.incentives if p.gain > 0.0
        )
        print(f"cooperation dilemma: yes — players {players}; deviation gains {gains}")
    else:
        print("cooperation dilemma: no — the welfare optimum is stable")
    if feasibility is not None:
        print(f"feasibility at {profile_key(game, feasibility.target)}:")
        for p in feasibility.players:
            verdict = "enforceable" if p.enforceable else "NOT enforceable"
            print(
                f"  player {p.player}: delta {p.delta:g}, minimax {p.minimax:g}, "
                f"punishing profile {profile_key(game, p.punish_profile)} -> {verdict}"
            )
        if feasibility.enforceable:
            witness = ",".join(str(i) for i in feasibility.witness)
            print(f"enforceable: yes (all players); witness classifier indices {witness}")
        else:
            print("enforceable: no")
    if advice_report is not None:
        if advice_report.holds:
            print(f"advice check ({advice_report.mode}): holds")
        else:
            print(
                f"advice check ({advice_report.mode}): VIOLATED — "
                f"worst_violation {advice_report.worst_violation:g} "
                f"(player {advice_report.violating_player}, "
                f"deviation {advice_report.violating_deviation})"
            )


def test_analyze_text_matches_the_reference_renderer(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    inputs = importlib.import_module("inputs")  # stdlib only
    requests = [req for rnd in inputs.analyze_rounds(1) for req in rnd if req.players == 2]
    game_path, sg_path, advice_path = (tmp_path / f"{n}.json" for n in ("g", "s", "a"))
    runs = no_witness = 0
    for req in requests:
        game_path.write_text(json.dumps(req.game_json()))
        sg_path.write_text(json.dumps(req.sanctions_json()))
        advice_path.write_text(json.dumps(req.advice_json()))
        game, sg = load_game(game_path), load_sanction_game(sg_path)
        dilemma = detect_cooperation_dilemma(game)
        feasibility = theorem1_feasibility(sg, dilemma.sw_profile)
        for with_advice in (False, True):
            argv = ["analyze", str(game_path), "--sanctions", str(sg_path)]
            advice_report = None
            if with_advice:
                argv += ["--advice", str(advice_path), "--mode", req.mode]
                advice_report = verify_correlated_equilibrium(
                    sg, load_advice(advice_path), dilemma.sw_profile, mode=req.mode)
            code = cli.main(argv)
            out = capsys.readouterr().out
            runs += 1
            assert code == (0 if advice_report is None or advice_report.holds else 1), req.name
            expected: list[str] = []
            try:
                ref_text(game, dilemma, feasibility, advice_report, expected)
            except TypeError:  # joining a None witness: the lines before it must match
                assert feasibility.enforceable and feasibility.witness is None
                assert out.splitlines()[:len(expected) + 1] == [*expected, NO_WITNESS], req.name
                no_witness += 1
                continue
            assert out == "".join(f"{line}\n" for line in expected), req.name
    assert runs == 384
    assert no_witness == 4  # r010 of round 0 and r008 of round 1, with and without advice

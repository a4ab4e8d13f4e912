"""Command-line entry point.

Four subcommands: `analyze` runs the game-theory toolchain over JSON game
files, `simulate` runs one orchard episode, `experiment` sweeps a grid, and
`report` folds metrics files into a normative-vs-baseline comparison. Every
subcommand takes `--json` for machine-readable output; all file output stays
under the given `--out` directory.

Exit codes: 0 on success, 1 when an episode failed or a requested
verification did not hold, 2 on unusable inputs (bad files, bad config).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .agents import build_roster
from .games import (
    GameFormatError,
    detect_cooperation_dilemma,
    load_game,
    load_json,
    parse_profile,
    profile_key,
)
from .oracle import API_KEY_VAR, ChatBaselineAgent, ChatNormativeAgent, chat_oracle
from .orchard import (
    FOCAL_NAME,
    alignment_metric,
    group_welfare,
    render_transcript,
    run_episode,
    save_episode,
    steps_to_convergence,
)
from .sanctions import (
    load_advice,
    load_sanction_game,
    theorem1_feasibility,
    verify_correlated_equilibrium,
)


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _feasibility_dict(game, report) -> dict:
    players = [
        {**vars(p), "punish_profile": profile_key(game, p.punish_profile)} for p in report.players
    ]
    return {**vars(report), "target": profile_key(game, report.target), "players": players}


def _note_range(path, game) -> None:
    """Note on stderr a loaded file whose payoffs leave [0, 1]; the game is analyzed as it is."""
    if game.payoffs.min() < 0.0 or game.payoffs.max() > 1.0:
        print(f"warning: {path}: payoffs fall outside [0, 1]; the game is kept as-is", file=sys.stderr)


def cmd_analyze(args) -> int:
    try:
        game = load_game(args.game)
    except GameFormatError as exc:
        return _fail(str(exc))
    _note_range(args.game, game)
    dilemma = detect_cooperation_dilemma(game)

    sg = feasibility = advice_report = None
    try:
        if args.sanctions:
            sg = load_sanction_game(args.sanctions)
            _note_range(args.sanctions, sg.base)
            if (
                sg.base.action_names != game.action_names
                or not np.array_equal(sg.base.payoffs, game.payoffs)
            ):
                return _fail(f"{args.sanctions}: embeds a different base game than {args.game}")
        target = parse_profile(game, args.target) if args.target else dilemma.sw_profile
        if sg is not None:
            feasibility = theorem1_feasibility(sg, target)
            if args.advice:
                advice = load_advice(args.advice)
                try:
                    advice_report = verify_correlated_equilibrium(sg, advice, target, mode=args.mode)
                except ValueError as exc:  # here only from advice indices outside the menus
                    return _fail(f"{args.advice}: {exc}")
        elif args.advice:
            return _fail("--advice needs --sanctions (advice ranges over classifier menus)")
    except GameFormatError as exc:
        return _fail(str(exc))

    if args.json:
        payload = {
            "game": {
                "players": game.num_players,
                "actions": [list(a) for a in game.action_names],
            },
            "dilemma": {
                "sw_profile": profile_key(game, dilemma.sw_profile),
                "sw_total": dilemma.sw_total,
                "has_dilemma": dilemma.has_dilemma,
                "dilemma_players": list(dilemma.dilemma_players),
                "incentives": [
                    {
                        "player": p.player,
                        "gain": p.gain,
                        "witness": game.action_names[p.player][p.witness]
                        if p.witness is not None
                        else None,
                    }
                    for p in dilemma.incentives
                ],
            },
            "feasibility": _feasibility_dict(game, feasibility) if feasibility else None,
            "advice": vars(advice_report) if advice_report else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
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
    if advice_report is not None and not advice_report.holds:
        return 1
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _load_config(parse, path):
    """Parse a config file, or print one `config error:` line per problem and give None."""
    try:
        return parse(load_json(path))
    except (GameFormatError, harness.ConfigError) as exc:
        for line in str(exc).splitlines():
            print(f"config error: {line}", file=sys.stderr)
        return None


def _sim_agents(sim: harness.SimConfig):
    """The roster; with the chat oracle the focal newcomer talks through it."""
    agents = build_roster(sim.env, sim.focal_kind, sim.beta, sim.sanction_threshold,
                          sim.observe_others)
    if sim.oracle_kind == "chat":
        ask = functools.partial(chat_oracle, config=sim.chat)
        if sim.focal_kind == "normative":
            agents[0] = ChatNormativeAgent(agents[0], FOCAL_NAME, ask)
        else:
            agents[0] = ChatBaselineAgent(0, FOCAL_NAME, ask)
    return agents


def cmd_simulate(args) -> int:
    sim = _load_config(harness.parse_sim_config, args.config)
    if sim is None:
        return 2
    if args.seed is not None:
        try:
            sim = dataclasses.replace(sim, env=dataclasses.replace(sim.env, seed=args.seed))
        except ValueError as exc:
            return _fail(f"config error: --seed: {exc}")
    if args.oracle is not None:
        if args.oracle == "chat" and sim.chat is None:
            return _fail("config error: --oracle chat needs oracle.base_url and oracle.model")
        sim = dataclasses.replace(sim, oracle_kind=args.oracle)
    if sim.oracle_kind == "chat" and not os.environ.get(API_KEY_VAR):
        return _fail(f"config error: the chat oracle needs the {API_KEY_VAR} environment variable")

    agents = _sim_agents(sim)
    try:
        history = run_episode(sim.env, agents)
    except Exception as exc:  # noqa: BLE001 - report, don't trace-dump
        print(f"episode failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "transcript.txt").write_text(render_transcript(history, sim.env), encoding="utf-8")
    save_episode(history, sim.env, out / "episode.json")

    metrics = {
        "steps_to_convergence": steps_to_convergence(history, sim.env),
        "group_welfare": group_welfare(history),
        "alignment": {
            str(inst.id): alignment_metric(history, sim.env, inst.id)
            for inst in sim.env.institutions
        },
    }
    if sim.env.num_background >= 1:
        metrics["alignment"]["community_modal"] = alignment_metric(
            history, sim.env, "community_modal"
        )
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        print(f"wrote {out / 'transcript.txt'} and {out / 'episode.json'}")
        for ref, value in metrics["alignment"].items():
            label = f"institution {ref}" if ref != "community_modal" else "community modal"
            print(f"alignment vs {label}: {value:.6f}")
        print(f"steps to convergence: {metrics['steps_to_convergence']}")
        print(f"group welfare: {metrics['group_welfare']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# experiment / report
# ---------------------------------------------------------------------------


def cmd_experiment(args) -> int:
    cfg = _load_config(harness.parse_experiment_config, args.config)
    if cfg is None:
        return 2
    rows = harness.run_experiment(cfg, args.out, jobs=args.jobs)
    failed = [r for r in rows if r.status.startswith("failed")]
    if args.json:
        print(json.dumps([r.to_dict() for r in rows], indent=2, sort_keys=True))
    else:
        ok = sum(1 for r in rows if r.status == "ok")
        skipped = sum(1 for r in rows if r.status.startswith("skipped"))
        print(
            f"{len(rows)} cells: {ok} ok, {skipped} skipped, {len(failed)} failed; "
            f"outputs in {args.out}"
        )
        for r in failed:
            print(
                f"failed cell {r.experiment}/{r.focal_kind} crops={r.num_crops} "
                f"background={r.num_background} institutions={r.num_institutions}: {r.status}",
                file=sys.stderr,
            )
    return 1 if failed else 0


def cmd_report(args) -> int:
    rows: list[dict] = []
    try:
        for path in args.metrics:
            rows.extend(harness.load_metrics(path))
    except (OSError, ValueError) as exc:
        return _fail(f"unusable metrics file: {exc}")
    cells = harness.build_comparison(rows)
    if args.json:
        print(json.dumps(cells, indent=2, sort_keys=True))
    else:
        print(harness.comparison_table(cells))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        header = harness.COMPARISON_HEADER.split(",")
        lines = [harness.COMPARISON_HEADER]
        lines += [",".join(harness.format_value(cell[c]) for c in header) for cell in cells]
        (out / "comparison.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later `main` call."""
    parser = argparse.ArgumentParser(
        prog="normsim",
        description="Sanction-game analysis and normative-agent orchard experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="dilemma, feasibility, and advice checks on game files")
    p.add_argument("game", help="JSON game file")
    p.add_argument("--sanctions", help="JSON sanction-game file (base game + classifier menus)")
    p.add_argument("--advice", help="JSON advice distribution over classifier profiles")
    p.add_argument("--target", help="target profile, e.g. 'C,C' (default: welfare optimum)")
    p.add_argument(
        "--mode",
        choices=("literal", "conditioned"),
        default="literal",
        help="advice check flavor (default literal)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run one orchard episode")
    p.add_argument("config", help="JSON simulate config (see docs/config.md)")
    p.add_argument("--seed", type=int, help="override the config's episode seed")
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.add_argument("--oracle", choices=("scripted", "chat"), help="override oracle.kind")
    p.add_argument("--json", action="store_true", help="print metrics as JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run an experiment grid")
    p.add_argument("config", help="JSON experiment config (see docs/config.md)")
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.add_argument("--jobs", type=int, help="worker processes (default: logical CPUs)")
    p.add_argument("--json", action="store_true", help="print metric rows as JSON")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="merge metrics files into a comparison table")
    p.add_argument("metrics", nargs="+", help="metrics.json or metrics.csv files")
    p.add_argument("--out", help="also write comparison.csv into this directory")
    p.add_argument("--json", action="store_true", help="print the comparison as JSON")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    # Text output holds non-ASCII (a dash, action names); a narrower stdout
    # encoding escapes it rather than crash.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

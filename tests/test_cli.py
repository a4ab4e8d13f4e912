"""CLI subcommands, output text, and exit codes."""
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from normsim import cli, games, sanctions
from tests.conftest import advice_to_dict, game_to_dict, sanction_game_to_dict


@pytest.fixture
def game_file(pd, tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(game_to_dict(pd)))
    return path


@pytest.fixture
def sanctions_file(pd_sg3, tmp_path):
    path = tmp_path / "pd_sanctions.json"
    path.write_text(json.dumps(sanction_game_to_dict(pd_sg3)))
    return path


def write_advice(tmp_path, support):
    path = tmp_path / "advice.json"
    path.write_text(json.dumps(advice_to_dict(sanctions.AdviceDistribution(support))))
    return path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(game_file, capsys):
    code, out, err = run(capsys, "analyze", str(game_file))
    assert code == 0
    # out-of-range payoffs surface as one tidy note, not a raw warnings line
    assert err == f"warning: {game_file}: payoffs fall outside [0, 1]; the game is kept as-is\n"
    assert out == (
        "game: 2 players, actions C|D x C|D\n"
        "social welfare optimum: C,C (total 6)\n"
        "cooperation dilemma: yes — players 0, 1; deviation gains 2, 2\n"
    )


def test_analyze_notes_the_payoff_range_of_each_loaded_file(
    game_file, sanctions_file, tmp_path, capsys
):
    """A game inside [0, 1] gets no note, and a sanctions file that fails to
    load gets its error line alone."""
    inside = tmp_path / "inside.json"
    inside.write_text(json.dumps(
        {"players": 1, "actions": [["a", "b"]], "utilities": {"a": [0.0], "b": [1.0]}}
    ))
    code, _, err = run(capsys, "analyze", str(inside))
    assert (code, err) == (0, "")
    rejected = tmp_path / "rejected.json"
    obj = json.loads(sanctions_file.read_text())
    obj["classifiers"][0] = [entry for entry in obj["classifiers"][0] if entry["sanctions"]]
    rejected.write_text(json.dumps(obj))
    code, _, err = run(capsys, "analyze", str(game_file), "--sanctions", str(rejected))
    assert code == 2
    assert err == (
        f"warning: {game_file}: payoffs fall outside [0, 1]; the game is kept as-is\n"
        f"{rejected}: player 0's menu lacks a never-sanction entry\n"
    )


def test_analyze_feasibility(game_file, sanctions_file, capsys):
    code, out, _ = run(capsys, "analyze", str(game_file), "--sanctions", str(sanctions_file))
    assert code == 0
    assert "feasibility at C,C:" in out
    assert "player 0: delta 2, minimax -3, punishing profile D,C -> enforceable" in out
    assert "enforceable: yes (all players); witness classifier indices 1,1" in out


def test_analyze_json(game_file, sanctions_file, capsys):
    code, out, _ = run(
        capsys, "analyze", str(game_file), "--sanctions", str(sanctions_file), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dilemma"]["has_dilemma"] is True
    assert payload["dilemma"]["sw_profile"] == "C,C"
    assert payload["feasibility"]["enforceable"] is True
    assert payload["feasibility"]["witness"] == [1, 1]
    assert payload["advice"] is None


def test_analyze_target_override(game_file, sanctions_file, capsys):
    code, out, _ = run(
        capsys, "analyze", str(game_file),
        "--sanctions", str(sanctions_file), "--target", "D,D",
    )
    assert code == 0
    assert "feasibility at D,D:" in out


def test_parser_is_built_once_and_keeps_no_state(game_file, sanctions_file, tmp_path, capsys):
    advice = write_advice(tmp_path, (((1, 1), 1.0),))
    files = [str(game_file), "--sanctions", str(sanctions_file), "--advice", str(advice), "--json"]
    code, out, _ = run(capsys, "analyze", *files, "--target", "D,D", "--mode", "conditioned")
    first = json.loads(out)
    assert first["feasibility"]["target"] == "D,D" and first["advice"]["mode"] == "conditioned"
    assert code == 1 and not first["advice"]["holds"]  # at D,D, never sanctioning saves self_cost

    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", *files, "--mode", "strict"])
    assert exc.value.code == 2
    assert "invalid choice: 'strict'" in capsys.readouterr().err

    code, out, _ = run(capsys, "analyze", *files)
    assert code == 0
    second = json.loads(out)
    assert second["feasibility"]["target"] == "C,C" and second["advice"]["mode"] == "literal"
    assert cli.build_parser() is cli.build_parser()


DOCS = Path(__file__).parents[1] / "docs"


def test_docs_examples_are_the_documented_files():
    blocks = re.findall(r"```json\n(.*?)```", (DOCS / "config.md").read_text(), re.S)
    documented = [json.loads(block) for block in blocks]
    names = ("simulate.json", "experiment.json", "game.json", "sanctions.json", "advice.json")
    assert sorted(path.name for path in (DOCS / "examples").iterdir()) == sorted(names)
    for name in names:
        assert json.loads((DOCS / "examples" / name).read_text()) in documented, name


@pytest.mark.parametrize("mode", ["literal", "conditioned"])
def test_docs_examples_analyze(capsys, mode):
    examples = DOCS / "examples"
    code, out, err = run(
        capsys, "analyze", str(examples / "game.json"),
        "--sanctions", str(examples / "sanctions.json"),
        "--advice", str(examples / "advice.json"), "--mode", mode,
    )
    assert code == 0
    assert err.count("payoffs fall outside [0, 1]") == 2
    assert "enforceable: yes (all players); witness classifier indices 1,1" in out
    assert f"advice check ({mode}): holds" in out


# `analyze --json` on docs/examples in literal mode, byte for byte; conditioned
# mode differs in the "mode" field only.
ANALYZE_JSON_GOLDEN = """\
{
  "advice": {
    "holds": true,
    "mode": "literal",
    "violating_deviation": null,
    "violating_player": null,
    "violating_recommendation": null,
    "worst_violation": 0.0
  },
  "dilemma": {
    "dilemma_players": [
      0,
      1
    ],
    "has_dilemma": true,
    "incentives": [
      {
        "gain": 2.0,
        "player": 0,
        "witness": "D"
      },
      {
        "gain": 2.0,
        "player": 1,
        "witness": "D"
      }
    ],
    "sw_profile": "C,C",
    "sw_total": 6.0
  },
  "feasibility": {
    "enforceable": true,
    "players": [
      {
        "delta": 2.0,
        "enforceable": true,
        "minimax": -3.0,
        "player": 0,
        "punish_profile": "D,C"
      },
      {
        "delta": 2.0,
        "enforceable": true,
        "minimax": -3.0,
        "player": 1,
        "punish_profile": "C,D"
      }
    ],
    "target": "C,C",
    "witness": [
      1,
      1
    ]
  },
  "game": {
    "actions": [
      [
        "C",
        "D"
      ],
      [
        "C",
        "D"
      ]
    ],
    "players": 2
  }
}
"""


@pytest.mark.parametrize("mode", ["literal", "conditioned"])
def test_docs_examples_analyze_json_golden(capsys, mode):
    examples = DOCS / "examples"
    code, out, err = run(
        capsys, "analyze", str(examples / "game.json"),
        "--sanctions", str(examples / "sanctions.json"),
        "--advice", str(examples / "advice.json"), "--mode", mode, "--json",
    )
    assert code == 0
    assert out == ANALYZE_JSON_GOLDEN.replace('"mode": "literal"', f'"mode": "{mode}"')
    note = "payoffs fall outside [0, 1]; the game is kept as-is"
    assert err == (
        f"warning: {examples / 'game.json'}: {note}\n"
        f"warning: {examples / 'sanctions.json'}: {note}\n"
    )


def cafe_game_argv(tmp_path, *flags):
    """`python` arguments and environment that analyze a game with a non-ASCII action."""
    game = {
        "players": 2,
        "actions": [["café", "D"], ["café", "D"]],
        "utilities": {
            "café,café": [0.6, 0.6], "café,D": [0, 1], "D,café": [1, 0], "D,D": [0.2, 0.2]
        },
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game, ensure_ascii=False), encoding="utf-8")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return ["-m", "normsim.cli", "analyze", str(path), *flags], env


def run_utf8_and_ascii(argv, env):
    """The run in UTF-8 mode, then under the C locale with neither locale
    coercion nor UTF-8 mode, where the locale encoding is ASCII."""
    utf8 = subprocess.run([sys.executable, "-X", "utf8=1", *argv], env=env, capture_output=True)
    ascii_env = {**env, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    ascii_run = subprocess.run([sys.executable, "-X", "utf8=0", *argv], env=ascii_env,
                               capture_output=True)
    assert utf8.returncode == 0 and utf8.stderr == b"", utf8.stderr
    return utf8, ascii_run


def test_analyze_reads_utf8_whatever_the_locale(tmp_path):
    """A UTF-8 game file gives the same `--json` bytes under an ASCII locale."""
    utf8, ascii_run = run_utf8_and_ascii(*cafe_game_argv(tmp_path, "--json"))
    assert json.loads(utf8.stdout)["game"]["actions"] == [["café", "D"], ["café", "D"]]
    assert (ascii_run.returncode, ascii_run.stderr, ascii_run.stdout) == (0, b"", utf8.stdout)


def test_analyze_text_escapes_what_an_ascii_stdout_cannot_encode(tmp_path):
    """Text output under an ASCII locale is the UTF-8 text with every non-ASCII
    character backslash-escaped, not a traceback."""
    utf8, ascii_run = run_utf8_and_ascii(*cafe_game_argv(tmp_path))
    text = utf8.stdout.decode("utf-8")
    assert "café" in text and "dilemma: yes \u2014" in text
    expected = text.encode("ascii", "backslashreplace")
    assert (ascii_run.returncode, ascii_run.stderr, ascii_run.stdout) == (0, b"", expected)


def test_analyze_advice_holds(game_file, sanctions_file, tmp_path, capsys):
    advice = write_advice(tmp_path, (((1, 1), 1.0),))
    code, out, _ = run(
        capsys, "analyze", str(game_file),
        "--sanctions", str(sanctions_file), "--advice", str(advice),
    )
    assert code == 0
    assert "advice check (literal): holds" in out


def test_analyze_advice_violated(pd, game_file, tmp_path, capsys):
    # a pointless sanction: player 0 may sanction (C,C), which only hurts
    menus = (
        (
            sanctions.never_sanction(0),
            sanctions.ClassificationFunction(
                owner=0, sanctions=frozenset({((0, 0), 1)}), cost=0.7, self_cost=0.1
            ),
        ),
        (sanctions.never_sanction(1),),
    )
    sg = sanctions.SanctionGame(base=pd, menus=menus)
    sg_path = tmp_path / "pointless.json"
    sg_path.write_text(json.dumps(sanction_game_to_dict(sg)))
    advice = write_advice(tmp_path, (((1, 0), 1.0),))
    code, out, _ = run(
        capsys, "analyze", str(game_file), "--sanctions", str(sg_path),
        "--advice", str(advice), "--mode", "literal",
    )
    assert code == 1
    assert "advice check (literal): VIOLATED — worst_violation 0.1 (player 0, deviation 0)" in out


def test_analyze_exit_2_cases(game_file, sanctions_file, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    missing.write_text("{")
    code, _, err = run(capsys, "analyze", str(missing))
    assert code == 2 and "invalid JSON" in err

    code, _, err = run(capsys, "analyze", str(game_file), "--advice", str(game_file))
    assert code == 2 and "--advice needs --sanctions" in err

    other = games.game_from_table(
        (("C", "D"), ("C", "D")),
        {(0, 0): (1, 1), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (2, 2)},
    )
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(game_to_dict(other)))
    code, _, err = run(capsys, "analyze", str(other_path), "--sanctions", str(sanctions_file))
    assert code == 2 and "different base game" in err

    code, _, err = run(capsys, "analyze", str(game_file), "--sanctions", str(sanctions_file),
                       "--target", "C,Q")
    assert code == 2


def test_analyze_unreadable_files_exit_2(game_file, sanctions_file, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for argv in (
        (str(missing),),
        (str(tmp_path),),
        (str(game_file), "--sanctions", str(missing)),
        (str(game_file), "--sanctions", str(sanctions_file), "--advice", str(missing)),
    ):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
        assert len(errors) == 1 and errors[0].startswith(f"{argv[-1]}: ")


def test_analyze_advice_outside_menus_exit_2(game_file, sanctions_file, tmp_path, capsys):
    # each menu of the PD sanction game has two entries
    for indices in ([0, 2], [-1, 0], [0, 0, 0]):
        advice = tmp_path / "advice.json"
        advice.write_text(json.dumps({"support": [{"profile_indices": indices, "p": 1.0}]}))
        code, out, err = run(
            capsys, "analyze", str(game_file), "--sanctions", str(sanctions_file),
            "--advice", str(advice),
        )
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
        assert len(errors) == 1 and errors[0].startswith(f"{advice}: ")


def test_analyze_values_the_parsers_crashed_on_exit_2(tmp_path, capsys):
    """A sanction profile that is not a string, and JSON integers too large for
    a float as a payoff, a cost or an advice probability."""
    examples = DOCS / "examples"
    game, sanction_game = str(examples / "game.json"), str(examples / "sanctions.json")
    huge = 10 ** 400
    cases = [
        ("game.json", ("utilities", "C,D", 1), huge),
        ("sanctions.json", ("utilities", "D,C", 0), -huge),
        ("sanctions.json", ("classifiers", 0, 1, "cost"), huge),
        ("sanctions.json", ("classifiers", 1, 1, "self_cost"), huge),
        ("sanctions.json", ("classifiers", 0, 1, "sanctions", 0, "profile"), 5),
        ("sanctions.json", ("classifiers", 1, 1, "sanctions", 0, "profile"), ["D", "C"]),
        ("advice.json", ("support", 0, "p"), huge),
    ]
    for k, (name, path, value) in enumerate(cases):
        obj = json.loads((examples / name).read_text())
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / f"{k}_{name}"
        bad.write_text(json.dumps(obj))
        argv = {"game.json": (str(bad),),
                "sanctions.json": (game, "--sanctions", str(bad)),
                "advice.json": (game, "--sanctions", sanction_game, "--advice", str(bad))}[name]
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 2 and out == "", argv
        errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
        assert len(errors) == 1 and errors[0].startswith(f"{bad}: "), errors


SIM_CONFIG = {
    "env": {
        "institutions": [{"name": "Ophilia", "crop": "apples", "authoritative": True}],
        "num_background": 2,
        "background_mode": "follow_authoritative",
        "max_timesteps": 4,
        "eval_window": 2,
    },
    "focal": "normative",
}


def write_config(tmp_path, obj, name="sim.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_simulate_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, "simulate", str(config), "--out", str(out_dir))
    assert code == 0 and err == ""
    assert "alignment vs institution 0: 1.000000" in out
    assert "alignment vs community modal: 1.000000" in out
    assert "steps to convergence: 0" in out
    transcript = (out_dir / "transcript.txt").read_text()
    assert transcript.startswith("=" * 50)
    assert "sk-" not in transcript
    episode = json.loads((out_dir / "episode.json").read_text())
    assert len(episode["steps"]) == 4

    # same config, same bytes
    rerun = tmp_path / "rerun"
    run(capsys, "simulate", str(config), "--out", str(rerun))
    assert (out_dir / "transcript.txt").read_bytes() == (rerun / "transcript.txt").read_bytes()
    assert (out_dir / "episode.json").read_bytes() == (rerun / "episode.json").read_bytes()


def test_simulate_seed_override(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    code, _, _ = run(capsys, "simulate", str(config), "--seed", "9",
                     "--out", str(tmp_path / "seeded"))
    assert code == 0
    episode = json.loads((tmp_path / "seeded/episode.json").read_text())
    assert episode["config"]["seed"] == 9


def test_simulate_json_metrics(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    code, out, _ = run(capsys, "simulate", str(config), "--json",
                       "--out", str(tmp_path / "j"))
    metrics = json.loads(out)
    assert code == 0
    assert metrics["alignment"]["0"] == 1.0
    assert metrics["alignment"]["community_modal"] == 1.0
    assert metrics["steps_to_convergence"] == 0


def test_simulate_config_errors_all_reported(tmp_path, capsys):
    config = write_config(tmp_path, {
        "env": {"institutions": [{"crop": "corn"}], "num_background": -2},
        "focal": "wizard",
    })
    code, _, err = run(capsys, "simulate", str(config))
    assert code == 2
    assert "config error: env.institutions[0] names unknown crop" in err
    assert "config error: env.num_background must be >= 0" in err
    assert "config error: focal must be one of" in err

    code, _, err = run(capsys, "simulate", str(tmp_path / "absent.json"))
    assert code == 2 and "no such file" in err


def test_config_files_rejected_exit_2(tmp_path, capsys):
    duplicated = tmp_path / "dup.json"
    duplicated.write_text('{"experiment": "multi_institution", "experiment": "x", "trials": 1}')
    for command in ("simulate", "experiment"):
        for path, problem in ((duplicated, "duplicate JSON key 'experiment'"),
                              (tmp_path, "is a directory")):
            code, out, err = run(capsys, command, str(path), "--out", str(tmp_path / "o"))
            assert code == 2 and out == ""
            assert err == f"config error: {path}: {problem}\n"
    assert not (tmp_path / "o").exists()

    config = write_config(tmp_path, SIM_CONFIG)
    code, _, err = run(capsys, "simulate", str(config), "--seed", "-1")
    assert code == 2 and err == "config error: --seed: seed must be >= 0\n"


def test_json_integers_too_long_to_convert_exit_2(tmp_path, capsys):
    """An integer of more than 4,300 digits, as an advice probability and as a seed."""
    huge = "9" * 5001
    examples = DOCS / "examples"
    advice = tmp_path / "advice.json"
    advice.write_text(f'{{"support": [{{"profile_indices": [1, 1], "p": {huge}}}]}}')
    code, out, err = run(capsys, "analyze", str(examples / "game.json"), "--sanctions",
                         str(examples / "sanctions.json"), "--advice", str(advice))
    errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
    assert code == 2 and out == "" and len(errors) == 1
    assert errors[0].startswith(f"{advice}: invalid JSON (")

    config = write_config(tmp_path, {**SIM_CONFIG, "env": {**SIM_CONFIG["env"], "seed": 0}})
    config.write_text(config.read_text().replace('"seed": 0', f'"seed": {huge}'))
    code, out, err = run(capsys, "simulate", str(config), "--out", str(tmp_path / "o"))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"config error: {config}: invalid JSON (")
    assert not (tmp_path / "o").exists()


def test_simulate_unstaffable_roster_exit_2(tmp_path, capsys):
    for env, problem in (
        ({"institutions": [{"crop": "apples"}], "num_background": 2},
         "follow_authoritative needs exactly one authoritative institution"),
        ({"institutions": [], "background_mode": "defy_institution"},
         "defy_institution needs an institution to defy"),
        ({"institutions": [{"rotation": ["apples", "bananas"]}],
          "background_mode": "defy_institution"},
         "defy_institution: Ophilia declares bananas, the crop its defiers harvest, at step 1"),
    ):
        config = write_config(tmp_path, {"env": env})
        code, out, err = run(capsys, "simulate", str(config), "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err == f"config error: {problem}\n"
    assert not (tmp_path / "o").exists()


def test_non_finite_and_fractional_settings_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, {
        **SIM_CONFIG, "env": {**SIM_CONFIG["env"], "harvest_reward": float("nan")},
    })
    code, out, err = run(capsys, "simulate", str(config), "--json", "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert err == "config error: env.harvest_reward must be a number\n"

    config = write_config(tmp_path, {
        **SIM_CONFIG, "oracle": {"kind": "scripted", "temperature": float("inf")},
    })
    code, _, err = run(capsys, "simulate", str(config), "--out", str(tmp_path / "o"))
    assert code == 2 and err == "config error: oracle.temperature must be a number\n"

    config = write_config(tmp_path, {
        "experiment": "single_nonauthoritative",
        "num_crops_grid": [2],
        "num_background_grid": [1],
        "trials": 1,
        "env": {"max_timesteps": 8.5},
    }, "exp.json")
    code, out, err = run(capsys, "experiment", str(config), "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert err == "config error: env.max_timesteps must be an integer\n"
    assert not (tmp_path / "o").exists()


def test_settings_whose_welfare_overflows_exit_2(tmp_path, capsys):
    overflow = ("of worst-case welfare overflow a float: lower the rewards, "
                "the sanction costs, the village size or discussion_turns")
    config = write_config(tmp_path, {
        **SIM_CONFIG, "env": {**SIM_CONFIG["env"], "harvest_reward": 1e308},
    })
    code, out, err = run(capsys, "simulate", str(config), "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err == f"config error: env.max_timesteps steps {overflow}\n"

    experiment = {"experiment": "single_nonauthoritative", "num_crops_grid": [2, 3],
                  "num_background_grid": [1, 2], "trials": 1}
    for env, trials, summed in (({"harvest_reward": 1e308}, 1, "max_timesteps steps"),
                                ({"sanction_cost_sent": 1e307}, 1, "max_timesteps steps"),
                                ({"harvest_reward": 1e306}, 500, "trials")):
        config = write_config(tmp_path, {**experiment, "env": env, "trials": trials}, "exp.json")
        code, out, err = run(capsys, "experiment", str(config), "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"config error: {summed} {overflow}\n"
    assert not (tmp_path / "o").exists()

    # just inside the bound: the metrics stay finite, so report reads them back
    config = write_config(tmp_path, {**experiment, "env": {"harvest_reward": 1e306}}, "exp.json")
    code, _, err = run(capsys, "experiment", str(config), "--out", str(tmp_path / "o"))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "report", str(tmp_path / "o/metrics.json"),
                       "--out", str(tmp_path / "r"))
    assert (code, err) == (0, "")


def test_simulate_chat_needs_key(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NORMSIM_API_KEY", raising=False)
    config = write_config(tmp_path, {
        **SIM_CONFIG,
        "oracle": {"kind": "chat", "base_url": "http://localhost:1", "model": "m"},
    })
    code, _, err = run(capsys, "simulate", str(config))
    assert code == 2 and "NORMSIM_API_KEY" in err

    plain = write_config(tmp_path, SIM_CONFIG, "plain.json")
    code, _, err = run(capsys, "simulate", str(plain), "--oracle", "chat")
    assert code == 2 and "oracle.base_url" in err


def test_simulate_oracle_chat_switches_a_scripted_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NORMSIM_API_KEY", raising=False)
    config = write_config(tmp_path, {
        **SIM_CONFIG,
        "oracle": {"kind": "scripted", "base_url": "http://localhost:1", "model": "m"},
    })
    code, _, err = run(capsys, "simulate", str(config), "--out", str(tmp_path / "scripted"))
    assert code == 0 and err == ""
    # past the chat-config check, stopped only by the missing key
    code, out, err = run(capsys, "simulate", str(config), "--oracle", "chat",
                         "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert err == "config error: the chat oracle needs the NORMSIM_API_KEY environment variable\n"
    assert not (tmp_path / "o").exists()


def test_sim_agents_chat_wraps_the_roster_focal():
    from normsim import agents, harness, oracle

    sim = harness.parse_sim_config({
        **SIM_CONFIG, "beta": 0.3, "sanction_threshold": 0.4, "observe_others": False,
        "oracle": {"kind": "chat", "base_url": "http://localhost:1", "model": "m"},
    })
    roster = cli._sim_agents(sim)
    focal = roster[0]
    assert isinstance(focal, oracle.ChatNormativeAgent)
    assert (focal.state.beta, focal.state.sanction_threshold) == (0.3, 0.4)
    assert isinstance(focal._module, agents.NormativeAgent)
    assert focal._module.observe_others is False
    assert focal._ask.func is oracle.chat_oracle and focal._ask.keywords == {"config": sim.chat}
    scripted = agents.build_roster(sim.env, "normative")
    assert [a.crowd for a in roster[1:]] == [a.crowd for a in scripted[1:]]
    assert [a.index for a in roster] == [a.index for a in scripted]

    baseline = cli._sim_agents(dataclasses.replace(sim, focal_kind="baseline"))
    assert isinstance(baseline[0], oracle.ChatBaselineAgent) and baseline[0].index == 0
    assert baseline[0]._ask.keywords == {"config": sim.chat}
    assert [a.crowd for a in baseline[1:]] == [a.crowd for a in scripted[1:]]

    plain = cli._sim_agents(dataclasses.replace(sim, oracle_kind="scripted"))
    assert type(plain[0]) is agents.NormativeAgent and plain[0].state.beta == 0.3


@pytest.mark.parametrize("kind", ["chat", "scripted"])
@pytest.mark.parametrize("timeout", [0, -1.5])
def test_simulate_timeout_must_be_positive_exit_2(tmp_path, capsys, kind, timeout):
    config = write_config(tmp_path, {
        **SIM_CONFIG,
        "oracle": {"kind": kind, "base_url": "http://localhost:1", "model": "m",
                   "timeout_secs": timeout},
    })
    code, out, err = run(capsys, "simulate", str(config), "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert err == "config error: oracle.timeout_secs must be > 0\n"
    assert not (tmp_path / "o").exists()


def test_experiment_and_report(tmp_path, capsys):
    config = write_config(tmp_path, {
        "experiment": "single_nonauthoritative",
        "focal": ["normative", "baseline"],
        "num_crops_grid": [2],
        "num_background_grid": [1, 2],
        "trials": 2,
        "env": {"max_timesteps": 6, "eval_window": 3},
    }, "exp.json")
    out_dir = tmp_path / "exp_out"
    code, out, err = run(capsys, "experiment", str(config), "--out", str(out_dir), "--jobs", "1")
    assert code == 0 and err == ""
    assert "4 cells: 4 ok, 0 skipped, 0 failed" in out
    assert (out_dir / "metrics.csv").exists()

    report_dir = tmp_path / "rep"
    code, out, _ = run(capsys, "report", str(out_dir / "metrics.csv"),
                       "--out", str(report_dir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("experiment")
    assert len(lines) == 3  # header + 2 cells, both kinds folded
    comparison = (report_dir / "comparison.csv").read_text().splitlines()
    assert comparison[0] == cli.harness.COMPARISON_HEADER
    assert len(comparison) == 3

    code, out, _ = run(capsys, "report", str(out_dir / "metrics.json"), "--json")
    cells = json.loads(out)
    assert code == 0 and len(cells) == 2
    assert cells[0]["normative_alignment_comm"] is not None
    assert cells[0]["baseline_alignment_comm"] is not None


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_experiment_json_prints_the_rows_of_metrics_json(tmp_path, capsys, jobs):
    config = write_config(tmp_path, {
        "experiment": "multi_institution",
        "focal": ["normative", "baseline"],
        "num_institutions_grid": [1, 2],
        "num_background_grid": [2],
        "trials": 2,
        "env": {"max_timesteps": 4, "eval_window": 2},
    }, "exp.json")
    out_dir = tmp_path / "exp_out"
    code, out, err = run(capsys, "experiment", str(config), "--out", str(out_dir),
                         "--jobs", jobs, "--json")
    assert (code, err) == (0, "")
    rows = json.loads((out_dir / "metrics.json").read_text())["rows"]
    assert len(rows) == 4
    assert out == json.dumps(rows, indent=2, sort_keys=True) + "\n"


def test_experiment_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {"experiment": "bake_off"}, "bad.json")
    code, _, err = run(capsys, "experiment", str(config))
    assert code == 2 and "config error: experiment must be one of" in err


def test_experiment_failed_cells_exit_1(tmp_path, capsys, monkeypatch):
    from normsim import agents

    def broken_act(self, obs):
        raise RuntimeError("orchard on fire")

    monkeypatch.setattr(agents.NormativeAgent, "act", broken_act)
    config = write_config(tmp_path, {
        "experiment": "single_nonauthoritative",
        "num_crops_grid": [2],
        "num_background_grid": [1],
        "trials": 1,
        "env": {"max_timesteps": 4, "eval_window": 2},
    }, "doomed.json")
    code, out, err = run(capsys, "experiment", str(config), "--out",
                         str(tmp_path / "doomed_out"), "--jobs", "1")
    assert code == 1
    assert "1 failed" in out
    assert "failed cell single_nonauthoritative/normative" in err


@pytest.mark.parametrize("env, grid, error", [
    ({"max_timesteps": 4}, {}, "eval_window must be in [1, max_timesteps]"),
    ({"max_timesteps": 4, "eval_window": 12}, {}, "eval_window must be in [1, max_timesteps]"),
    ({}, {"num_crops_grid": [2, 6]}, "num_crops must be in [2, 5]"),
    ({}, {"num_background_followers_grid": [1]},
     "num_background_followers_grid is now num_background_grid"),
])
def test_experiment_cells_that_cannot_run_are_config_errors(tmp_path, capsys, env, grid, error):
    config = write_config(tmp_path, {
        "experiment": "single_nonauthoritative", "env": env, **grid,
    }, "cells.json")
    code, out, err = run(capsys, "experiment", str(config), "--out", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", f"config error: {error}\n")
    assert not (tmp_path / "out").exists()


def test_report_rejects_mixed_schema(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2 and "unusable metrics file" in err


def _mistyped_json_row(key, value):
    from tests.test_harness import metric_row

    return json.dumps({"rows": [{**metric_row("normative", 0.0, 1.0, 4.0), key: value}]})


@pytest.mark.parametrize("name, text", [
    ("metrics.json", _mistyped_json_row("num_crops", "five")),
    ("metrics.json", _mistyped_json_row("alignment_inst_mean", "0.5")),
    ("metrics.json", _mistyped_json_row("focal_kind", ["normative"])),
    ("metrics.csv", f"{cli.harness.METRICS_HEADER}\nsingle_nonauthoritative,normative,2\n"),
], ids=["text-count", "text-mean", "list-focal-kind", "short-csv-row"])
def test_report_rejects_unusable_rows(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    code, out, err = run(capsys, "report", str(bad))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"unusable metrics file: {bad}: row ")


def out_commands(tmp_path) -> dict:
    """Each command that writes into `--out`, without the `--out` option."""
    experiment = write_config(tmp_path, {
        "experiment": "single_nonauthoritative", "num_crops_grid": [2], "num_background_grid": [1],
        "trials": 1, "env": {"max_timesteps": 4, "eval_window": 2},
    }, "exp.json")
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(cli.harness.METRICS_HEADER + "\n")
    return {"simulate": ["simulate", str(write_config(tmp_path, SIM_CONFIG))],
            "experiment": ["experiment", str(experiment), "--jobs", "1"],
            "report": ["report", str(metrics)]}


def test_unusable_out_directory_exit_2(tmp_path, capsys):
    """A file where `--out` (or its parent) should be a directory is one stderr line and exit 2."""
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in out_commands(tmp_path).values():
        for out_dir in (taken, taken / "sub"):
            code, out, err = run(capsys, *argv, "--out", str(out_dir))
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("unusable --out directory: ")
            assert str(taken) in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("command, name", [
    ("simulate", "transcript.txt"), ("experiment", "metrics.csv"), ("report", "comparison.csv")])
def test_out_file_that_cannot_be_written_exit_2(tmp_path, capsys, command, name):
    """A directory where a command writes a file is one stderr line and exit 2,
    with nothing printed."""
    blocked = tmp_path / "out" / name
    blocked.mkdir(parents=True)
    argv = out_commands(tmp_path)[command]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("unusable --out directory: ")
    assert str(blocked) in err


@pytest.mark.parametrize("name", ["metrics.csv", "metrics.json"])
def test_experiment_with_unusable_metrics_path_runs_no_trial(tmp_path, capsys, monkeypatch, name):
    """A full default grid whose metrics file cannot be written exits 2 before its first trial."""
    calls = []
    monkeypatch.setattr(cli.harness, "run_cell", lambda *args: calls.append(args))
    (tmp_path / "out" / name).mkdir(parents=True)
    config = write_config(tmp_path, {"experiment": "single_nonauthoritative"}, "grid.json")
    code, out, err = run(capsys, "experiment", str(config), "--out", str(tmp_path / "out"))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("unusable --out directory: ") and name in err

"""Seeded fuzz of the simulate and experiment configs, run through `cli.main`.

Every config is either run or refused: exit 0, or exit 2 with one `config
error:` line per problem, and never a traceback. Mutations of the documented
examples write wrong types, out-of-range and huge numbers, drop keys, add
unknown ones and rebuild institution lists; villages are drawn on purpose up to
320 villagers. The one mid-run failure allowed is exit 1 on the learner's
weight underflow, which crowded villages still hit.
"""
import copy
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from normsim import cli

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
UNDERFLOW = "weights must be positive"
CROPS = ("apples", "bananas", "peaches", "oranges", "plums", "corn")

# Any setting may take these; none of them is an accepted value of a setting
# whose size sets what a run costs.
REFUSED = (None, True, "4", [], {}, -1, 2.5, 1e308, float("nan"))
JUNK = REFUSED + (0, 1, 0.5, -0.0, 2**64, 10**300, -1e308)
# What the cost settings take besides REFUSED: runs of at most 320 villagers,
# 20 steps, three discussion turns and two trials.
VILLAGES = (0, 1, 2, 4, 40, 80, 120, 320)
COST = {
    "num_background": VILLAGES,
    "max_timesteps": tuple(range(21)),
    "discussion_turns": (0, 1, 2, 3),
    "trials": (0, 1, 2),
}
GRIDS = {
    "num_crops_grid": (1, 2, 3, 5, 6),
    "num_background_grid": VILLAGES,
    "num_institutions_grid": (1, 2, 3, 6),
}


def value_for(rng, key):
    if key in COST and rng.random() < 0.8:
        return rng.choice(COST[key])
    if key in GRIDS and rng.random() < 0.8:
        return [rng.choice(GRIDS[key]) for _ in range(rng.randint(0, 2))]
    return rng.choice(REFUSED if key in COST or key in GRIDS else JUNK)


def institution(rng):
    entry = rng.choice((
        {"crop": rng.choice(CROPS)},
        {"rotation": [rng.choice(CROPS) for _ in range(rng.randint(0, 3))]},
        {"crop": rng.choice(CROPS), "rotation": [rng.choice(CROPS)]},
        {"name": rng.choice(("Zed", "", 3))},
        rng.choice(JUNK),
    ))
    if isinstance(entry, dict) and rng.random() < 0.5:
        entry["authoritative"] = rng.choice((True, True, False, "yes"))
    return entry


def mutate(rng, obj, special):
    """One mutation of `obj` in place, in its `env` section or at its top level.
    `special` maps a key to a function drawing that key's value."""
    target = obj["env"] if isinstance(obj.get("env"), dict) and rng.random() < 0.6 else obj
    move = rng.randrange(5)
    if move == 0 and target:
        del target[rng.choice(sorted(target))]
    elif move == 1:
        target["colour"] = rng.choice(JUNK)
    else:
        key = rng.choice(sorted(target) or ["colour"])
        if move == 2 and target is not obj and "institutions" in special:
            key = "institutions"
        target[key] = special[key](rng) if key in special else value_for(rng, key)


def simulate_config(rng):
    obj = json.loads((EXAMPLES / "simulate.json").read_text())
    obj["env"]["num_background"] = rng.choice(VILLAGES if rng.random() < 0.5 else (320,))
    obj["focal"] = rng.choice(("normative", "baseline"))
    special = {
        "env": lambda rng: rng.choice(JUNK),
        "institutions": lambda rng: (
            [institution(rng) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.9 else rng.choice(JUNK)),
        "background_mode": lambda rng: rng.choice(
            ("follow_authoritative", "defy_institution", "riot", 3)),
        "focal": lambda rng: rng.choice(("normative", "baseline", "wizard", None)),
        "oracle": lambda rng: rng.choice(
            ({"kind": "chat"}, {"kind": "psychic"}, {"kind": "scripted", "timeout_secs": 0},
             {"kind": "chat", "base_url": "http://localhost:1", "model": "m"}, None)),
    }
    return obj, special


def experiment_config(rng):
    obj = json.loads((EXAMPLES / "experiment.json").read_text())
    obj["experiment"] = rng.choice(("single_nonauthoritative", "multi_institution"))
    obj["trials"] = 1
    obj["num_crops_grid"] = rng.sample((2, 3, 4, 5), 2)
    obj["num_institutions_grid"] = rng.sample((1, 2, 3), 2)
    obj["num_background_grid"] = [rng.choice(VILLAGES[1:4]), rng.choice(VILLAGES[1:])]
    special = {
        "env": lambda rng: rng.choice((
            {rng.choice(("max_timesteps", "eval_window", "discussion_turns", "num_background",
                         "harvest_reward", "seed")): rng.choice((0, 2, 3, 10**300) + REFUSED)},
            rng.choice(JUNK))),
        "focal": lambda rng: rng.choice(
            ("normative", ["baseline"], ["normative", "normative"], [], "wizard", None)),
        "experiment": lambda rng: rng.choice(("multi_institution", "bake_off", 7)),
    }
    return obj, special


@pytest.mark.parametrize("command, build, count", [
    ("simulate", simulate_config, 200),
    ("experiment", experiment_config, 40),
])
def test_every_config_runs_or_is_refused(command, build, count, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NORMSIM_API_KEY", raising=False)
    rng = random.Random(f"config fuzz {command}")
    seen = Counter()
    for k in range(count):
        obj, special = build(rng)
        original = copy.deepcopy(obj)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            mutate(rng, obj, special)
        shown = json.dumps(obj)
        path = tmp_path / f"{k}.json"
        path.write_text(shown)
        flag = ["--json"] if command == "simulate" else ["--jobs", "1"]  # failed cells on stderr
        try:
            code = cli.main([command, str(path), "--out", str(tmp_path / "out"), *flag])
        except Exception as exc:  # noqa: BLE001 - name the config that crashed
            raise AssertionError(f"traceback on {shown}") from exc
        err = capsys.readouterr().err.splitlines()
        if code == 2:
            assert err and all(line.startswith("config error: ") for line in err), shown
        elif code == 1:
            assert err and all(UNDERFLOW in line for line in err), (shown, err)
        else:
            assert code == 0 and err == [], (shown, err)
        seen[code] += 1
        seen["mutated"] += obj != original
        env = obj.get("env") if command == "simulate" else None
        seen["ran 320"] += code != 2 and isinstance(env, dict) and env.get("num_background") == 320
    assert seen[0] and seen[2] and seen["mutated"] > count // 2, seen
    if command == "simulate":
        assert seen["ran 320"] >= 5, seen

"""Acceptance gate: nine end-to-end criteria, one test each.

Each test prints a single `criterion N: PASS` line (visible under -s) and
enforces its runtime budget with time.monotonic. Tolerances are pinned in the
assertions themselves; everything else is exact.
"""
import itertools
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from normsim import cli, games, harness, institutions, oracle, orchard, sanctions
from normsim.agents import build_roster, run_weighted_majority

API_KEY = "sk-normsim-test-000"


def make_pd() -> games.FiniteGame:
    return games.game_from_table(
        [["C", "D"], ["C", "D"]],
        {(0, 0): [3, 3], (0, 1): [0, 5], (1, 0): [5, 0], (1, 1): [1, 1]},
    )


def make_effort() -> games.FiniteGame:
    table = {
        p: [2.0 * sum(p) / 3.0 - x for x in p]
        for p in itertools.product((0, 1), repeat=3)
    }
    return games.game_from_table([["rest", "work"]] * 3, table)


def declaration_menus(game, target, cost, self_cost=0.1):
    return tuple(
        (
            sanctions.never_sanction(owner),
            sanctions.declaration_classifier(game, owner, target, cost, self_cost),
        )
        for owner in range(game.num_players)
    )


def finish(n: int, t0: float, limit: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {n} took {elapsed:.2f}s (budget {limit}s)"
    print(f"criterion {n}: PASS [{elapsed:.2f}s < {limit:g}s]")


def test_criterion_1_feasibility():
    t0 = time.monotonic()
    pd = make_pd()
    sg3 = sanctions.SanctionGame(base=pd, menus=declaration_menus(pd, (0, 0), 3.0))
    report = sanctions.theorem1_feasibility(sg3, (0, 0))
    assert report.enforceable is True
    assert all(p.enforceable for p in report.players)
    transformed = sanctions.apply_transform(sg3, report.witness)
    assert games.is_nash(transformed, (0, 0)) is True

    capped = sanctions.SanctionGame(
        base=pd,
        menus=tuple(
            sanctions.exhaustive_menu(pd, owner, cost=1.0, self_cost=0.1, limit=8)
            for owner in range(2)
        ),
    )
    assert sanctions.theorem1_feasibility(capped, (0, 0)).enforceable is False
    joint = list(sanctions.enumerate_classifier_profiles(capped))
    assert len(joint) == 64
    for profile in joint:
        assert games.is_nash(sanctions.apply_transform(capped, profile), (0, 0)) is False
    finish(1, t0, 1.0)


def test_criterion_2_identity_transform():
    t0 = time.monotonic()
    for game, target in ((make_pd(), (0, 0)), (make_effort(), (1, 1, 1))):
        assert games.detect_cooperation_dilemma(game).has_dilemma
        sg = sanctions.SanctionGame(base=game, menus=declaration_menus(game, target, 2.0))
        witness = sanctions.non_resolving_witness(sg)
        transformed = sanctions.apply_transform(sg, witness)
        assert np.array_equal(transformed.payoffs, game.payoffs)
        assert transformed.action_names == game.action_names
        for player in range(game.num_players):
            assert sanctions.is_dilemma_resolving(game, transformed, player) is False
    finish(2, t0, 1.0)


def random_sanction_game(rng) -> sanctions.SanctionGame:
    shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    names = tuple(tuple(f"a{i}" for i in range(n)) for n in shape)
    table = {
        p: list(rng.integers(-3, 6, size=2))
        for p in itertools.product(*(range(n) for n in shape))
    }
    base = games.game_from_table(names, table)
    menus = []
    for owner in range(2):
        pairs = [
            (profile, t)
            for profile in itertools.product(*(range(n) for n in shape))
            for t in range(2)
            if t != owner
        ]
        menu = [sanctions.never_sanction(owner)]
        for _ in range(int(rng.integers(1, 3))):
            size = int(rng.integers(1, len(pairs) + 1))
            picks = rng.choice(len(pairs), size=size, replace=False)
            menu.append(
                sanctions.ClassificationFunction(
                    owner=owner,
                    sanctions=frozenset(pairs[i] for i in picks),
                    cost=float(rng.uniform(0.1, 2.0)),
                    self_cost=float(rng.uniform(0.0, 0.3)),
                )
            )
        menus.append(tuple(menu))
    return sanctions.SanctionGame(base=base, menus=tuple(menus))


def random_advice(rng, sg) -> sanctions.AdviceDistribution:
    profiles = list(sanctions.enumerate_classifier_profiles(sg))
    weights = rng.random(len(profiles))
    weights /= weights.sum()
    return sanctions.AdviceDistribution(tuple(zip(profiles, map(float, weights))))


def test_criterion_3_ce_verifier():
    t0 = time.monotonic()
    pd = make_pd()
    pointless = sanctions.SanctionGame(
        base=pd,
        menus=(
            (
                sanctions.never_sanction(0),
                sanctions.ClassificationFunction(
                    owner=0, sanctions=frozenset({((0, 0), 1)}), cost=0.7, self_cost=0.1
                ),
            ),
            (sanctions.never_sanction(1),),
        ),
    )
    bad_advice = sanctions.advice_point_mass((1, 0))
    for mode in ("literal", "conditioned"):
        report = sanctions.verify_correlated_equilibrium(pointless, bad_advice, (0, 0), mode=mode)
        assert report.holds is False
        assert abs(report.worst_violation - 0.1) <= 1e-9
        assert report.violating_player == 0

    self_costly = sanctions.SanctionGame(
        base=pd, menus=declaration_menus(pd, (0, 0), 3.0, self_cost=0.25)
    )
    never = sanctions.advice_point_mass((0, 0))
    for mode in ("literal", "conditioned"):
        assert sanctions.verify_correlated_equilibrium(self_costly, never, (0, 0), mode=mode).holds

    rng = np.random.default_rng(1234)
    conditioned_held = 0
    for _ in range(1000):
        sg = random_sanction_game(rng)
        advice = random_advice(rng, sg)
        target = tuple(int(rng.integers(n)) for n in sg.base.payoffs.shape[:-1])
        cond = sanctions.verify_correlated_equilibrium(sg, advice, target, mode="conditioned")
        if cond.holds:
            conditioned_held += 1
            literal = sanctions.verify_correlated_equilibrium(sg, advice, target, mode="literal")
            assert literal.holds, "conditioned CE must imply the unconditional check"
    assert conditioned_held > 50  # the implication was actually exercised
    finish(3, t0, 30.0)


def test_criterion_4_mistake_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(987)
    betas = (0.3, 0.5, 0.7)
    for trial in range(500):
        n = int(rng.integers(1, 9))
        length = int(rng.integers(1, 201))
        beta = betas[int(rng.integers(3))]
        table = rng.integers(0, 2, size=(length, n)).astype(bool)
        outcomes = rng.integers(0, 2, size=length).astype(bool)
        if trial % 2:  # plant a near-perfect expert so the bound actually binds
            table[:, 0] = outcomes
            flips = rng.integers(0, length, size=min(4, length))
            table[flips, 0] ^= True
        predictions = [[bool(x) for x in row] for row in table]
        mistakes, _ = run_weighted_majority(predictions, [bool(o) for o in outcomes], beta)
        m_star = int(min((table[:, k] != outcomes).sum() for k in range(n)))
        bound = (math.log(n) + m_star * math.log(1 / beta)) / math.log(2 / (1 + beta))
        assert mistakes <= bound + 1e-9
    finish(4, t0, 10.0)


def test_criterion_5_experiment_1(tmp_path):
    t0 = time.monotonic()
    cfg = harness.ExperimentConfig(
        "single_nonauthoritative", focal_kinds=("normative", "baseline")
    )
    rows = harness.run_experiment(cfg, tmp_path, jobs=1)
    assert all(r.status == "ok" for r in rows)
    by_key = {(r.focal_kind, r.num_crops, r.num_background): r for r in rows}
    checked = 0
    for (kind, crops, background), row in by_key.items():
        if background < 5:
            continue
        if kind == "normative":
            assert row.alignment_inst_mean <= 0.10, (crops, background)
            assert row.alignment_comm_mean >= 0.90, (crops, background)
        else:
            assert row.alignment_inst_mean >= 0.80, (crops, background)
        checked += 1
    assert checked == 8  # 4 crop counts x 2 focal kinds at num_background 5
    finish(5, t0, 60.0)


def test_criterion_6_experiment_2(tmp_path):
    t0 = time.monotonic()
    cfg = harness.ExperimentConfig("multi_institution", focal_kinds=("normative", "baseline"))
    rows = harness.run_experiment(cfg, tmp_path, jobs=1)
    assert all(r.status == "ok" for r in rows)
    normative = {
        (r.num_institutions, r.num_background): r for r in rows if r.focal_kind == "normative"
    }
    baseline = {
        (r.num_institutions, r.num_background): r for r in rows if r.focal_kind == "baseline"
    }
    assert len(normative) == len(baseline) == 20
    for key, row in normative.items():
        assert row.alignment_inst_mean >= 0.90, key
        assert row.steps_to_convergence_mean <= 8, key
        if key[0] >= 2:  # every default cell; kept explicit to match the claim
            assert baseline[key].alignment_inst_mean < row.alignment_inst_mean, key
    finish(6, t0, 120.0)


def test_criterion_7_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(json.dumps({"experiment": "single_nonauthoritative"}))
    assert cli.main(["experiment", str(exp_cfg), "--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    assert cli.main(["experiment", str(exp_cfg), "--out", str(tmp_path / "j8"), "--jobs", "8"]) == 0
    assert (tmp_path / "j1/metrics.csv").read_bytes() == (tmp_path / "j8/metrics.csv").read_bytes()
    assert (tmp_path / "j1/metrics.json").read_bytes() == (tmp_path / "j8/metrics.json").read_bytes()

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "env": {
            "institutions": [{"crop": "apples", "authoritative": True}],
            "num_background": 3,
            "background_mode": "follow_authoritative",
            "seed": 42,
        },
    }))
    assert cli.main(["simulate", str(sim_cfg), "--out", str(tmp_path / "s1")]) == 0
    assert cli.main(["simulate", str(sim_cfg), "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1/transcript.txt").read_bytes() == (tmp_path / "s2/transcript.txt").read_bytes()
    capsys.readouterr()  # swallow the CLI chatter; the PASS line comes next
    finish(7, t0, 120.0)


TRANSCRIPT_GOLDEN = """\
==================================================
Time: 8:00 AM
==================================================

classification institution SIGNALS:
Ophilia's Message: Valued citizens of Skymeadow, let's focus on harvesting apples. It is important for the prosperity of our community!

DISCUSSION PHASE:

----- Discussion, Turn 1/1 -----
(Me) Alice: "I'm new to Skymeadow and eager to be a good citizen."
John: "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow."
Anthony: "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow."

ACTIONS:
Alice: Harvest apple from apple tree
John: Harvest apple from apple tree
Anthony: Harvest apple from apple tree

==================================================
Time: 8:30 AM
==================================================

classification institution SIGNALS:
Ophilia's Message: Valued citizens of Skymeadow, let's focus on harvesting apples. It is important for the prosperity of our community!

DISCUSSION PHASE:

----- Discussion, Turn 1/1 -----
(Me) Alice: "I'm watching what the community values before committing to a crop."
John: "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow."
Anthony: "Chieftain Ophilia has spoken; let's all harvest apples for the good of Skymeadow."

ACTIONS:
Alice: Harvest apple from apple tree
John: Harvest apple from apple tree
Anthony: Harvest apple from apple tree

"""


def test_criterion_8_transcript_golden():
    t0 = time.monotonic()
    cfg = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=0, authoritative=True),),
        num_background=2,
        background_mode="follow_authoritative",
        max_timesteps=2,
        eval_window=2,
    )
    text = orchard.render_transcript(orchard.run_episode(cfg, build_roster(cfg, "normative")), cfg)
    assert "Time: 8:00 AM" in text and "Time: 8:30 AM" in text
    assert text == TRANSCRIPT_GOLDEN
    finish(8, t0, 1.0)


class MockChatHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep pytest output clean
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        if self.server.mode == "401":
            payload = b'{"error": "bad key"}'
            self.send_response(401)
        else:
            if self.server.mode == "malformed":
                content = "that is not a harvest plan"
            elif self.server.mode == "action":
                content = '```json\n{"action": "apples"}\n```'
            else:
                content = '```json\n{"utterance": "Good morning, Skymeadow!", "criticisms": []}\n```'
            payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def test_criterion_9_chat_contract(tmp_path, capsys, monkeypatch):
    t0 = time.monotonic()
    monkeypatch.setenv(oracle.API_KEY_VAR, API_KEY)
    server = ThreadingHTTPServer(("127.0.0.1", 0), MockChatHandler)
    server.mode, server.seen = "action", []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base_url = f"http://127.0.0.1:{server.server_address[1]}/v1"
    config = oracle.ChatConfig(base_url=base_url, model="mock-chat", timeout_secs=5.0)
    obs = orchard.Observation(
        t=0, agent_index=0, agent_names=("Alice",), crop_names=("apples", "bananas"),
        signals=(), last_step_actions=(), last_step_criticisms=(),
        discussion_so_far=(),
    )
    req = oracle.OracleRequest(
        oracle.ACTION_SELECTION, oracle.AgentProfile(name="Alice", kind="baseline"), obs
    )
    try:
        # well-formed response parsed
        resp = oracle.chat_oracle(req, config, sleep=lambda s: None)
        assert resp.action == 0
        assert server.seen[-1]["path"] == "/v1/chat/completions"
        assert server.seen[-1]["auth"] == f"Bearer {API_KEY}"

        # malformed response: exactly CHAT_ATTEMPTS tries, then an error
        server.mode = "malformed"
        before = len(server.seen)
        with pytest.raises(oracle.OracleError, match="after 3 attempts"):
            oracle.chat_oracle(req, config, sleep=lambda s: None)
        assert len(server.seen) - before == 3

        # 401 aborts on the first try
        server.mode = "401"
        before = len(server.seen)
        with pytest.raises(oracle.OracleError, match=oracle.API_KEY_VAR):
            oracle.chat_oracle(req, config, sleep=lambda s: None)
        assert len(server.seen) - before == 1

        # a full chat-backed episode leaks no key into any output file
        server.mode = "discussion"
        sim_cfg = tmp_path / "chat_sim.json"
        sim_cfg.write_text(json.dumps({
            "env": {
                "institutions": [{"crop": "apples", "authoritative": True}],
                "num_background": 2,
                "background_mode": "follow_authoritative",
                "max_timesteps": 2,
                "eval_window": 2,
            },
            "oracle": {"kind": "chat", "base_url": base_url, "model": "mock-chat"},
        }))
        out_dir = tmp_path / "chat_out"
        assert cli.main(["simulate", str(sim_cfg), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        transcript = (out_dir / "transcript.txt").read_text()
        assert "Good morning, Skymeadow!" in transcript  # model text did flow through
        for path in out_dir.rglob("*"):
            assert API_KEY not in path.read_text(), path
        assert any(API_KEY in (hit["auth"] or "") for hit in server.seen)
    finally:
        server.shutdown()
        server.server_close()
    finish(9, t0, 5.0)

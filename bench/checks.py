"""Output checks that recompute results from the generated inputs.

They follow the definitions in docs/config.md and the module docstrings, not
normsim's code paths: a sanction cost is the owner's self-cost per sanction it
issues at the profile plus every other player's cost for sanctioning the
player there. Only the order of float additions is kept the same where the
program compares floats exactly (the Nash test behind the witness).
"""
from __future__ import annotations

import itertools
import json
from collections import Counter

from inputs import ACTION_NAMES, AnalyzeRequest

TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _parse_key(key: str) -> tuple[int, ...]:
    return tuple(ACTION_NAMES.index(name) for name in key.split(","))


class _Costs:
    """Sanction costs of one request's menus."""

    def __init__(self, req: AnalyzeRequest):
        self.req = req
        self.sets = [[frozenset(c.sanctions) for c in menu] for menu in req.menus]

    def cost(self, cls, profile, player) -> float:
        own = self.req.menus[player][cls[player]]
        cost = own.self_cost * sum(1 for p, _ in own.sanctions if p == profile)
        for j, idx in enumerate(cls):
            if j != player and (profile, player) in self.sets[j][idx]:
                cost += self.req.menus[j][idx].cost
        return cost

    def self_part(self, player, k, profile) -> float:
        own = self.req.menus[player][k]
        return own.self_cost * sum(1 for p, _ in own.sanctions if p == profile)

    def imposed(self, j, k, profile, player) -> float:
        return self.req.menus[j][k].cost if (profile, player) in self.sets[j][k] else 0.0


def _payoff(req, profile, player) -> float:
    return req.payoffs[profile][player]


def _deviations(req, profile, player):
    return [profile[:player] + (a,) + profile[player + 1 :] for a in range(req.actions)]


def _is_nash_under(req, costs: _Costs, cls, target) -> bool:
    for i in range(req.players):
        utils = [_payoff(req, p, i) - costs.cost(cls, p, i) for p in _deviations(req, target, i)]
        if max(utils) != utils[target[i]]:
            return False
    return True


def _first_witness(req, costs: _Costs, target):
    """First classifier profile whose transform makes `target` Nash, trying
    the all-never profile first and then lexicographic order."""
    never = tuple(next(k for k, c in enumerate(menu) if not c.sanctions) for menu in req.menus)
    rest = itertools.product(*(range(len(m)) for m in req.menus))
    for cls in itertools.chain([never], (c for c in rest if c != never)):
        if _is_nash_under(req, costs, cls, target):
            return cls
    return None


def _ce(req, costs: _Costs, target) -> float:
    """Worst CE margin. A player's deviation only changes its own classifier,
    so the others' sanctions cancel and only self-costs at the target remain."""
    worst = 0.0
    for i in range(req.players):
        own = [costs.self_part(i, k, target) for k in range(len(req.menus[i]))]
        if req.mode == "literal":
            expected = sum(p * own[cls[i]] for cls, p in req.advice)
            margins = [expected - own[d] for d in range(len(own))]
        else:
            mass = Counter()
            for cls, p in req.advice:
                if p > 0.0:
                    mass[cls[i]] += p
            margins = [m * (own[r] - own[d]) for r, m in mass.items() for d in range(len(own))]
        worst = max([worst] + margins)
    return worst


def check_analyze(req: AnalyzeRequest, rc, stdout: str) -> list[str]:
    """Problems with one analyze request's exit code and JSON output."""
    where = req.name
    if rc not in (0, 1):
        return []  # counted as a failed request, not a wrong answer
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{where}: stdout is not JSON ({exc})"]
    problems = []
    totals = {p: sum(v) for p, v in req.payoffs.items()}
    sw = _parse_key(out["dilemma"]["sw_profile"])
    if not _close(totals[sw], max(totals.values())):
        problems.append(f"{where}: sw_profile {sw} is not a welfare optimum")

    costs = _Costs(req)
    feas = out["feasibility"]
    target = _parse_key(feas["target"])
    if target != sw:
        problems.append(f"{where}: target {target} is not the welfare optimum {sw}")
    all_enforceable = True
    for i, entry in enumerate(feas["players"]):
        utils = [_payoff(req, p, i) for p in _deviations(req, target, i)]
        delta = max(utils) - utils[target[i]]
        punish = target if delta == 0.0 else _deviations(req, target, i)[utils.index(max(utils))]
        others = [j for j in range(req.players) if j != i]
        minimax = -min(costs.self_part(i, k, punish) for k in range(len(req.menus[i]))) - sum(
            max(costs.imposed(j, k, punish, i) for k in range(len(req.menus[j]))) for j in others
        )
        if not _close(entry["delta"], delta):
            problems.append(f"{where}: player {i} delta {entry['delta']} != {delta}")
        if _parse_key(entry["punish_profile"]) != punish:
            problems.append(f"{where}: player {i} punish profile differs")
        if not _close(entry["minimax"], minimax):
            problems.append(f"{where}: player {i} minimax {entry['minimax']} != {minimax}")
        enforceable = entry["delta"] == 0.0 or -entry["delta"] > entry["minimax"]
        if entry["enforceable"] != enforceable:
            problems.append(f"{where}: player {i} enforceable flag is wrong")
        all_enforceable &= enforceable
    if feas["enforceable"] != all_enforceable:
        problems.append(f"{where}: overall enforceable flag is wrong")
    witness = _first_witness(req, costs, target) if all_enforceable else None
    reported = tuple(feas["witness"]) if feas["witness"] is not None else None
    if reported != witness:
        problems.append(f"{where}: witness {reported} != {witness}")

    advice = out["advice"]
    worst = _ce(req, costs, target)
    holds = worst <= TOL
    if advice["mode"] != req.mode or advice["holds"] != holds:
        problems.append(f"{where}: advice holds={advice['holds']} ({advice['mode']}), expected {holds}")
    elif not holds and not _close(advice["worst_violation"], worst):
        problems.append(f"{where}: worst_violation {advice['worst_violation']} != {worst}")
    if rc != (0 if holds else 1):
        problems.append(f"{where}: exit code {rc}, expected {0 if holds else 1}")
    return problems


def _modal(actions) -> int:
    counts = Counter(actions)
    best = max(counts.values())
    return min(c for c, k in counts.items() if k == best)


def check_village(config: dict, dump: dict) -> list[str]:
    """Problems with the completed steps of one crowded_village episode:
    scripted villagers' crops and criticisms, and every reward."""
    env = dump["config"]
    insts = env["institutions"]
    n = env["num_background"] + 1
    if env["background_mode"] == "follow_authoritative":
        declared = next(inst["crop"] for inst in insts if inst["authoritative"])
        expected_crop = declared
    else:
        declared = insts[0]["crop"]
        expected_crop = 0 if declared != 0 else 1
    problems = []
    last = None
    for step in dump["steps"]:
        where = f"N={n - 1} {env['background_mode']} step {step['t']}"
        actions = step["actions"]
        if len(actions) != n or any(not 0 <= a < env["num_crops"] for a in actions):
            problems.append(f"{where}: bad action vector")
            break
        if any(a != expected_crop for a in actions[1:]):
            problems.append(f"{where}: a scripted villager left crop {expected_crop}")
        received, sent = Counter(), Counter()
        for entry in step["discussion"]:
            targets = sorted(c["target"] for c in entry["criticisms"])
            for c in entry["criticisms"]:
                received[c["target"]] += 1
                sent[c["sender"]] += 1
            k = entry["speaker"]
            if k == 0 or last is None:
                continue
            if env["background_mode"] == "follow_authoritative":
                want = [j for j, a in enumerate(last) if j != k and a != declared]
            else:
                want = [j for j, a in enumerate(last) if j != k and a == declared]
            if targets != want:
                problems.append(f"{where}: villager {k} criticized {targets[:5]}..., expected {want[:5]}...")
                break
        frac = actions.count(_modal(actions)) / len(actions)
        rewards = [
            env["harvest_reward"]
            + env["monoculture_bonus"] * frac
            - env["sanction_cost_received"] * received[i]
            - env["sanction_cost_sent"] * sent[i]
            for i in range(n)
        ]
        if rewards != step["rewards"]:
            problems.append(f"{where}: rewards differ from the reward rule")
        last = actions
    if env["num_background"] != config["env"]["num_background"]:
        problems.append("episode config does not match the generated input")
    return problems

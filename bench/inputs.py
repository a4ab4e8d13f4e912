"""Seeded input generation for the three workloads.

Everything here depends only on the workload seed and the standard library;
nothing imports normsim, so the program under test sees nothing but the
generated inputs. The same seed always yields the same inputs (and the same
`input_digest`).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

ACTION_NAMES = ("C", "D", "W")
CROPS = ("apples", "bananas", "peaches", "oranges", "plums")

# sanction_analysis request cells. Every (players, actions, menu, support,
# mode) combination appears once per round, except that the 3-player
# full-support menus-16 cell (~3 s of CE per request) is drawn for one action
# count only, which keeps a round near 10 s on 2 vCPUs. The rounds take the
# action counts in turn from a seed-chosen start, so every run holds the same
# number of each.
PLAYERS = (2, 3)
ACTIONS = (2, 3)
MENU_KINDS = ("declaration", "exhaustive4", "exhaustive8", "exhaustive16")
SUPPORTS = ("point", "sparse", "full")
MODES = ("literal", "conditioned")
SPARSE_SIZE = 8
DECLARATION_COSTS = 3
# Witness-search cost depends on the drawn payoffs (0.1 s to 3 s for one
# 3-player menus-16 request), so a run cycles through several distinct rounds;
# with one, throughput swings by a third between seeds.
ANALYZE_ROUNDS = 4
# The 2-player full-support requests of these two menu kinds make the
# sanction_analysis scaling ratio.
SCALING_PAIR = ("exhaustive8", "exhaustive16")

# crowded_village: the scaling pair of N, in villagers besides the focal agent.
VILLAGE_SIZES = (320, 80)
VILLAGE_MODES = ("follow_authoritative", "defy_institution")
VILLAGE_INSTITUTIONS = 3
VILLAGE_CROP_COUNTS = (3, 4, 5)

GRID_EXPERIMENTS = ("single_nonauthoritative", "multi_institution")


@dataclass(frozen=True)
class Classifier:
    sanctions: tuple[tuple[tuple[int, ...], int], ...]  # sorted (profile, target) pairs
    cost: float
    self_cost: float


@dataclass(frozen=True)
class AnalyzeRequest:
    """One `normsim analyze game --sanctions sg --advice adv --mode M --json` call."""

    name: str
    players: int
    actions: int
    menu_kind: str
    support_kind: str
    mode: str
    payoffs: dict  # profile tuple -> payoff tuple
    menus: tuple[tuple[Classifier, ...], ...]
    advice: tuple[tuple[tuple[int, ...], float], ...]

    def game_json(self) -> dict:
        names = [list(ACTION_NAMES[: self.actions]) for _ in range(self.players)]
        return {
            "players": self.players,
            "actions": names,
            "utilities": {
                profile_key(profile): list(values) for profile, values in self.payoffs.items()
            },
        }

    def sanctions_json(self) -> dict:
        obj = self.game_json()
        obj["classifiers"] = [
            [
                {
                    "sanctions": [
                        {"profile": profile_key(profile), "target": target}
                        for profile, target in c.sanctions
                    ],
                    "cost": c.cost,
                    "self_cost": c.self_cost,
                }
                for c in menu
            ]
            for menu in self.menus
        ]
        return obj

    def advice_json(self) -> dict:
        return {
            "support": [
                {"profile_indices": list(profile), "p": p} for profile, p in self.advice
            ]
        }


def profile_key(profile) -> str:
    return ",".join(ACTION_NAMES[a] for a in profile)


def _profiles(players: int, actions: int):
    return list(itertools.product(range(actions), repeat=players))


def welfare_optimum(payoffs: dict) -> tuple[int, ...]:
    """Highest payoff sum, first in lexicographic order on ties."""
    best = max(sum(v) for v in payoffs.values())
    return next(p for p in sorted(payoffs) if sum(payoffs[p]) == best)


def _exhaustive_menu(players, actions, owner, cap, cost, self_cost):
    """The first `cap` sanction sets over the owner's (profile, target) pairs,
    smallest first, then lexicographic; the first is the empty set."""
    pairs = sorted(
        (profile, t) for profile in _profiles(players, actions) for t in range(players) if t != owner
    )
    menu = []
    for size in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, size):
            menu.append(Classifier(tuple(combo), cost, self_cost))
            if len(menu) == cap:
                return tuple(menu)
    return tuple(menu)


def _declaration_menu(players, actions, owner, target, costs, self_cost):
    """Never-sanction plus one declaration classifier per cost: each sanctions
    every other player wherever that player's action leaves `target`."""
    pairs = tuple(
        sorted(
            (profile, t)
            for profile in _profiles(players, actions)
            for t in range(players)
            if t != owner and profile[t] != target[t]
        )
    )
    return (Classifier((), 0.0, 0.0),) + tuple(Classifier(pairs, c, self_cost) for c in costs)


def _advice(rng: random.Random, menus, support_kind):
    sizes = [len(m) for m in menus]
    total = 1
    for s in sizes:
        total *= s
    if support_kind == "point":
        return ((tuple(rng.randrange(s) for s in sizes), 1.0),)
    if support_kind == "sparse":
        flat = sorted(rng.sample(range(total), min(SPARSE_SIZE, total)))
    else:
        flat = range(total)
    profiles = []
    for index in flat:
        digits = []
        for s in reversed(sizes):
            index, d = divmod(index, s)
            digits.append(d)
        profiles.append(tuple(reversed(digits)))
    weights = [rng.randint(1, 9) for _ in profiles]
    norm = sum(weights)
    return tuple((p, w / norm) for p, w in zip(profiles, weights))


def _analyze_request(rng, index, players, actions, menu_kind, support_kind, mode):
    payoffs = {
        p: tuple(rng.randint(0, 20) / 20 for _ in range(players)) for p in _profiles(players, actions)
    }
    self_cost = rng.choice((0.0, 0.05, 0.1))
    if menu_kind == "declaration":
        target = welfare_optimum(payoffs)
        costs = sorted(rng.sample(range(1, 21), DECLARATION_COSTS))
        menus = tuple(
            _declaration_menu(players, actions, i, target, [c / 20 for c in costs], self_cost)
            for i in range(players)
        )
    else:
        cap = int(menu_kind.removeprefix("exhaustive"))
        cost = rng.randint(1, 20) / 20
        menus = tuple(
            _exhaustive_menu(players, actions, i, cap, cost, self_cost) for i in range(players)
        )
    advice = _advice(rng, menus, support_kind)
    name = f"r{index:03d}-{players}p{actions}a-{menu_kind}-{support_kind}-{mode}"
    return AnalyzeRequest(name, players, actions, menu_kind, support_kind, mode, payoffs, menus, advice)


def analyze_rounds(seed: int) -> list[list[AnalyzeRequest]]:
    """The distinct request rounds of one sanction_analysis run."""
    return [_analyze_round(seed, k) for k in range(ANALYZE_ROUNDS)]


def _analyze_round(seed: int, round_index: int) -> list[AnalyzeRequest]:
    """One round of sanction_analysis requests, in seed-shuffled order."""
    start = random.Random(f"sanction_analysis/{seed}").randrange(len(ACTIONS))
    heavy_actions = ACTIONS[(start + round_index) % len(ACTIONS)]
    rng = random.Random(f"sanction_analysis/{seed}/{round_index}")
    cells = [
        (p, a, m, s, mode)
        for p in PLAYERS
        for a in ACTIONS
        for m in MENU_KINDS
        for s in SUPPORTS
        for mode in MODES
        if not (p == 3 and m == "exhaustive16" and s == "full" and a != heavy_actions)
    ]
    rng.shuffle(cells)
    requests = []
    for i, (p, a, m, s, mode) in enumerate(cells):
        cell_rng = rng
        if p == 2 and s == "full" and m in SCALING_PAIR:
            # Both requests of a scaling pair face the same game and costs.
            cell_rng = random.Random(f"sanction_analysis/{seed}/{round_index}/{a}/{mode}")
        requests.append(_analyze_request(cell_rng, i, p, a, m, s, mode))
    return requests


def village_configs(seed: int) -> list[dict]:
    """`normsim simulate` configs: N=320 and N=80 villagers, follow and defy
    backgrounds, normative focal agent with every other setting at its default.

    The focal agent first harvests the lowest declared crop, and whether the
    villagers then criticize it, and the crop count, set how much work the next
    steps do. So per (N, mode) every crop count meets every rank of the key
    institution (the one villagers follow or defy) among the declared crops.
    """
    rng = random.Random(f"crowded_village/{seed}")
    configs = []
    for n in VILLAGE_SIZES:
        for mode in VILLAGE_MODES:
            for num_crops, rank in itertools.product(VILLAGE_CROP_COUNTS, range(VILLAGE_INSTITUTIONS)):
                declared = sorted(rng.sample(range(num_crops), VILLAGE_INSTITUTIONS))
                key = declared[rank]
                order = [c for c in declared if c != key]
                rng.shuffle(order)
                if mode == "defy_institution":
                    order.insert(0, key)  # villagers defy the first institution
                else:
                    order.insert(rng.randrange(VILLAGE_INSTITUTIONS), key)
                configs.append(
                    {
                        "env": {
                            "institutions": [
                                {
                                    "crop": CROPS[c],
                                    "authoritative": mode == "follow_authoritative" and c == key,
                                }
                                for c in order
                            ],
                            "num_background": n,
                            "background_mode": mode,
                            "num_crops": num_crops,
                            "seed": rng.randrange(2**31),
                        },
                        "focal": "normative",
                    }
                )
    return configs


def grid_configs(seed: int) -> list[dict]:
    """Both built-in experiment grids with default axes and both focal kinds."""
    seed_base = random.Random(f"default_grids/{seed}").randrange(2**31)
    return [
        {"experiment": e, "focal": ["normative", "baseline"], "seed_base": seed_base}
        for e in GRID_EXPERIMENTS
    ]


def input_digest(workload: str, seed: int) -> str:
    """sha256 over the canonical JSON of every input the workload receives."""
    h = hashlib.sha256()
    if workload == "sanction_analysis":
        for requests in analyze_rounds(seed):
            for r in requests:
                for part in (r.name, r.mode, r.sanctions_json(), r.advice_json()):
                    h.update(json.dumps(part, sort_keys=True).encode())
    elif workload == "crowded_village":
        h.update(json.dumps(village_configs(seed), sort_keys=True).encode())
    else:
        h.update(json.dumps(grid_configs(seed), sort_keys=True).encode())
    return h.hexdigest()

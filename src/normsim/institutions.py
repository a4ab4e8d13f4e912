"""Classification institutions: the village Chieftains.

Each institution holds the crops it declares, one per step in turn (a single
crop is a constant declaration), and renders the step's crop as a
fixed-template signal. For game-level analysis, a declaration maps to the
joint classifier profile that sanctions exactly the deviations from the
declared crop, wrapped as point-mass advice.

The `authoritative` flag is ground truth for the environment and harness only;
nothing observable by an agent carries it.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import sanctions
from .sanctions import AdviceDistribution, SanctionGame

# Fixed name pool, indexed by institution id.
INSTITUTION_NAMES = ("Ophilia", "Bram", "Cyra", "Dorn", "Elia")

# Canonical crop list; environments use a prefix of it.
CROP_NAMES = ("apples", "bananas", "peaches", "oranges", "plums")

SIGNAL_TEMPLATE = (
    "Valued citizens of Skymeadow, let's focus on harvesting {crop}. "
    "It is important for the prosperity of our community!"
)


@dataclass(frozen=True)
class Institution:
    """A chieftain that declares `crops[t % len(crops)]` at step t: one crop
    every step, or a rotation through several."""

    id: int
    name: str
    crops: tuple[int, ...]
    authoritative: bool = False  # environment/harness ground truth, never observed

    def __post_init__(self):
        if not self.crops:
            raise ValueError("an institution declares at least one crop")

    def crop_at(self, t: int) -> int:
        return self.crops[t % len(self.crops)]


@dataclass(frozen=True)
class InstitutionSignal:
    institution_id: int
    name: str  # public knowledge; carries no authority information
    crop: int
    text: str


def institution_name(idx: int) -> str:
    if 0 <= idx < len(INSTITUTION_NAMES):
        return INSTITUTION_NAMES[idx]
    return f"Chieftain{idx}"


def make_institution(idx: int, crop: int, authoritative: bool = False) -> Institution:
    """An id-named institution that declares `crop` every step."""
    return Institution(idx, institution_name(idx), (crop,), authoritative)


def declare(inst: Institution, t: int, crop_names: tuple[str, ...] = CROP_NAMES) -> InstitutionSignal:
    """The institution's signal at step t. Pure: same inputs, same bytes."""
    if t < 0:
        raise ValueError("timestep must be >= 0")
    crop = inst.crop_at(t)
    if not 0 <= crop < len(crop_names):
        raise ValueError(f"{inst.name} declared crop {crop}, outside the crop list")
    return InstitutionSignal(
        institution_id=inst.id,
        name=inst.name,
        crop=crop,
        text=SIGNAL_TEMPLATE.format(crop=crop_names[crop]),
    )


def advice_profile(inst: Institution, sg: SanctionGame, t: int) -> AdviceDistribution:
    """Point-mass advice on the per-player classifiers that sanction exactly
    the profiles where some target deviates from the declared crop.

    Raises LookupError when a player's menu has no such classifier.
    """
    declared = inst.crop_at(t)
    target = (declared,) * sg.num_players
    indices = []
    for player in range(sg.num_players):
        required = sanctions.declaration_classifier(sg.base, player, target, cost=0.0).sanctions
        found = next(
            (k for k, c in enumerate(sg.menus[player]) if c.sanctions == required), None
        )
        if found is None:
            raise LookupError(
                f"player {player}'s menu has no classifier sanctioning exactly "
                f"deviations from crop {declared} ({inst.name}'s declaration)"
            )
        indices.append(found)
    return sanctions.advice_point_mass(indices)


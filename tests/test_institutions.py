"""Institutions: declarations, signals, and sanction-advice profiles."""
import pytest

from normsim import institutions, sanctions
from tests.conftest import declaration_menus


def test_declaration_text_golden():
    inst = institutions.make_institution(0, crop=0)
    sig = institutions.declare(inst, 0)
    assert sig.institution_id == 0
    assert sig.name == "Ophilia"
    assert sig.crop == 0
    assert sig.text == (
        "Valued citizens of Skymeadow, let's focus on harvesting apples. "
        "It is important for the prosperity of our community!"
    )


def test_constant_and_rotating_policies():
    const = institutions.make_institution(0, crop=2)
    assert const.crops == (2,)
    assert [const.crop_at(t) for t in range(4)] == [2, 2, 2, 2]
    inst = institutions.Institution(id=1, name="Bram", crops=(0, 3, 1))
    assert [inst.crop_at(t) for t in range(5)] == [0, 3, 1, 0, 3]
    assert institutions.declare(inst, 4).crop == 3
    assert "oranges" in institutions.declare(inst, 1).text
    with pytest.raises(ValueError, match="at least one crop"):
        institutions.Institution(id=1, name="Bram", crops=())


def test_institution_names_fall_back():
    assert institutions.make_institution(1, crop=0).name == "Bram"
    assert institutions.make_institution(7, crop=0).name == "Chieftain7"


def test_declare_validation():
    inst = institutions.make_institution(0, crop=4)
    with pytest.raises(ValueError):
        institutions.declare(inst, -1)
    with pytest.raises(ValueError):
        institutions.declare(inst, 0, crop_names=institutions.CROP_NAMES[:2])


def test_advice_profile(pd):
    sg = sanctions.SanctionGame(base=pd, menus=declaration_menus(pd, (0, 0), 3.0))
    inst = institutions.make_institution(0, crop=0)
    advice = institutions.advice_profile(inst, sg, 0)
    # both players are advised the declaration classifier (menu index 1)
    assert advice.support == (((1, 1), 1.0),)
    report = sanctions.verify_correlated_equilibrium(sg, advice, (0, 0))
    assert report.holds


def test_advice_profile_missing_classifier(pd):
    never_only = tuple((sanctions.never_sanction(i),) for i in range(2))
    sg = sanctions.SanctionGame(base=pd, menus=never_only)
    inst = institutions.make_institution(0, crop=0)
    with pytest.raises(LookupError):
        institutions.advice_profile(inst, sg, 0)


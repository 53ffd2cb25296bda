"""Witnesses for verify's checks: each injects one named fault into the program and
asserts that the check it should trip reports failure, so a check that passes
whatever the code does shows here. The checks run at verify_quick's budgets."""

import json
from pathlib import Path

import pytest

from drasim import strategies
from drasim.verification import VERIFY_BUDGETS, _check_credibility, _check_reveal_dominance

QUICK = json.loads((Path(__file__).parent.parent / "configs" / "verify_quick.json").read_text())
BUDGET = {name: QUICK["verify"].get(name, default) for name, (default, _) in VERIFY_BUDGETS.items()}
SEED = QUICK["seed"]


@pytest.fixture
def free_withholding(monkeypatch):
    """The shill kernel without its withheld-collateral term: a withheld false bid
    costs the auctioneer nothing."""
    shill_net = strategies._shill_net

    def without_collateral(chunk, reserve, collateral, false_bids, withhold_winning):
        return shill_net(chunk, reserve, 0.0, false_bids, withhold_winning)

    monkeypatch.setattr(strategies, "_shill_net", without_collateral)


def test_credibility_suite_fails_when_withholding_is_free(free_withholding):
    check = _check_credibility(BUDGET["credibility_samples"], BUDGET["credibility_quantiles"], SEED)
    assert check.name == "credibility_suite" and not check.passed


def test_reveal_dominance_fails_when_withholding_is_free(free_withholding):
    check = _check_reveal_dominance(BUDGET["dominance_samples"] or BUDGET["mc_samples"], SEED)
    assert check.name == "reveal_dominance" and not check.passed

"""Config schema and CLI contract tests: strict validation, exit codes,
deterministic machine-readable output, and the pinned golden run trace."""

import json
from pathlib import Path

import pytest

from drasim import (
    AdaptiveReserve,
    AuctionConfig,
    GeneralizedPareto,
    Honest,
    Lifted,
    ShillBroadcast,
    cli,
    reserve_price,
)
from drasim.cli import main
from drasim.config import ConfigError, build_setup, validate_config

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
FIXTURES = Path(__file__).parent / "fixtures"

BASE = {
    "distribution": {"family": "gpareto", "params": {"shape": 0.5}},
    "n": 2,
    "alpha": 0.5,
    "seed": 0,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        validate_config({**BASE, "samples_count": 10})


def test_unknown_nested_keys_rejected():
    with pytest.raises(ConfigError):
        validate_config({**BASE, "distribution": {"family": "gpareto", "shape": 0.5}})
    with pytest.raises(ConfigError):
        validate_config({**BASE, "auctioneer": {"kind": "shill", "bids": [1.0]}})
    with pytest.raises(ConfigError):
        validate_config({**BASE, "buyers": [{"kind": "truthful", "val": 2.0}]})
    with pytest.raises(ConfigError):
        validate_config({**BASE, "verify": {"samples": 10}})


def test_bad_values_rejected():
    for bad in [{"n": 0}, {"mode": "mesh"}, {"scheme": "rsa"}, {"samples": 0},
                {"seed": -1}, {"collateral": -2.0}, {"engine": "gpu"},
                {"thresholds": []}, {"deviation_quantiles": [1.5]},
                {"collateral": float("inf")}, {"collateral": 10**400},
                {"alpha": float("nan")}, {"thresholds": [float("nan")]},
                {"thresholds": [float("-inf")]}, {"auctioneer": {"kind": ["shill"]}},
                {"auctioneer": {"kind": "adaptive", "threshold": float("nan")}},
                {"auctioneer": {"kind": "adaptive", "threshold": float("inf")}},
                {"auctioneer": {"kind": "adaptive", "threshold": "5"}},
                {"auctioneer": {"kind": "shill", "reveal_policy": ["always"]}},
                {"buyers": [{"kind": "truthful", "value": float("nan")},
                            {"kind": "truthful"}]},
                {"buyers": [{"kind": "fixed", "value": 1.0, "bid": float("inf")},
                            {"kind": "truthful"}]},
                {"verify": {"attack_rel_tol": float("nan")}},
                {"verify": {"attack_rel_tol": 0.0}},
                {"verify": {"mc_samples": "30000"}},
                {"verify": {"lift_runs": 0}},
                {"alpha": 0.0}, {"samples": 999}, {"verify": {"attack_samples": 999}},
                {"distribution": {"family": "gpareto", "params": {"shape": 1.5}}},
                {"distribution": {"family": "gpareto", "params": {"shape": float("nan")}}},
                {"distribution": {"family": "exponential", "params": {"rate": "1"}}},
                {"auctioneer": {"kind": "adaptive", "threshold": 5.0}},  # broadcast
                {"mode": "centralized", "n": 3,
                 "auctioneer": {"kind": "adaptive", "threshold": 5.0}},
                {"mode": "centralized", "auctioneer": {"kind": "shill", "false_bids": [3.0]}},
                {"auctioneer": {"kind": "lifted", "inner": {"kind": "honest"}}}]:
        with pytest.raises(ConfigError):
            validate_config({**BASE, **bad})
    with pytest.raises(ConfigError):
        validate_config({**BASE, "auctioneer": {"kind": "adaptive"}})  # no threshold
    with pytest.raises(ConfigError):
        validate_config({**BASE, "auctioneer": {"kind": "lifted",
                                                "inner": {"kind": "adaptive",
                                                          "threshold": 2.0}}})


@pytest.mark.parametrize("spec,strategy", [
    ({"kind": "honest"}, Honest()),
    ({"kind": "shill", "false_bids": [3.0]}, ShillBroadcast((3.0,))),
    ({"kind": "adaptive", "threshold": 5.0}, AdaptiveReserve(5.0)),
    ({"kind": "lifted", "inner": {"kind": "shill", "false_bids": [3.0]}},
     Lifted(ShillBroadcast((3.0,)))),
], ids=["honest", "shill", "adaptive", "lifted"])
def test_config_accepts_the_settings_that_check_config_accepts(spec, strategy):
    gpa = GeneralizedPareto(0.5)
    for mode in ("broadcast", "centralized"):
        for n in (1, 2, 3):
            try:
                validate_config({**BASE, "mode": mode, "n": n, "auctioneer": spec})
                accepted = True
            except ConfigError:
                accepted = False
            config = AuctionConfig(n=n, dist=gpa, reserve=reserve_price(gpa), collateral=2.0,
                                   mode=mode)
            try:
                strategy.check_config(config)
                runs = True
            except ValueError:
                runs = False
            assert accepted == runs, (mode, n)


def test_setup_builders():
    setup = build_setup({**BASE, "auctioneer": {"kind": "shill",
                                                "false_bid_quantiles": [0.5, 0.9],
                                                "reveal_policy": "withhold_if_winning"}})
    strategy = setup.auctioneer()
    assert strategy.kind == "shill" and len(strategy.false_bids) == 2
    config = setup.auction_config()
    assert config.collateral == pytest.approx(32.0, abs=1e-6)  # formula at alpha=0.5
    buyers = setup.buyers()
    assert len(buyers) == 2


def test_setup_rejects_unrunnable_distributions():
    setup = build_setup({"distribution": {"family": "equal_revenue"}, "n": 1, "seed": 0})
    with pytest.raises(ConfigError):
        setup.auction_config()


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_cli_exit_2_on_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {**BASE, "bogus": 1})
    assert main(["dist", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["dist", "--config", str(bad_json)]) == 2
    path = write_config(tmp_path, {**BASE,
                                   "distribution": {"family": "nope"}}, "f.json")
    assert main(["dist", "--config", path]) == 2
    # command-line overrides are validated like the config's own values
    path = write_config(tmp_path, {**BASE, "samples": 5_000}, "g.json")
    assert main(["estimate", "--config", path, "--samples", "999"]) == 2
    assert main(["estimate", "--config", path, "--seed", "-1"]) == 2


def test_cli_exit_3_on_internal_error(tmp_path, capsys, monkeypatch):
    # an exception from inside the library is neither a failed check nor a config error
    def broken(setup):
        raise ValueError("engine fault")

    monkeypatch.setitem(cli._COMMANDS, "dist", broken)
    assert main(["dist", "--config", write_config(tmp_path, BASE)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: engine fault" in err
    assert "config error" not in err


def test_cli_threshold_below_reserve_exits_2(tmp_path, capsys):
    # gpareto(0.5) has reserve 2, where the attack starts; checked before sampling
    path = write_config(tmp_path, {**BASE, "mode": "centralized", "collateral": 2.0,
                                   "samples": 1 << 18, "thresholds": [5, 1.5]})
    assert main(["attack", "--config", path]) == 2
    assert "thresholds[1] = 1.5 is below the reserve" in capsys.readouterr().err
    path = write_config(tmp_path, {**BASE, "mode": "centralized", "collateral": 2.0,
                                   "auctioneer": {"kind": "adaptive", "threshold": 1.5}},
                        "a.json")
    assert main(["run", "--config", path]) == 2
    assert "auctioneer.threshold = 1.5 is below the reserve" in capsys.readouterr().err
    quick = json.loads((CONFIGS / "verify_quick.json").read_text())
    path = write_config(tmp_path, {**quick, "thresholds": [1.5]}, "v.json")
    assert main(["verify", "--config", path]) == 2


def test_cli_dist_gpareto(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["dist", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reserve"] == pytest.approx(2.0, abs=1e-6)
    assert payload["alpha_hat"] == pytest.approx(0.5, abs=1e-6)
    assert payload["collateral"]["amount"] == pytest.approx(32.0, abs=1e-6)
    assert payload["revenue"]["2"] == pytest.approx(23.0 / 24.0, abs=1e-8)
    assert payload["is_regular"] and not payload["is_mhr"]


def test_cli_dist_equal_revenue_flags_infinite_reserve(tmp_path, capsys):
    path = write_config(tmp_path, {"distribution": {"family": "equal_revenue"},
                                   "n": 2, "seed": 0})
    assert main(["dist", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reserve"] == "infinity"
    assert not payload["reserve_finite"]
    assert payload["alpha_hat"] == pytest.approx(0.0, abs=1e-6)
    assert payload["revenue"] is None and payload["collateral"] is None


def test_cli_run_matches_golden_trace(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["run", "--config", str(CONFIGS / "run_example.json"), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (FIXTURES / "golden_run_seed0.json").read_bytes()


def test_cli_estimate_csv_deterministic(tmp_path):
    path = write_config(tmp_path, {**BASE, "samples": 20_000,
                                   "deviation_quantiles": [0.5, 0.9]})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["estimate", "--config", path, "--out", str(out1)]) == 0
    assert main(["estimate", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "strategy,param,mean,std_error,samples,ci_lo,ci_hi,verdict"
    assert len(lines) == 1 + 1 + 4  # header + honest + 2 quantiles x 2 policies
    assert all(line.endswith("pass") for line in lines[1:])


def test_cli_estimate_single_strategy(tmp_path):
    path = write_config(tmp_path, {**BASE, "samples": 5_000,
                                   "auctioneer": {"kind": "shill", "false_bids": [3.0],
                                                  "reveal_policy": "always"}})
    out = tmp_path / "e.csv"
    assert main(["estimate", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("shill[3]/always")


def test_cli_attack_sweep_and_verdicts(tmp_path):
    path = write_config(tmp_path, {**BASE, "mode": "centralized", "collateral": 2.0,
                                   "samples": 1 << 18, "thresholds": [2, 5, 10]})
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,param,mean,std_error,samples,ci_lo,ci_hi,verdict,quadrature"
    assert len(lines) == 1 + 3 + 1
    assert lines[-1].startswith("summary")
    assert "profitable T found" in lines[-1]
    assert any("profitable" in line for line in lines[1:-1])


def test_cli_attack_exponential_finds_no_profit(tmp_path):
    path = write_config(tmp_path, {
        "distribution": {"family": "exponential", "params": {"rate": 1.0}},
        "n": 2, "mode": "centralized", "collateral": 1.0, "seed": 0,
        "samples": 1 << 18, "thresholds": [1, 2, 5]})
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1].endswith("no profitable T found,")
    assert all(",not_profitable," in line for line in lines[1:-1])


def test_cli_samples_and_seed_overrides(tmp_path, capsys):
    path = write_config(tmp_path, {**BASE, "samples": 10_000})
    assert main(["estimate", "--config", path, "--samples", "2000", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert ",2000," in out


def test_cli_verify_quick_exit_zero(capsys):
    rc = main(["verify", "--config", str(CONFIGS / "verify_quick.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERIFY PASS" in out
    assert out.count("PASS") >= 13


def test_cli_verify_shipped_default_exit_zero(tmp_path):
    out = tmp_path / "verify.txt"
    rc = main(["verify", "--config", str(CONFIGS / "verify_default.json"),
               "--out", str(out)])
    assert rc == 0
    assert "VERIFY PASS (13 checks)" in out.read_text()


def test_cli_verify_byte_identical(tmp_path):
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    cfg = str(CONFIGS / "verify_quick.json")
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_exit_1_names_failing_check(tmp_path):
    # an unreachable oracle-agreement tolerance makes the separation check fail
    quick = json.loads((CONFIGS / "verify_quick.json").read_text())
    quick["verify"]["attack_rel_tol"] = 1e-12
    path = write_config(tmp_path, quick)
    out = tmp_path / "v.txt"
    assert main(["verify", "--config", path, "--out", str(out)]) == 1
    text = out.read_text()
    assert "FAIL separation" in text
    assert text.rstrip().endswith("VERIFY FAIL: separation")

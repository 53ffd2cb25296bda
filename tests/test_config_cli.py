"""Config schema and CLI contract tests: strict validation, exit codes,
deterministic machine-readable output, and the pinned golden run trace."""

import json
import warnings
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
    config,
    reserve_price,
)
from drasim.cli import main
from drasim.config import ConfigError, ExperimentSetup

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
        ExperimentSetup({**BASE, "samples_count": 10})


def test_unknown_nested_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentSetup({**BASE, "distribution": {"family": "gpareto", "shape": 0.5}})
    with pytest.raises(ConfigError):
        ExperimentSetup({**BASE, "auctioneer": {"kind": "shill", "bids": [1.0]}})
    with pytest.raises(ConfigError):
        ExperimentSetup({**BASE, "buyers": [{"kind": "truthful", "val": 2.0}]})
    with pytest.raises(ConfigError):
        ExperimentSetup({**BASE, "verify": {"samples": 10}})
    # each kind of auctioneer takes only the keys it reads
    centralized = {**BASE, "mode": "centralized", "collateral": 2.0}
    for cfg, key, kind in [
            ({**BASE, "auctioneer": {"kind": "honest", "false_bids": [5.0],
                                     "reveal_policy": "withhold_if_winning",
                                     "threshold": 3}}, "false_bids", "honest"),
            ({**BASE, "auctioneer": {"kind": "shill", "false_bids": [3.0], "threshold": 3}},
             "threshold", "shill"),
            ({**BASE, "auctioneer": {"kind": "shill", "inner": {"kind": "honest"}}},
             "inner", "shill"),
            ({**centralized, "auctioneer": {"kind": "adaptive", "threshold": 5.0,
                                            "reveal_policy": "always"}},
             "reveal_policy", "adaptive"),
            ({**centralized, "auctioneer": {"kind": "lifted", "inner": {"kind": "honest"},
                                            "false_bids": [3.0]}}, "false_bids", "lifted"),
            ({**centralized, "auctioneer": {"kind": "lifted",
                                            "inner": {"kind": "honest", "threshold": 3}}},
             "threshold", "honest")]:
        with pytest.raises(ConfigError, match=f"of kind '{kind}'.*'{key}'"):
            ExperimentSetup(cfg)


def test_bad_values_rejected():
    for bad in [{"n": 0}, {"mode": "mesh"}, {"scheme": "rsa"}, {"samples": 0},
                {"seed": -1}, {"collateral": -2.0}, {"engine": "gpu"},
                {"engine": "vector"},  # both engines give the same bits: no key to set
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
                {"distribution": {"family": "exponential", "params": [1.0]}},
                {"auctioneer": {"kind": "adaptive", "threshold": 5.0}},  # broadcast
                {"mode": "centralized", "n": 3,
                 "auctioneer": {"kind": "adaptive", "threshold": 5.0}},
                {"mode": "centralized", "auctioneer": {"kind": "shill", "false_bids": [3.0]}},
                {"auctioneer": {"kind": "shill", "false_bid_quantiles": [1.0]}},
                {"auctioneer": {"kind": "shill", "false_bid_quantiles": [1.5]}},
                {"auctioneer": {"kind": "lifted", "inner": {"kind": "honest"}}}]:
        with pytest.raises(ConfigError):
            ExperimentSetup({**BASE, **bad})
    with pytest.raises(ConfigError):
        ExperimentSetup({**BASE, "auctioneer": {"kind": "adaptive"}})  # no threshold
    with pytest.raises(ConfigError):
        ExperimentSetup({**BASE, "auctioneer": {"kind": "lifted",
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
                ExperimentSetup({**BASE, "mode": mode, "n": n, "auctioneer": spec})
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
    setup = ExperimentSetup({**BASE, "auctioneer": {"kind": "shill",
                                                    "false_bid_quantiles": [0.5, 0.9],
                                                    "reveal_policy": "withhold_if_winning"}})
    strategy = setup.auctioneer
    assert strategy.kind == "shill" and len(strategy.false_bids) == 2
    config = setup.auction_config()
    assert config.collateral == pytest.approx(32.0, abs=1e-6)  # formula at alpha=0.5
    buyers = setup.buyers()
    assert len(buyers) == 2


def test_setup_rejects_unrunnable_distributions():
    setup = ExperimentSetup({"distribution": {"family": "equal_revenue"}, "n": 1, "seed": 0})
    with pytest.raises(ConfigError):
        setup.auction_config()


def test_readme_config_shape_builds():
    # the README's example config is one that config accepts and builds, so a key
    # that config rejects cannot linger there
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Config shape", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    setup = ExperimentSetup(json.loads(block))
    assert setup.auction_config().n == len(setup.buyers()) == 2
    assert setup.auctioneer.describe() == "shill[4.32456]/withhold_if_winning"


def test_run_reads_the_config_in_one_pass(monkeypatch, capsys):
    # one drasim run builds the distribution and the auctioneer once each
    calls = {"make_distribution": 0, "_auctioneer": 0}

    def counted(name):
        function = getattr(config, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(config, name, counted(name))
    assert main(["run", "--config", str(CONFIGS / "run_example.json")]) == 0
    assert calls == {"make_distribution": 1, "_auctioneer": 1}


def test_seed_at_or_above_2_63_refused(tmp_path, capsys):
    # derive_seed reads a seed's low 63 bits, so 2**63 would run as seed 0
    with pytest.raises(ConfigError, match="seed must be < 2\\*\\*63"):
        ExperimentSetup({**BASE, "seed": 2**63})
    assert ExperimentSetup({**BASE, "seed": 2**63 - 1}).seed == 2**63 - 1
    path = write_config(tmp_path, {**BASE, "seed": 2**63})
    assert main(["run", "--config", str(CONFIGS / "run_example.json"),
                 "--seed", str(2**63)]) == 2
    assert main(["dist", "--config", path]) == 2
    assert "seed must be < 2**63" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["truthful", "no_reveal"])
def test_bid_refused_on_a_buyer_that_bids_its_value(kind):
    # only a fixed buyer bids what the config says; on another kind a bid went unread
    with pytest.raises(ConfigError, match="a 'bid' is for kind 'fixed'"):
        ExperimentSetup({**BASE, "buyers": [{"kind": kind, "value": 2.0, "bid": 1.0},
                                            {"kind": "truthful"}]})
    with pytest.raises(ConfigError, match="which requires one"):
        ExperimentSetup({**BASE, "buyers": [{"kind": "fixed", "value": 2.0}, {"kind": kind}]})


@pytest.mark.parametrize("command", ["dist", "run", "verify"])
def test_buyers_list_of_the_wrong_length_exits_2_on_every_command(command, tmp_path, capsys):
    quick = json.loads((CONFIGS / "verify_quick.json").read_text())
    path = write_config(tmp_path, {**quick, "buyers": [{"kind": "truthful"}] * 3})
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: buyers list has 3 entries but n=2" in captured.err


def test_distribution_without_a_required_parameter_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"distribution": {"family": "gpareto", "params": {}},
                                   "n": 2, "seed": 0})
    for command in ("run", "dist"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "config error: distribution: missing params for gpareto: ['shape']" \
            in captured.err


def test_collateral_level_that_overflows_exits_2(tmp_path, capsys):
    # the formula's level overflows a float at alpha = 1e-9, at gpareto(0.999999)'s
    # estimated alpha, about 1e-6, and on exponential(1.6e-307)'s reserve of about
    # 6e306 at its estimated alpha of about 1; dist reports no collateral, as for its
    # other refusals. The one stderr line names the key that sets alpha: the config's
    # alpha, or the distribution, from which alpha is estimated
    tiny = {**BASE, "alpha": 1e-9, "samples": 2_000}
    near_one = {"distribution": {"family": "gpareto", "params": {"shape": 0.999999}},
                "n": 2, "seed": 0, "samples": 2_000}
    large_scale = {"distribution": {"family": "exponential", "params": {"rate": 1.6e-307}},
                   "n": 2, "seed": 0, "samples": 2_000}
    cases = [("run", tiny, "alpha"), ("estimate", tiny, "alpha"),
             ("estimate", near_one, "distribution"),
             ("attack", {**tiny, "mode": "centralized", "thresholds": [5]}, "alpha"),
             ("run", large_scale, "distribution"), ("estimate", large_scale, "distribution"),
             ("attack", {**large_scale, "mode": "centralized"}, "distribution")]
    for i, (command, cfg, key) in enumerate(cases):
        assert main([command, "--config", write_config(tmp_path, cfg, f"{i}.json")]) == 2
        captured = capsys.readouterr()
        (err,) = captured.err.splitlines()
        assert captured.out == ""
        assert err.startswith(f"config error: {key}: the collateral level at alpha="), i
    assert main(["dist", "--config", write_config(tmp_path, tiny)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reserve_finite"] and payload["collateral"] is None


def test_distribution_without_a_density_float_exits_2(tmp_path, capsys):
    # uniform(0, 5e-324)'s density 1 / 5e-324 overflows to inf, which phi refuses;
    # two_point has no density at all, which dist reports as a null phi grid
    path = write_config(tmp_path, {"distribution": {"family": "uniform",
                                                    "params": {"low": 0, "high": 5e-324}},
                                   "n": 2, "seed": 0, "samples": 2_000})
    for command in ("dist", "run", "estimate"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "config error: distribution: pdf is not a positive finite float" in captured.err
    path = write_config(tmp_path, {"distribution": {"family": "two_point"}, "n": 2, "seed": 0},
                        "two_point.json")
    assert main(["dist", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["phi_grid"] is None


def test_parameters_whose_transforms_overflow_exit_2_with_one_line(tmp_path, capsys):
    # refused by name before any transform runs, so numpy warns of nothing, under the
    # console script's filters and under errors: exponential rates at which
    # reserve_price's bracket quantile(1 - 1e-12) overflows, and a gpareto shape whose
    # reciprocal does
    cases = [("exponential", "rate", 5e-324, "quantile(1 - 1e-12) overflows"),
             ("exponential", "rate", 1e-310, "quantile(1 - 1e-12) overflows"),
             ("exponential", "rate", 1e-307, "quantile(1 - 1e-12) overflows"),
             ("gpareto", "shape", 5e-324, "1 / shape overflows")]
    for i, (family, name, value, why) in enumerate(cases):
        path = write_config(tmp_path, {"distribution": {"family": family,
                                                        "params": {name: value}},
                                       "n": 2, "seed": 0, "samples": 2_000}, f"{i}.json")
        line = f"config error: distribution: {name} {value} is too small: {why}"
        for command in ("dist", "run", "estimate"):
            for action in ("default", "error"):
                with warnings.catch_warnings(record=True) as seen:
                    warnings.simplefilter(action)
                    assert main([command, "--config", path]) == 2
                captured = capsys.readouterr()
                assert seen == [] and captured.out == ""
                assert captured.err.splitlines() == [line], (command, action)


def test_refusals_exit_3_with_a_refused_line(tmp_path, capsys):
    # gpareto(0.999999)'s Rev(D^n) quadrature gets QUADPACK return code 1; uniform at
    # alpha 0.01 and n = 7 posts a collateral of about 6e281, whose squares overflow;
    # at a collateral of 2e151 each chunk's sum of squares is finite, and their sum is not
    near_one = {"distribution": {"family": "gpareto", "params": {"shape": 0.999999}},
                "n": 2, "seed": 0}
    huge_collateral = {"distribution": {"family": "uniform", "params": {"low": 0, "high": 1}},
                       "n": 7, "alpha": 0.01, "seed": 0, "samples": 1_000,
                       "auctioneer": {"kind": "shill", "false_bids": [0.9],
                                      "reveal_policy": "withhold_if_winning"}}
    chunks_overflow = {**huge_collateral, "collateral": 2e151, "samples": 1_000_000}
    del chunks_overflow["alpha"]
    cases = [("dist", near_one, "refused: QuadratureError: quadrature tolerance not reached"),
             ("estimate", huge_collateral, "refused: FloatingPointError: non-finite estimate"),
             ("estimate", chunks_overflow, "refused: FloatingPointError: non-finite estimate")]
    for i, (command, cfg, line) in enumerate(cases):
        assert main([command, "--config", write_config(tmp_path, cfg, f"{i}.json")]) == 3
        captured = capsys.readouterr()
        # the one line, with no numpy warning before it (of the squares that overflow)
        (err,) = captured.err.splitlines()
        assert captured.out == "" and err.startswith(line)


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
    # a distribution that cannot run auctions, whatever collateral level it measures
    path = write_config(tmp_path, {"distribution": {"family": "equal_revenue"}, "n": 2,
                                   "seed": 0, "samples": 2_000, "deviation_quantiles": [0.5]},
                        "h.json")
    capsys.readouterr()
    assert main(["estimate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error: distribution: equal_revenue has an infinite reserve price" in err
    assert "Traceback" not in err
    # an auctioneer key its kind does not read, and an out path that cannot be written
    path = write_config(tmp_path, {**BASE, "auctioneer": {
        "kind": "honest", "false_bids": [5.0], "reveal_policy": "withhold_if_winning",
        "threshold": 3}}, "i.json")
    assert main(["estimate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "'threshold'" in err and "'honest'" in err
    out = tmp_path / "missing" / "x.json"
    assert main(["run", "--config", str(CONFIGS / "run_example.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert not out.parent.exists()


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


def test_cli_attack_refuses_a_setting_other_than_its_own(tmp_path, capsys):
    # the sweep prices the centralized two-buyer attack, not a broadcast n = 3 auction
    path = write_config(tmp_path, {**BASE, "n": 3, "collateral": 2.0, "samples": 1 << 12,
                                   "thresholds": [5]})
    assert main(["attack", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "config error: attack: AdaptiveReserve runs on centralized channels" in captured.err


def test_cli_credibility_estimate_refuses_a_centralized_config(tmp_path, capsys):
    # the credibility suite prices broadcast shills, not the centralized setting asked for
    path = write_config(tmp_path, {**BASE, "mode": "centralized", "samples": 2_000,
                                   "deviation_quantiles": [0.5, 0.9]})
    assert main(["estimate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "config error: deviation_quantiles: ShillBroadcast runs on broadcast channels" \
        in captured.err

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


def test_cli_run_takes_only_the_librarys_scheme_names(tmp_path, capsys):
    # "hash", the sha256 scheme's old name, is refused like any other unknown name
    example = json.loads((CONFIGS / "run_example.json").read_text())
    path = write_config(tmp_path, {**example, "scheme": "sha256"}, name="sha256.json")
    assert main(["run", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["scheme"] == "sha256"
    path = write_config(tmp_path, {**example, "scheme": "hash"}, name="hash.json")
    assert main(["run", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: scheme must be ideal|sha256, got 'hash'\n"


def test_cli_refuses_an_out_it_cannot_write_before_any_work(tmp_path, capsys, monkeypatch):
    def never(setup):
        raise AssertionError("verify ran before its out path was checked")

    monkeypatch.setattr(cli, "run_verification", never)
    quick = str(CONFIGS / "verify_quick.json")
    (tmp_path / "file").write_text("kept")
    cases = {tmp_path / "missing" / "x.txt": "No such file or directory",
             tmp_path / "file" / "x.txt": "Not a directory",
             tmp_path: "Is a directory"}
    for out, reason in cases.items():
        assert main(["verify", "--config", quick, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: out: cannot write {out}: {reason}\n"
    # a file, or a new file's directory, that may not be written (root may write
    # anything, so the permission is taken away from os.access)
    monkeypatch.setattr(config.os, "access", lambda path, mode: False)
    for out in (tmp_path / "file", tmp_path / "new.txt"):
        assert main(["verify", "--config", quick, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: out: cannot write {out}: Permission denied\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]  # nothing was created
    assert (tmp_path / "file").read_text() == "kept"


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
    # byte for byte the pinned report: its separation check runs the adaptive
    # attack's pruned kernel at 2^22 samples per threshold
    out = tmp_path / "verify.txt"
    rc = main(["verify", "--config", str(CONFIGS / "verify_default.json"),
               "--out", str(out)])
    assert rc == 0
    assert "VERIFY PASS (13 checks)" in out.read_text()
    assert out.read_bytes() == (FIXTURES / "verify_default.txt").read_bytes()


def test_cli_verify_byte_identical(tmp_path):
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    cfg = str(CONFIGS / "verify_quick.json")
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_quick_matches_its_fixture(capsys):
    # the pinned stdout of verify_quick, so a change across commits shows, not only
    # a change from run to run
    assert main(["verify", "--config", str(CONFIGS / "verify_quick.json")]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "verify_quick.txt").read_bytes()


def test_cli_estimate_credibility_matches_its_fixture(capsys):
    # the pinned stdout of the credibility grid: 41 rows over four chunks, so the
    # helper thread's share of the draw and every kernel's bits show
    assert main(["estimate", "--config", str(CONFIGS / "credibility.json")]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "estimate_credibility.txt").read_bytes()


def test_cli_estimate_credibility_150k_matches_its_fixture(capsys):
    # two full chunks and an 18,928-row tail, each priced in pairwise halves; the
    # fixture was written by the loop that priced every chunk whole
    assert main(["estimate", "--config", str(CONFIGS / "credibility.json"),
                 "--samples", "150000"]) == 0
    assert capsys.readouterr().out.encode() \
        == (FIXTURES / "estimate_credibility_150k.txt").read_bytes()


def test_cli_estimate_credibility_exponential_n3_matches_its_fixture(tmp_path, capsys):
    # the grid on exponential(1) at n = 3, whose reserve is 1: the always rows of the
    # four false bids below it are the honest net and take the honest row's estimate.
    # The fixture was written by the loop that priced every row as its own strategy
    cfg = json.loads((CONFIGS / "credibility.json").read_text())
    cfg["distribution"] = {"family": "exponential", "params": {"rate": 1.0}}
    cfg["n"] = 3
    path = tmp_path / "credibility_exponential_n3.json"
    path.write_text(json.dumps(cfg))
    assert main(["estimate", "--config", str(path), "--samples", "150000"]) == 0
    assert capsys.readouterr().out.encode() \
        == (FIXTURES / "estimate_credibility_exponential_n3.txt").read_bytes()


def test_cli_dist_matches_its_fixture(capsys):
    # the pinned stdout of dist on the default verify config: alpha, reserve, the
    # phi grid, Rev(D^n) and the collateral, each to its last bit
    assert main(["dist", "--config", str(CONFIGS / "verify_default.json")]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "dist_verify_default.json").read_bytes()


@pytest.mark.parametrize("family", ["gpareto", "exponential"])
def test_cli_attack_matches_its_fixture(family, capsys):
    # the pinned stdout of each shipped attack sweep; the exponential rows at
    # T = 20, 50 and 100 read 0.0,0.0 because the sampled stratum sees no paying
    # profile there, a known gap of the estimator that this pins as it stands
    assert main(["attack", "--config", str(CONFIGS / f"attack_{family}.json")]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / f"attack_{family}.csv").read_bytes()


@pytest.mark.parametrize("budget", ["optimality_samples", "dominance_samples"])
def test_cli_verify_refuses_a_budget_it_does_not_have(budget, tmp_path, capsys):
    # optimality and reveal_dominance take mc_samples; no budget of their own
    quick = json.loads((CONFIGS / "verify_quick.json").read_text())
    quick["verify"][budget] = 30000
    assert main(["verify", "--config", write_config(tmp_path, quick)]) == 2
    assert budget in capsys.readouterr().err


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

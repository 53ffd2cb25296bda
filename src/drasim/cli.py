"""Command line interface: dist, run, estimate, attack, verify.

All outputs are machine readable (JSON for single objects and traces, CSV for
sweeps) and deterministic for a fixed config: same bytes on every invocation.
Exit codes: 0 success, 1 a check failed, 2 configuration error, 3 internal
error (an exception raised inside the library, traceback on stderr) or a
refusal. A distribution without a positive density where phi is read
(UndefinedDensityError) is a configuration error, and so is an out path that
cannot be written. The refusals are the library's deliberate refusals to print
a number it cannot stand behind, each with a `refused:` line on stderr and no
traceback: a quadrature that does not reach its tolerance (QuadratureError),
and an estimate whose sum or sum of squares is not finite (FloatingPointError,
from ChunkAccumulator.result).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import traceback

from .config import ConfigError, ExperimentSetup, build_setup, check_setting, load_config
from .distributions import (
    InfiniteReserveError,
    NonRegularError,
    QuadratureError,
    UndefinedDensityError,
    optimal_revenue,
    reserve_price,
    strong_regularity_alpha,
    virtual_value,
)
from .estimators import attack_sweep, credibility_suite, estimate_revenue
from .protocol import run_auction
from .strategies import AdaptiveReserve, ShillBroadcast
from .verification import run_verification

CSV_HEADER = "strategy,param,mean,std_error,samples,ci_lo,ci_hi,verdict"


def _write_out(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out_path}: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def cmd_dist(setup: ExperimentSetup) -> int:
    dist = setup.dist
    report = strong_regularity_alpha(dist)
    payload = {
        "family": dist.kind,
        "params": dist.params,
        "alpha_hat": None if math.isinf(report.alpha_hat) else report.alpha_hat,
        "is_regular": report.is_regular,
        "is_mhr": report.is_mhr,
    }
    try:
        r = reserve_price(dist)
        payload["reserve"] = "infinity" if math.isinf(r) else r
        payload["reserve_finite"] = not math.isinf(r)
    except NonRegularError:
        payload["reserve"] = None
        payload["reserve_finite"] = False
    try:
        grid_u = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        xs = [float(dist.quantile(u)) for u in grid_u]
        payload["phi_grid"] = [[x, float(virtual_value(dist, x))] for x in xs]
    except UndefinedDensityError:
        payload["phi_grid"] = None
    if payload["reserve_finite"]:
        payload["revenue"] = {str(n): optimal_revenue(dist, n).mean for n in (1, 2, 3)}
        try:
            alpha = setup.classification_alpha()
            payload["collateral"] = {"n": setup.n, "alpha": alpha,
                                     "amount": setup.collateral_amount()}
        except (ValueError, InfiniteReserveError):
            payload["collateral"] = None
    else:
        payload["revenue"] = None
        payload["collateral"] = None
    _write_out(json.dumps(payload, indent=2) + "\n", setup.out)
    return 0


def cmd_run(setup: ExperimentSetup) -> int:
    config = setup.auction_config()
    buyers = setup.buyers()
    outcome, transcript = run_auction(config, buyers, setup.auctioneer)
    payload = {
        "config": {
            "n": config.n,
            "distribution": config.dist.spec(),
            "reserve": config.reserve,
            "collateral": config.collateral,
            "mode": config.mode,
            "scheme": config.scheme,
            "seed": config.seed,
        },
        "outcome": outcome.to_json(),
        "transcript": [json.loads(line) for line in transcript.dump_jsonl().splitlines()],
    }
    _write_out(json.dumps(payload, indent=2) + "\n", setup.out)
    return 0


def _csv_row(strategy: str, param: str, est, verdict: str, extra: str = "") -> str:
    row = (f"{strategy},{param},{_fmt(est.mean)},{_fmt(est.std_error)},{est.samples},"
           f"{_fmt(est.ci95[0])},{_fmt(est.ci95[1])},{verdict}")
    return row + (f",{extra}" if extra else "")


def cmd_estimate(setup: ExperimentSetup) -> int:
    config = setup.auction_config()
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    if setup.deviation_quantiles:  # the broadcast shill grid, on the config's setting
        check_setting(ShillBroadcast, setup.mode, setup.n, "deviation_quantiles")
        report = credibility_suite(
            setup.dist, setup.classification_alpha(), setup.n,
            setup.deviation_quantiles, setup.samples, setup.seed,
            collateral_override=config.collateral,
        )
        for row in report.rows:
            buf.write(_csv_row(row.strategy, "", row.estimate,
                               "pass" if row.passed else "fail") + "\n")
    else:
        est = estimate_revenue(config, setup.auctioneer, setup.samples, setup.seed)
        buf.write(_csv_row(setup.auctioneer.describe(), "", est, "na") + "\n")
    _write_out(buf.getvalue(), setup.out)
    return 0


def cmd_attack(setup: ExperimentSetup) -> int:
    check_setting(AdaptiveReserve, setup.mode, setup.n, "attack")  # the sweep's own setting
    config = setup.auction_config()
    rows = attack_sweep(setup.dist, config.collateral, setup.attack_thresholds(setup.dist),
                        setup.samples, setup.seed)
    buf = io.StringIO()
    buf.write(CSV_HEADER + ",quadrature\n")
    any_profit = False
    for row in rows:
        verdict = "profitable" if row.significant else "not_profitable"
        any_profit = any_profit or row.significant
        buf.write(_csv_row("adaptive", _fmt(row.threshold), row.estimate, verdict,
                           extra=_fmt(row.quadrature)) + "\n")
    summary = "profitable T found" if any_profit else "no profitable T found"
    buf.write(f"summary,,,,,,,{summary},\n")
    _write_out(buf.getvalue(), setup.out)
    return 0


def cmd_verify(setup: ExperimentSetup) -> int:
    checks = run_verification(setup)
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"{status} {check.name}: {check.detail}")
    failed = [c.name for c in checks if not c.passed]
    if failed:
        lines.append(f"VERIFY FAIL: {failed[0]}")
    else:
        lines.append(f"VERIFY PASS ({len(checks)} checks)")
    _write_out("\n".join(lines) + "\n", setup.out)
    return 1 if failed else 0


_COMMANDS = {
    "dist": cmd_dist,
    "run": cmd_run,
    "estimate": cmd_estimate,
    "attack": cmd_attack,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drasim", description="Deferred revelation auction lab",
        epilog="verify runs a fixed battery of checks on its own distributions and budgets. "
               "Of the config it reads only the seed, the thresholds and the verify section, "
               "so any valid config, a two_point one too, can print VERIFY PASS.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--samples", type=int, default=None, help="override config samples")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for key in ("samples", "seed", "out"):
            if getattr(args, key) is not None:
                cfg[key] = getattr(args, key)
        setup = build_setup(cfg)  # the overrides are checked too
        return _COMMANDS[args.command](setup)
    except (ConfigError, NonRegularError, InfiniteReserveError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UndefinedDensityError as exc:  # phi of the config's distribution is unreadable
        print(f"config error: distribution: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, FloatingPointError) as exc:  # the refusals: no traceback
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception:  # a fault of the library, not of the config: never exit 1 or 2
        traceback.print_exc()
        print(f"internal error in drasim {args.command}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Generated configs through the CLI: every config runs or is refused by name.

Configs are drawn from the key grammar that drasim.config reads, with values
at the edges of a float (5e-324, 1e-12, 2^53, 1e300) beside ordinary ones, and
run in process at MIN_SAMPLES on run, estimate, dist and attack. The verify
section, which only verify reads, and out, a path to write, are left out. Each command
exits 0, exits 2 with a config error, or exits 3 through one of the refusals
that cli documents; a command that exits 0 prints no NaN and no infinity,
outside dist's "reserve": "infinity"."""

import contextlib
import io
import json
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from drasim.cli import main
from drasim.estimators import MIN_SAMPLES

EDGES = [5e-324, 1e-300, 1e-12, 1e-9, 1e-6, 0.01, 0.25, 0.5, 0.999999, 1.0, 2.0, 5.0,
         100.0, 2.0 ** 53, 1e300]
positive = st.sampled_from(EDGES) | st.floats(1e-3, 100.0)
numbers = positive | st.integers(-2, 200) | st.floats(-10.0, 1e6)  # 0 and below too
levels = st.sampled_from([1e-12, 0.01, 0.5, 0.9, 0.999999]) | st.floats(0.0, 1.0)

FAMILY_PARAMS = {"exponential": {"rate": positive | numbers},
                 "gpareto": {"shape": levels | numbers},
                 "uniform": {"low": numbers, "high": numbers},
                 "equal_revenue": {}, "two_point": {}}


@st.composite
def distributions(draw):
    # the three families that run auctions, half the time
    family = draw(st.sampled_from(["exponential", "gpareto", "uniform"])
                  | st.sampled_from(sorted(FAMILY_PARAMS)))
    params = {name: draw(values) for name, values in FAMILY_PARAMS[family].items()
              if draw(st.integers(0, 5))}  # a missing parameter now and then
    return {"family": family, "params": params}


@st.composite
def buyers(draw, n):
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["truthful", "fixed", "no_reveal"]))
        buyer = {"kind": kind}
        if draw(st.booleans()):
            buyer["value"] = draw(positive | numbers)
        if kind == "fixed":
            buyer["bid"] = draw(positive | numbers)
        out.append(buyer)
    return out


def shill(draw):
    spec = {"kind": "shill",
            "reveal_policy": draw(st.sampled_from(["always", "withhold_if_winning"]))}
    if draw(st.booleans()):
        spec["false_bids"] = draw(st.lists(positive | numbers, max_size=3))
    else:
        spec["false_bid_quantiles"] = draw(st.lists(levels, max_size=3))
    return spec


@st.composite
def auctioneers(draw):
    kind = draw(st.sampled_from(["honest", "shill", "adaptive", "lifted"]))
    if kind == "shill":
        return shill(draw)
    if kind == "adaptive":
        return {"kind": "adaptive", "threshold": draw(positive)}
    if kind == "lifted":
        return {"kind": "lifted", "inner": shill(draw) if draw(st.booleans())
                else {"kind": "honest"}}
    return {"kind": "honest"}


@st.composite
def configs(draw):
    n = draw(st.just(2) | st.integers(1, 7))  # n = 2, the attack's own, half the time
    cfg = {"distribution": draw(distributions()), "n": n, "samples": MIN_SAMPLES,
           "seed": draw(st.integers(0, 2 ** 63 - 1)),
           "mode": draw(st.sampled_from(["broadcast", "centralized"]))}
    optional = {
        "alpha": positive | numbers,
        "scheme": st.sampled_from(["ideal", "sha256", "hash"]),
        "collateral": positive | numbers,
        "buyers": buyers(n),
        "auctioneer": auctioneers(),
        "thresholds": st.lists(positive, min_size=1, max_size=3),
        "deviation_quantiles": st.lists(levels, max_size=3),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(values)
    return cfg


# a NaN or an infinity as JSON, repr or CSV prints it
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(configs())
def test_generated_configs_run_or_are_refused_by_name(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"  # one per example
    path.write_text(json.dumps(cfg))
    for command in ("run", "estimate", "dist", "attack"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            # the console script's warning filters: numpy's overflow warnings print, as
            # they do for a user, where this suite's own filters would raise them
            warnings.simplefilter("default")
            rc = main([command, "--config", str(path)])
        out, err = out.getvalue(), err.getvalue()
        where = f"{command} on {cfg}: exit {rc}\n{err}"
        if rc == 0:
            text = out.replace('"reserve": "infinity"', "") if command == "dist" else out
            assert not NON_FINITE.search(text), where
        elif rc == 2:
            assert "config error: " in err and "Traceback" not in err, where
        else:
            assert rc == 3 and "refused: " in err and "internal error" not in err, where

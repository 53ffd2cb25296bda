"""Experiment configuration: JSON shape validation and object builders.

Configs are strict: unknown keys anywhere are rejected before anything runs,
and every run's randomness flows from the single config seed. A missing seed
defaults to 0 with a warning rather than an entropy source. Config checks the
JSON's shape (keys, types, finite numbers, integer and quantile ranges) and
asks the library for every auction rule, adding the key path and ConfigError.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

from .channels import MODES
from .commitments import SCHEMES, HashScheme
from .distributions import (
    InfiniteReserveError,
    NonRegularError,
    ValueDistribution,
    _require_regular_finite_reserve,
    at_or_above_reserve,
    collateral as collateral_level,
    make_distribution,
    reserve_price,
    strong_regularity_alpha,
)
from .estimators import MIN_SAMPLES, sample_values
from .protocol import AuctionConfig
from .strategies import (
    ALWAYS_REVEAL,
    REVEAL_POLICIES,
    AdaptiveReserve,
    FixedBid,
    Honest,
    Lifted,
    NoReveal,
    ShillBroadcast,
    Truthful,
)
from .verification import VERIFY_BUDGETS

__all__ = ["ConfigError", "load_config", "ExperimentSetup", "build_setup", "check_setting"]


class ConfigError(ValueError):
    """Configuration rejected before running anything (CLI exit code 2)."""


_TOP_KEYS = {
    "distribution", "n", "alpha", "mode", "scheme", "collateral", "samples",
    "seed", "buyers", "auctioneer", "thresholds", "deviation_quantiles", "verify", "out",
}
_DIST_KEYS = {"family", "params"}
_BUYER_KEYS = {"kind", "value", "bid"}
_AUCTIONEER_KEYS = {"kind", "false_bids", "false_bid_quantiles", "reveal_policy",
                    "threshold", "inner"}
_BUYERS = {"truthful": Truthful, "fixed": FixedBid, "no_reveal": NoReveal}
_AUCTIONEERS = {cls.kind: cls for cls in (Honest, ShillBroadcast, AdaptiveReserve, Lifted)}


def _expect_keys(obj: dict, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _expect_number(obj, where: str, minimum: Optional[float] = None) -> float:
    # json reads NaN, Infinity and -Infinity, and integers too large for a float
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ConfigError(f"{where} must be a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {obj!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {obj}")
    return value


def _expect_int(obj, where: str, minimum: Optional[int] = None) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ConfigError(f"{where} must be an integer, got {obj!r}")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {obj}")
    return obj


def _expect_name(obj, names, where: str) -> str:
    """obj, which must be one of the names the library defines."""
    if not isinstance(obj, str) or obj not in names:
        raise ConfigError(f"{where} must be {'|'.join(names)}, got {obj!r}")
    return obj


# the sha256 scheme's old name, which a config may still give
_SCHEME_ALIASES = {"hash": HashScheme.name}


def _scheme_name(obj):
    """A config's scheme under the name the library defines it by."""
    return _SCHEME_ALIASES.get(obj, obj) if isinstance(obj, str) else obj


def _expect_list(obj, where: str, nonempty: bool = False) -> list:
    if not isinstance(obj, list) or (nonempty and not obj):
        raise ConfigError(f"{where} must be a {'non-empty ' if nonempty else ''}list")
    return obj


def _expect_quantiles(obj, where: str) -> list:
    """The list obj of quantile levels, each a number in the open interval (0, 1)."""
    levels = []
    for i, u in enumerate(_expect_list(obj, where)):
        levels.append(_expect_number(u, f"{where}[{i}]"))
        if not 0.0 < levels[-1] < 1.0:
            raise ConfigError(f"{where}[{i}] must lie in (0, 1), got {u}")
    return levels


def check_setting(cls, mode: str, n: int, where: str) -> None:
    """Refuse mode and n unless strategies of class cls run on them."""
    try:
        cls.check_setting(mode, n)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def validate_config(cfg: dict) -> dict:
    """Validate the raw JSON object; returns it unchanged on success."""
    _expect_keys(cfg, _TOP_KEYS, "config")
    if "distribution" not in cfg:
        raise ConfigError("config requires a 'distribution' section")
    _expect_keys(cfg["distribution"], _DIST_KEYS, "distribution")
    if "params" in cfg["distribution"]:
        if not isinstance(cfg["distribution"]["params"], dict):
            raise ConfigError("distribution.params must be an object")
        for key, value in cfg["distribution"]["params"].items():
            _expect_number(value, f"distribution.params.{key}")
    try:
        dist = make_distribution(cfg["distribution"])
    except ValueError as exc:
        raise ConfigError(f"distribution: {exc}") from exc
    n = _expect_int(cfg.get("n", 2), "n", minimum=1)
    if "alpha" in cfg and _expect_number(cfg["alpha"], "alpha") <= 0.0:
        raise ConfigError(f"alpha must be > 0, got {cfg['alpha']}")
    mode = _expect_name(cfg.get("mode", "broadcast"), MODES, "mode")
    if "scheme" in cfg:
        _expect_name(_scheme_name(cfg["scheme"]), SCHEMES, "scheme")
    if "collateral" in cfg:
        _expect_number(cfg["collateral"], "collateral", minimum=0.0)
    if "samples" in cfg:
        _expect_int(cfg["samples"], "samples", minimum=MIN_SAMPLES)
    if "seed" in cfg:
        _expect_int(cfg["seed"], "seed", minimum=0)
    if "buyers" in cfg:
        for i, buyer in enumerate(_expect_list(cfg["buyers"], "buyers", nonempty=True)):
            _expect_keys(buyer, _BUYER_KEYS, f"buyers[{i}]")
            kind = _expect_name(buyer.get("kind"), _BUYERS, f"buyers[{i}].kind")
            if kind == "fixed" and "bid" not in buyer:
                raise ConfigError(f"buyers[{i}] of kind 'fixed' requires a 'bid'")
            for key in ("value", "bid"):
                if key in buyer:
                    _expect_number(buyer[key], f"buyers[{i}].{key}")
    if "auctioneer" in cfg:
        strategy = _auctioneer(cfg["auctioneer"], "auctioneer", dist)
        check_setting(type(strategy), mode, n, "auctioneer")
    if "thresholds" in cfg:
        for i, t in enumerate(_expect_list(cfg["thresholds"], "thresholds", nonempty=True)):
            _expect_number(t, f"thresholds[{i}]")
    if "deviation_quantiles" in cfg:
        _expect_quantiles(cfg["deviation_quantiles"], "deviation_quantiles")
    if "verify" in cfg:
        _expect_keys(cfg["verify"], VERIFY_BUDGETS, "verify")
        for key, value in cfg["verify"].items():
            least = VERIFY_BUDGETS[key][1]
            if not isinstance(least, float):  # a count
                _expect_int(value, f"verify.{key}", minimum=least)
            elif _expect_number(value, f"verify.{key}") <= least:  # a tolerance
                raise ConfigError(f"verify.{key} must be > {least}, got {value}")
    if "out" in cfg and not isinstance(cfg["out"], str):
        raise ConfigError("out must be a string path")
    return cfg


def _auctioneer(spec: dict, where: str, dist: ValueDistribution):
    """The auctioneer strategy spec describes, checked as it is built: its shape
    here, its rules by the library. The setting is the caller's to check."""
    _expect_keys(spec, _AUCTIONEER_KEYS, where)
    kind = _expect_name(spec.get("kind"), _AUCTIONEERS, f"{where}.kind")
    if kind == "shill":
        if "false_bids" in spec and "false_bid_quantiles" in spec:
            raise ConfigError(f"{where}: give false_bids or false_bid_quantiles, not both")
        if "false_bid_quantiles" in spec:
            levels = _expect_quantiles(spec["false_bid_quantiles"], f"{where}.false_bid_quantiles")
            bids = [float(dist.quantile(u)) for u in levels]
        else:
            bids = [_expect_number(b, f"{where}.false_bids[{i}]") for i, b
                    in enumerate(_expect_list(spec.get("false_bids", []), f"{where}.false_bids"))]
        policy = _expect_name(spec.get("reveal_policy", ALWAYS_REVEAL.name), REVEAL_POLICIES,
                              f"{where}.reveal_policy")
        return ShillBroadcast(false_bids=tuple(bids), reveal_policy=REVEAL_POLICIES[policy])
    if kind == "adaptive":
        if "threshold" not in spec:
            raise ConfigError(f"{where} of kind 'adaptive' requires a 'threshold'")
        where = f"{where}.threshold"
        return AdaptiveReserve(threshold=_above_reserve(_expect_number(spec["threshold"], where),
                                                        dist, where))
    if kind == "lifted":
        if "inner" not in spec:
            raise ConfigError(f"{where} of kind 'lifted' requires an 'inner' strategy")
        inner = _auctioneer(spec["inner"], f"{where}.inner", dist)
        try:
            return Lifted(inner=inner)
        except ValueError as exc:
            raise ConfigError(f"{where}.inner: {exc}") from exc
    return Honest()


def _above_reserve(threshold: float, dist: ValueDistribution, where: str) -> float:
    """An adaptive-attack threshold, refused below dist's reserve, where the
    attack is undefined, and where dist has no reserve."""
    try:
        reserve = reserve_price(dist)
    except NonRegularError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not at_or_above_reserve(threshold, reserve):
        raise ConfigError(f"{where} = {threshold} is below the reserve {reserve} of {dist!r}")
    return threshold


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(cfg)


class ExperimentSetup:
    """Validated config resolved into live objects."""

    def __init__(self, cfg: dict):
        self.raw = cfg
        self.dist: ValueDistribution = make_distribution(cfg["distribution"])
        self.n: int = cfg.get("n", 2)
        self.mode: str = cfg.get("mode", "broadcast")
        self.scheme: str = _scheme_name(cfg.get("scheme", "ideal"))
        self.samples: int = cfg.get("samples", 100_000)
        if "seed" in cfg:
            self.seed = cfg["seed"]
        else:
            self.seed = 0
            print("warning: no seed in config; defaulting to 0", file=sys.stderr)
        self.alpha: Optional[float] = cfg.get("alpha")
        self.thresholds = [float(t) for t in cfg.get("thresholds", [2, 5, 10, 20, 50, 100])]
        self.deviation_quantiles = [float(u) for u in cfg.get("deviation_quantiles", [])]
        self.out: Optional[str] = cfg.get("out")
        self.verify_options: dict = dict(cfg.get("verify", {}))

    # -- derived quantities ---------------------------------------------------

    def classification_alpha(self) -> float:
        """alpha used for the collateral formula: config override or estimate."""
        if self.alpha is not None:
            return self.alpha
        report = strong_regularity_alpha(self.dist)
        return report.alpha_hat

    def collateral_amount(self) -> float:
        if "collateral" in self.raw:
            return float(self.raw["collateral"])
        return collateral_level(self.dist, self.n, self.classification_alpha())

    def attack_thresholds(self, dist: ValueDistribution) -> list:
        """The sweep thresholds, each checked by _above_reserve against dist."""
        return [_above_reserve(t, dist, f"thresholds[{i}]")
                for i, t in enumerate(self.thresholds)]

    def auction_config(self) -> AuctionConfig:
        try:  # the distribution is refused before the collateral formula is tried on it
            return AuctionConfig(n=self.n, dist=self.dist,
                                 reserve=_require_regular_finite_reserve(self.dist),
                                 collateral=self.collateral_amount(), mode=self.mode,
                                 scheme=self.scheme, seed=self.seed)
        except (NonRegularError, InfiniteReserveError) as exc:
            raise ConfigError(f"distribution: {exc}") from exc

    def buyers(self) -> list:
        """Buyer strategies; missing values are sampled from D by the seed."""
        specs = self.raw.get("buyers")
        if specs is None:
            specs = [{"kind": "truthful"}] * self.n
        if len(specs) != self.n:
            raise ConfigError(f"buyers list has {len(specs)} entries but n={self.n}")
        sampled = sample_values(self.dist, self.n, self.seed)
        out = []
        for i, spec in enumerate(specs):
            value = float(spec.get("value", sampled[i]))
            cls = _BUYERS[spec["kind"]]
            out.append(cls(value, float(spec["bid"])) if cls is FixedBid else cls(value))
        return out

    def auctioneer(self):
        return _auctioneer(self.raw.get("auctioneer", {"kind": Honest.kind}), "auctioneer",
                           self.dist)


def build_setup(cfg: dict) -> ExperimentSetup:
    return ExperimentSetup(validate_config(cfg))

"""Experiment configuration: one pass from a config's JSON to live objects.

Configs are strict: unknown keys anywhere are rejected before anything runs,
and so is an auctioneer key that the auctioneer's kind does not read. Every
run's randomness flows from the single config seed, which must lie below 2^63.
A missing seed defaults to 0 with a warning rather than an entropy source.
build_setup reads each key once, with its one default: it checks the JSON's
shape (keys, types, finite numbers, integer and quantile ranges, n buyers, a
bid for fixed buyers only), asks the library for every auction rule, adding the
key path and ConfigError, and keeps what it builds.
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
    _require_quantile_levels,
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
    AdaptiveReserve,
    FixedBid,
    Honest,
    Lifted,
    NoReveal,
    RevealPolicy,
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
_BUYER_KEYS = {"kind", "value", "bid"}
_AUCTIONEER_KEYS = {  # the keys each kind of auctioneer reads
    Honest.kind: {"kind"},
    ShillBroadcast.kind: {"kind", "false_bids", "false_bid_quantiles", "reveal_policy"},
    AdaptiveReserve.kind: {"kind", "threshold"},
    Lifted.kind: {"kind", "inner"},
}
_BUYERS = {"truthful": Truthful, "fixed": FixedBid, "no_reveal": NoReveal}
_SEED_LIMIT = 1 << 63  # derive_seed reads a seed's low 63 bits: a larger one aliases


def _expect_object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    return obj


def _expect_keys(obj: dict, allowed, where: str) -> None:
    unknown = set(_expect_object(obj, where)).difference(allowed)
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


def _expect_list(obj, where: str, nonempty: bool = False) -> list:
    if not isinstance(obj, list) or (nonempty and not obj):
        raise ConfigError(f"{where} must be a {'non-empty ' if nonempty else ''}list")
    return obj


def _expect_numbers(obj, where: str, nonempty: bool = False) -> list:
    """The list obj of finite numbers, as floats."""
    return [_expect_number(x, f"{where}[{i}]")
            for i, x in enumerate(_expect_list(obj, where, nonempty))]


def _expect_quantiles(obj, where: str) -> list:
    """The list obj of quantile levels, each a number in the open interval (0, 1)."""
    levels = _expect_numbers(obj, where)
    try:
        _require_quantile_levels(levels, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return levels


def check_setting(cls, mode: str, n: int, where: str) -> None:
    """Refuse mode and n unless strategies of class cls run on them."""
    try:
        cls.check_setting(mode, n)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _auctioneer(spec: dict, where: str, dist: ValueDistribution):
    """The auctioneer strategy spec describes, checked as it is built: its shape
    here, its rules by the library. The setting is the caller's to check."""
    kind = _expect_name(_expect_object(spec, where).get("kind"), _AUCTIONEER_KEYS, f"{where}.kind")
    _expect_keys(spec, _AUCTIONEER_KEYS[kind], f"{where} of kind {kind!r}")
    if kind == "shill":
        if "false_bids" in spec and "false_bid_quantiles" in spec:
            raise ConfigError(f"{where}: give false_bids or false_bid_quantiles, not both")
        if "false_bid_quantiles" in spec:
            levels = _expect_quantiles(spec["false_bid_quantiles"], f"{where}.false_bid_quantiles")
            bids = [float(dist.quantile(u)) for u in levels]
        else:
            bids = _expect_numbers(spec.get("false_bids", []), f"{where}.false_bids")
        policy = _expect_name(spec.get("reveal_policy", ALWAYS_REVEAL.value),
                              [p.value for p in RevealPolicy], f"{where}.reveal_policy")
        return ShillBroadcast(false_bids=tuple(bids), reveal_policy=RevealPolicy(policy))
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


def _distribution(spec) -> ValueDistribution:
    """spec's distribution, each parameter a finite JSON number; make_distribution
    checks the rest."""
    params = spec.get("params") if isinstance(spec, dict) else None
    for key, value in (params.items() if isinstance(params, dict) else ()):
        _expect_number(value, f"distribution.params.{key}")
    try:
        return make_distribution(spec)
    except ValueError as exc:
        raise ConfigError(f"distribution: {exc}") from exc


def _buyer_specs(specs, n: int) -> list:
    """(class, value or None, bid) for each of the n buyers in specs: a value None
    is sampled, and the bid, a fixed buyer's alone, is a tuple of 1 or 0 numbers."""
    if len(_expect_list(specs, "buyers")) != n:
        raise ConfigError(f"buyers list has {len(specs)} entries but n={n}")
    out = []
    for i, spec in enumerate(specs):
        where = f"buyers[{i}]"
        _expect_keys(spec, _BUYER_KEYS, where)
        cls = _BUYERS[_expect_name(spec.get("kind"), _BUYERS, f"{where}.kind")]
        if ("bid" in spec) != (cls is FixedBid):
            raise ConfigError(f"{where}: a 'bid' is for kind 'fixed', which requires one")
        value = _expect_number(spec["value"], f"{where}.value") if "value" in spec else None
        bid = (_expect_number(spec["bid"], f"{where}.bid"),) if "bid" in spec else ()
        out.append((cls, value, bid))
    return out


def _budgets(spec) -> dict:
    """Every verify budget, spec's checked against its least value, or its default."""
    _expect_keys(spec, VERIFY_BUDGETS, "verify")
    budgets = {}
    for key, (default, least) in VERIFY_BUDGETS.items():
        value = budgets[key] = spec.get(key, default)
        if not isinstance(least, float):  # a count
            _expect_int(value, f"verify.{key}", minimum=least)
        elif _expect_number(value, f"verify.{key}") <= least:  # a tolerance
            raise ConfigError(f"verify.{key} must be > {least}, got {value}")
    return budgets


def load_config(path: str) -> dict:
    """The JSON object at path, unchecked: build_setup checks it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


class ExperimentSetup:
    """A config, each key checked and built once. The methods build on demand what
    not every config can build (verify and dist run on two_point and equal_revenue
    configs) or what n can make large (the buyers)."""

    def __init__(self, cfg: dict):
        _expect_keys(cfg, _TOP_KEYS, "config")
        if "distribution" not in cfg:
            raise ConfigError("config requires a 'distribution' section")
        self.dist: ValueDistribution = _distribution(cfg["distribution"])
        self.n: int = _expect_int(cfg.get("n", 2), "n", minimum=1)
        self.alpha: Optional[float] = cfg.get("alpha")
        if self.alpha is not None and _expect_number(self.alpha, "alpha") <= 0.0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        self.mode: str = _expect_name(cfg.get("mode", "broadcast"), MODES, "mode")
        scheme = _expect_name(cfg.get("scheme", "ideal"), [*SCHEMES, *_SCHEME_ALIASES], "scheme")
        self.scheme: str = _SCHEME_ALIASES.get(scheme, scheme)
        self.collateral: Optional[float] = (None if "collateral" not in cfg else
                                            _expect_number(cfg["collateral"], "collateral", 0.0))
        self.samples: int = _expect_int(cfg.get("samples", 100_000), "samples", MIN_SAMPLES)
        self.buyer_specs = _buyer_specs(cfg["buyers"], self.n) if "buyers" in cfg else None
        self.auctioneer = _auctioneer(cfg.get("auctioneer", {"kind": "honest"}), "auctioneer",
                                      self.dist)
        check_setting(type(self.auctioneer), self.mode, self.n, "auctioneer")
        self.thresholds = _expect_numbers(cfg.get("thresholds", [2, 5, 10, 20, 50, 100]),
                                          "thresholds", nonempty=True)
        self.deviation_quantiles = _expect_quantiles(cfg.get("deviation_quantiles", []),
                                                     "deviation_quantiles")
        self.budgets: dict = _budgets(cfg.get("verify", {}))
        if "out" in cfg and not isinstance(cfg["out"], str):
            raise ConfigError("out must be a string path")
        self.out: Optional[str] = cfg.get("out")
        if "seed" in cfg:
            self.seed: int = _expect_int(cfg["seed"], "seed", minimum=0)
            if self.seed >= _SEED_LIMIT:
                raise ConfigError(f"seed must be < 2**63, got {self.seed}")
        else:
            self.seed = 0
            print("warning: no seed in config; defaulting to 0", file=sys.stderr)

    # -- derived quantities ---------------------------------------------------

    def classification_alpha(self) -> float:
        """alpha used for the collateral formula: config override or estimate."""
        return strong_regularity_alpha(self.dist).alpha_hat if self.alpha is None else self.alpha

    def collateral_amount(self) -> float:
        if self.collateral is not None:
            return self.collateral
        alpha = self.classification_alpha()
        try:  # both callers have refused a distribution that cannot run auctions
            return collateral_level(self.dist, self.n, alpha)
        except ValueError as exc:  # the level at alpha is no finite float
            # an estimated alpha is the distribution's, whose scale can overflow the level
            key = "distribution" if self.alpha is None else "alpha"
            raise ConfigError(f"{key}: {exc}") from exc

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
        sampled = sample_values(self.dist, self.n, self.seed)
        specs = self.buyer_specs or [(Truthful, None, ())] * self.n  # built here: n may be large
        return [cls(float(v) if value is None else value, *bid)
                for (cls, value, bid), v in zip(specs, sampled)]


def build_setup(cfg: dict) -> ExperimentSetup:
    """cfg checked and built in one pass; ConfigError at the first key refused."""
    return ExperimentSetup(cfg)

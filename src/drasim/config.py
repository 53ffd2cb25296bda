"""Experiment configuration: JSON schema validation and object builders.

Configs are strict: unknown keys anywhere are rejected before anything runs,
and every run's randomness flows from the single config seed. A missing seed
defaults to 0 with a warning rather than an entropy source.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

from .distributions import (
    EqualRevenue,
    TwoPoint,
    ValueDistribution,
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
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    FixedBid,
    Honest,
    Lifted,
    NoReveal,
    ShillBroadcast,
    Truthful,
    liftable,
)

__all__ = ["ConfigError", "load_config", "ExperimentSetup", "build_setup"]


class ConfigError(ValueError):
    """Configuration rejected before running anything (CLI exit code 2)."""


_TOP_KEYS = {
    "distribution", "n", "alpha", "mode", "scheme", "collateral", "samples",
    "seed", "buyers", "auctioneer", "thresholds", "deviation_quantiles",
    "engine", "verify", "out",
}
_DIST_KEYS = {"family", "params"}
_BUYER_KEYS = {"kind", "value", "bid"}
_AUCTIONEER_KEYS = {"kind", "false_bids", "false_bid_quantiles", "reveal_policy",
                    "threshold", "inner"}
_VERIFY_KEYS = {
    "mc_samples", "optimality_samples", "sp_profiles", "credibility_samples",
    "credibility_quantiles", "attack_samples", "attack_rel_tol",
    "structural_runs", "lift_runs", "dominance_samples",
}
_REVEAL_POLICIES = {"always": ALWAYS_REVEAL, "withhold_if_winning": WITHHOLD_IF_WINNING}
# each auctioneer kind's class, whose mode and n attributes name the setting it runs under
_AUCTIONEERS = {cls.kind: cls for cls in (Honest, ShillBroadcast, AdaptiveReserve, Lifted)}


def _expect_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
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
        make_distribution(cfg["distribution"])
    except ValueError as exc:
        raise ConfigError(f"distribution: {exc}") from exc
    if "n" in cfg:
        _expect_int(cfg["n"], "n", minimum=1)
    if "alpha" in cfg and _expect_number(cfg["alpha"], "alpha") <= 0.0:
        raise ConfigError(f"alpha must be > 0, got {cfg['alpha']}")
    if "mode" in cfg and cfg["mode"] not in ("broadcast", "centralized"):
        raise ConfigError(f"mode must be 'broadcast' or 'centralized', got {cfg['mode']!r}")
    if "scheme" in cfg and cfg["scheme"] not in ("ideal", "hash", "sha256"):
        raise ConfigError(f"scheme must be 'ideal' or 'hash', got {cfg['scheme']!r}")
    if "collateral" in cfg:
        _expect_number(cfg["collateral"], "collateral", minimum=0.0)
    if "samples" in cfg:
        _expect_int(cfg["samples"], "samples", minimum=MIN_SAMPLES)
    if "seed" in cfg:
        _expect_int(cfg["seed"], "seed", minimum=0)
    if "engine" in cfg and cfg["engine"] not in ("vector", "simulate"):
        raise ConfigError(f"engine must be 'vector' or 'simulate', got {cfg['engine']!r}")
    if "buyers" in cfg:
        if not isinstance(cfg["buyers"], list) or not cfg["buyers"]:
            raise ConfigError("buyers must be a non-empty list")
        for i, buyer in enumerate(cfg["buyers"]):
            _expect_keys(buyer, _BUYER_KEYS, f"buyers[{i}]")
            kind = buyer.get("kind")
            if kind not in ("truthful", "fixed", "no_reveal"):
                raise ConfigError(f"buyers[{i}].kind must be truthful|fixed|no_reveal, got {kind!r}")
            if kind == "fixed" and "bid" not in buyer:
                raise ConfigError(f"buyers[{i}] of kind 'fixed' requires a 'bid'")
            for key in ("value", "bid"):
                if key in buyer:
                    _expect_number(buyer[key], f"buyers[{i}].{key}")
    if "auctioneer" in cfg:
        _validate_auctioneer(cfg["auctioneer"], "auctioneer")
        kind = cfg["auctioneer"]["kind"]
        cls, mode, n = _AUCTIONEERS[kind], cfg.get("mode", "broadcast"), cfg.get("n", 2)
        if cls.mode not in (None, mode):
            raise ConfigError(f"auctioneer of kind {kind!r} runs on {cls.mode} channels, not {mode}")
        if cls.n not in (None, n):
            raise ConfigError(f"auctioneer of kind {kind!r} needs n = {cls.n}, got {n}")
    if "thresholds" in cfg:
        if not isinstance(cfg["thresholds"], list) or not cfg["thresholds"]:
            raise ConfigError("thresholds must be a non-empty list of numbers")
        for i, t in enumerate(cfg["thresholds"]):
            _expect_number(t, f"thresholds[{i}]")
    if "deviation_quantiles" in cfg:
        if not isinstance(cfg["deviation_quantiles"], list):
            raise ConfigError("deviation_quantiles must be a list")
        for i, u in enumerate(cfg["deviation_quantiles"]):
            q = _expect_number(u, f"deviation_quantiles[{i}]")
            if not 0.0 < q < 1.0:
                raise ConfigError(f"deviation_quantiles[{i}] must lie in (0, 1)")
    if "verify" in cfg:
        _expect_keys(cfg["verify"], _VERIFY_KEYS, "verify")
        for key, value in cfg["verify"].items():
            if key != "attack_rel_tol":
                _expect_int(value, f"verify.{key}",
                            minimum=MIN_SAMPLES if key.endswith("_samples") else 1)
            elif _expect_number(value, f"verify.{key}") <= 0.0:
                raise ConfigError(f"verify.{key} must be > 0, got {value}")
    if "out" in cfg and not isinstance(cfg["out"], str):
        raise ConfigError("out must be a string path")
    return cfg


def _validate_auctioneer(spec: dict, where: str) -> None:
    _expect_keys(spec, _AUCTIONEER_KEYS, where)
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _AUCTIONEERS:
        raise ConfigError(f"{where}.kind must be {'|'.join(_AUCTIONEERS)}, got {kind!r}")
    if kind == "shill":
        if "false_bids" in spec and "false_bid_quantiles" in spec:
            raise ConfigError(f"{where}: give false_bids or false_bid_quantiles, not both")
        for key in ("false_bids", "false_bid_quantiles"):
            if key in spec:
                if not isinstance(spec[key], list):
                    raise ConfigError(f"{where}.{key} must be a list")
                for i, b in enumerate(spec[key]):
                    _expect_number(b, f"{where}.{key}[{i}]")
        policy = spec.get("reveal_policy", "always")
        if not isinstance(policy, str) or policy not in _REVEAL_POLICIES:
            raise ConfigError(f"{where}.reveal_policy must be one of {sorted(_REVEAL_POLICIES)}")
    if kind == "adaptive":
        if "threshold" not in spec:
            raise ConfigError(f"{where} of kind 'adaptive' requires a 'threshold'")
        _expect_number(spec["threshold"], f"{where}.threshold")
    if kind == "lifted":
        inner = spec.get("inner")
        if inner is None:
            raise ConfigError(f"{where} of kind 'lifted' requires an 'inner' strategy")
        _validate_auctioneer(inner, f"{where}.inner")
        if not liftable(_AUCTIONEERS[inner["kind"]]):
            raise ConfigError(f"{where}.inner must be a broadcast strategy")


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
        self.scheme: str = cfg.get("scheme", "ideal")
        self.samples: int = cfg.get("samples", 100_000)
        self.engine: str = cfg.get("engine", "vector")
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
        if isinstance(self.dist, (EqualRevenue, TwoPoint)):
            raise ConfigError(f"{self.dist.kind} cannot run auctions (no finite reserve)")
        reserve = reserve_price(self.dist)
        if math.isinf(reserve):
            raise ConfigError(f"{self.dist.kind} has an infinite reserve; auction rejected")
        return AuctionConfig(n=self.n, dist=self.dist, reserve=reserve,
                             collateral=self.collateral_amount(), mode=self.mode,
                             scheme=self.scheme, seed=self.seed)

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
            kind = spec.get("kind", "truthful")
            if kind == "truthful":
                out.append(Truthful(value=value))
            elif kind == "fixed":
                out.append(FixedBid(value=value, bid_amount=float(spec["bid"])))
            else:
                out.append(NoReveal(value=value))
        return out

    def auctioneer(self):
        spec = self.raw.get("auctioneer", {"kind": "honest"})
        return self._build_auctioneer(spec)

    def _build_auctioneer(self, spec: dict):
        kind = spec.get("kind", "honest")
        if kind == "honest":
            return Honest()
        if kind == "shill":
            if "false_bid_quantiles" in spec:
                bids = tuple(float(self.dist.quantile(u)) for u in spec["false_bid_quantiles"])
            else:
                bids = tuple(float(b) for b in spec.get("false_bids", []))
            policy = _REVEAL_POLICIES[spec.get("reveal_policy", "always")]
            return ShillBroadcast(false_bids=bids, reveal_policy=policy)
        if kind == "adaptive":
            threshold = _above_reserve(float(spec["threshold"]), self.dist, "auctioneer.threshold")
            return AdaptiveReserve(threshold=threshold)
        if kind == "lifted":
            return Lifted(inner=self._build_auctioneer(spec["inner"]))
        raise ConfigError(f"unknown auctioneer kind {kind!r}")


def _above_reserve(threshold: float, dist: ValueDistribution, where: str) -> float:
    """An adaptive-attack threshold, refused below dist's reserve, where the
    attack is undefined."""
    reserve = reserve_price(dist)
    if not at_or_above_reserve(threshold, reserve):
        raise ConfigError(f"{where} = {threshold} is below the reserve {reserve} of {dist!r}")
    return threshold


def build_setup(cfg: dict) -> ExperimentSetup:
    return ExperimentSetup(validate_config(cfg))

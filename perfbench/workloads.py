"""The three benchmark workloads: operations from a seed, the call, the checks.

A workload is a list of operations, each one call into drasim's public API:

  build(seed)          set-up; builds every operation's inputs ahead of time
  call(op)             one operation; this is what is timed
  kind(op)             operations of one kind make the same call on inputs of
                       the same size, so they share one typical time
  reference            the reference kernel that gauges the machine's speed
                       for this workload (see reference.py)
  check(ops, results)  verifies one repetition's results (an exception counts
                       as a failed result) and digests them into a Checked record

Library functions are looked up on their module at call time (`drasim.x`,
never a name bound at import), so in the traced child the tracer's wrappers
are the ones called.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import drasim
import drasim.seeding
import drasim.verification

GPA_SHAPE = 0.5
# Rev(D^2) for gpareto(0.5) in closed form: with s = sf(v), the virtual value
# is s^(-1/2) - 2 above the reserve (s <= 1/4), so
# Rev = int_0^(1/4) (s^(-1/2) - 2) * 2 (1 - s) ds = 23/24.
GPA_OPTIMAL_REVENUE = 23.0 / 24.0
GPA_COLLATERAL = 32.0  # formula collateral f(2, gpareto(0.5)) at alpha = 0.5

CRED_SAMPLES = 1 << 16
CRED_QUANTILES = (0.05, 0.2, 0.4, 0.55, 0.68, 0.78, 0.85, 0.9, 0.93, 0.955,
                  0.97, 0.98, 0.9865, 0.991, 0.994, 0.996, 0.9975, 0.9985,
                  0.999, 0.9995)
CRED_ROWS = 1 + 2 * len(CRED_QUANTILES)  # honest + 20 bids x 2 reveal policies

# Every call draws the configs/attack_*.json size, 2^22 samples. The witness
# check needs more gpareto samples than that: at 2^22 the best rows have a
# relative SE near 0.7%, and one seed in ten had no row within 1% of its oracle.
# So each gpareto threshold runs on SEP_GPARETO_SEEDS independent seeds, and
# the check pools them into one 2^24-sample estimate (relative SE near 0.37%).
# Short calls of one size also give each repetition many operations of like
# length, which steadies the per-operation timings.
SEP_SAMPLES = 1 << 22
SEP_GPARETO_SEEDS = 4
SEP_THRESHOLDS = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
SEP_WITNESS_REL_TOL = 0.01

AUDIT_RUNS_PER_DEVIATION = 400

_MAX_MESSAGES = 5


@dataclass(frozen=True)
class Checked:
    """Outcome of checking one repetition of a workload."""

    attempted: int     # checked operations: estimate rows, sweep checks, audited runs
    failed: int
    digest: str        # sha256 over every printed mean, SE and audit outcome
    profiles: int      # value profiles evaluated
    messages: tuple    # first few failure descriptions
    zero_se: int = 0   # estimates with SE 0 although samples > 0


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _error_line(exc: BaseException) -> str:
    return f"error {type(exc).__name__}: {exc}"


def _zero_se(est) -> bool:
    return est.samples > 0 and est.std_error == 0.0


# ---------------------------------------------------------------------------
# credibility: criterion 04 / configs/credibility.json, one suite per repetition
# ---------------------------------------------------------------------------

class Credibility:
    name = "credibility"
    reference = "numpy"

    def kind(self, op):
        return 0

    def build(self, seed: int):
        return [(drasim.GeneralizedPareto(GPA_SHAPE), seed)]

    def call(self, op):
        dist, seed = op
        return drasim.credibility_suite(dist, alpha=0.5, n=2,
                                        deviation_quantiles=CRED_QUANTILES,
                                        samples=CRED_SAMPLES, seed=seed)

    def check(self, ops, results) -> Checked:
        (report,) = results
        if isinstance(report, Exception):
            return Checked(CRED_ROWS, CRED_ROWS, _digest([_error_line(report)]), 0,
                           (_error_line(report),))
        lines = [f"rev {report.optimal_revenue!r} f {report.collateral!r}"]
        messages = []
        if abs(report.optimal_revenue - GPA_OPTIMAL_REVENUE) > 1e-8:
            messages.append(f"Rev(D^2) {report.optimal_revenue!r} != 23/24")
        if abs(report.collateral - GPA_COLLATERAL) > 1e-6:
            messages.append(f"collateral {report.collateral!r} != 32")
        header_ok = not messages
        failed = max(0, CRED_ROWS - len(report.rows))  # missing rows fail
        if failed:
            messages.append(f"{len(report.rows)} rows, expected {CRED_ROWS}")
        for row in report.rows:
            est = row.estimate
            lines.append(f"{row.strategy} {est.mean!r} {est.std_error!r} {est.samples}")
            bound = GPA_OPTIMAL_REVENUE + 3.0 * est.std_error
            row_ok = est.samples == CRED_SAMPLES and est.mean <= bound
            if not (header_ok and row_ok):
                failed += 1
            if not row_ok:
                messages.append(f"{row.strategy}: mean {est.mean!r} above Rev + 3 SE {bound!r}")
        return Checked(CRED_ROWS, min(failed, CRED_ROWS), _digest(lines),
                       CRED_ROWS * CRED_SAMPLES, tuple(messages[:_MAX_MESSAGES]),
                       sum(_zero_se(row.estimate) for row in report.rows))


# ---------------------------------------------------------------------------
# separation: criterion 05 at the configs/attack_*.json sizes, one row per call
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    label: str
    heavy_tail: bool
    dist: object
    collateral: float
    threshold: float
    seed: int


class Separation:
    name = "separation"
    reference = "numpy"
    SWEEPS = (("gpareto", True, 2.0, SEP_GPARETO_SEEDS), ("exponential", False, 1.0, 1))

    def build(self, seed: int):
        dists = {"gpareto": drasim.GeneralizedPareto(GPA_SHAPE),
                 "exponential": drasim.Exponential(1.0)}
        # every call gets its own seed, so no two calls share value draws
        return [SweepRow(label, heavy, dists[label], f, t,
                         drasim.seeding.derive_seed(seed, label, i, j))
                for label, heavy, f, copies in self.SWEEPS
                for i, t in enumerate(SEP_THRESHOLDS)
                for j in range(copies)]

    def kind(self, op: SweepRow):
        # the calls of one row differ only in their seed
        return op.label, op.threshold

    def call(self, op: SweepRow):
        return drasim.attack_sweep(op.dist, op.collateral, [op.threshold],
                                   SEP_SAMPLES, op.seed)

    def check(self, ops, results) -> Checked:
        lines, messages = [], []
        failed = zero_se = 0
        pooled = {}  # gpareto threshold -> [(mean, se), ...], [oracle, ...]
        for op, rows in zip(ops, results):
            if isinstance(rows, Exception) or len(rows) != 1:
                failed += 1
                problem = _error_line(rows) if isinstance(rows, Exception) \
                    else f"{len(rows)} rows, expected 1"
                lines.append(f"{op.label} {op.threshold!r} {problem}")
                messages.append(f"{op.label} T={op.threshold}: {problem}")
                continue
            (row,) = rows
            est = row.estimate
            lines.append(f"{op.label} {row.threshold!r} {est.mean!r} {est.std_error!r} "
                         f"{est.samples} {row.quadrature!r}")
            zero_se += _zero_se(est)
            if op.heavy_tail:
                estimates, oracles = pooled.setdefault(op.threshold, ([], []))
                estimates.append((est.mean, est.std_error))
                oracles.append(row.quadrature)
            elif est.mean > 3.0 * est.std_error or row.quadrature > 0.0:
                failed += 1
                messages.append(f"{op.label} T={op.threshold}: mean {est.mean!r} "
                                f"se {est.std_error!r} oracle {row.quadrature!r}")
        witnesses = 0
        for estimates, oracles in pooled.values():
            # equal-size independent estimates: the pooled mean is their average
            k = len(estimates)
            mean = sum(m for m, _ in estimates) / k
            se = sum(e * e for _, e in estimates) ** 0.5 / k
            oracle = oracles[0]
            rel = abs(mean - oracle) / abs(oracle) if oracle != 0.0 else float("inf")
            witnesses += (k == SEP_GPARETO_SEEDS and len(set(oracles)) == 1
                          and mean > 3.0 * se and rel <= SEP_WITNESS_REL_TOL)
        if witnesses == 0:
            failed += 1
            messages.append("no pooled gpareto row is a 3-SE witness within 1% of its oracle")
        # every call, plus the sweep-level witness check
        return Checked(len(ops) + 1, failed, _digest(lines), len(ops) * SEP_SAMPLES,
                       tuple(messages[:_MAX_MESSAGES]), zero_se)


# ---------------------------------------------------------------------------
# audit: criterion 09's five structural deviations on pre-drawn profiles
# ---------------------------------------------------------------------------

class Audit:
    name = "audit"
    reference = "python"

    def build(self, seed: int):
        gpa = drasim.GeneralizedPareto(GPA_SHAPE)
        shill_bid = float(gpa.quantile(0.9))
        withhold = drasim.ShillBroadcast((shill_bid,), drasim.WITHHOLD_IF_WINNING)
        deviations = (
            ("honest", "broadcast", drasim.Honest()),
            ("shill_reveal", "broadcast",
             drasim.ShillBroadcast((shill_bid,), drasim.ALWAYS_REVEAL)),
            ("shill_withhold", "broadcast", withhold),
            ("lifted_shill", "centralized", drasim.Lifted(withhold)),
            ("adaptive", "centralized",
             drasim.AdaptiveReserve(threshold=float(gpa.quantile(0.8)))),
        )
        reserve = drasim.reserve_price(gpa)
        ops = []
        for name, mode, strategy in deviations:
            base = drasim.AuctionConfig(n=2, dist=gpa, reserve=reserve, collateral=2.0,
                                        mode=mode, seed=0)
            for j in range(AUDIT_RUNS_PER_DEVIATION):
                run_seed = drasim.seeding.derive_seed(seed, name, j)
                values = drasim.verification.sample_values(gpa, 2, run_seed)
                ops.append((replace(base, seed=run_seed),
                            [drasim.Truthful(v) for v in values], strategy))
        return ops

    def kind(self, op):
        # every audited run is its own kind: the profiles change the path through
        # the engine, and each run repeats in every repetition
        return id(op)

    def call(self, op):
        return drasim.verification.audit_run(*op)

    def check(self, ops, results) -> Checked:
        lines, messages = [], []
        failed = 0
        for k, result in enumerate(results):
            if isinstance(result, Exception):
                failed += 1
                lines.append(_error_line(result))
                messages.append(f"run {k}: {_error_line(result)}")
                continue
            lines.append(json.dumps([result.outcome.to_json(), list(result.violations)],
                                    sort_keys=True))
            if result.violations:
                failed += 1
                messages.append(f"run {k}: {'; '.join(result.violations)}")
        return Checked(len(results), failed, _digest(lines), len(results),
                       tuple(messages[:_MAX_MESSAGES]))


WORKLOADS = {w.name: w for w in (Credibility(), Separation(), Audit())}

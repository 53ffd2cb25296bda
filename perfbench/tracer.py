"""Outside-in tracing of drasim's module boundaries.

Tracer.install() replaces the functions and methods named in LAYERS with
wrappers that record one span per call: layer, start, end and parent span.
Nothing in src/drasim is edited. The wrappers are installed only in the
traced child process, so an untraced run carries no shims.

Per layer the tracer keeps the call count and the self time (span duration
minus the time covered by its child spans). The first SPAN_CAP spans are
kept in memory and written out once, by write_spans(), at exit.

A target missing from the program (renamed or merged away) is reported on
stderr and leaves its layer at zero calls, so later refactors do not break
the traced mode.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SPAN_CAP = 50_000

# (layer name, drasim module, targets). A target is a module-level function
# ("f"), a method of one class ("Class.m"), or the method m of every class of
# the module that defines it itself ("*.m").
LAYERS = (
    ("seeding.derive_seed", "seeding", ("derive_seed",)),
    ("seeding.chunk_uniforms", "seeding", ("chunk_uniforms",)),
    ("distributions.quantile", "distributions", ("*.quantile",)),
    ("distributions.isf", "distributions", ("*.isf",)),
    ("distributions.sample_tail", "distributions", ("*.sample_tail",)),
    ("distributions.optimal_revenue", "distributions", ("optimal_revenue",)),
    ("estimators.api", "estimators",
     ("credibility_suite", "attack_sweep", "estimate_revenue", "estimate_adaptive_gain",
      "estimate_paired_difference", "estimate_myerson_gap")),
    ("estimators.shill_kernel", "estimators", ("_shill_net",)),
    ("estimators.adaptive_kernel", "estimators", ("adaptive_net_delta",)),
    ("estimators.quadrature", "estimators", ("adaptive_gain_quadrature",)),
    ("estimate.accumulate", "estimate", ("ChunkAccumulator.add", "ChunkAccumulator.result")),
    ("protocol.game_init", "protocol", ("AuctionGame.__init__",)),
    ("protocol.game_moves", "protocol",
     tuple(f"AuctionGame.{m}" for m in (
         "buyer_commit", "mint_false_buyer", "publish_false_commit", "forward", "end_commit",
         "buyer_reveal", "reveal_false", "end_reveal", "finalize", "finalize_custom"))),
    ("protocol.run_auction", "protocol", ("run_auction",)),
    ("protocol.resolve", "protocol", ("resolve",)),
    ("protocol.conservation_residual", "protocol", ("conservation_residual",)),
    ("channels.send", "channels", ("Channel.broadcast", "Channel.private_send", "Channel.notify")),
    ("channels.buyer_views", "channels", ("Transcript.buyer_views",)),
    ("commitments.commit", "commitments", ("*.commit",)),
    ("commitments.verify", "commitments", ("*.verify",)),
    ("strategies.execute", "strategies", ("*.execute",)),
    ("strategies.view_summary", "strategies", ("view_summary",)),
    ("strategies.check_view_consistency", "strategies", ("check_view_consistency",)),
    ("verification.audit_run", "verification", ("audit_run",)),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)
_INDEX = {name: i for i, name in enumerate(LAYER_NAMES)}


def _classes_defining(module, owner: str, attr: str) -> list:
    """The class `owner` of module ("*": every class of it) that defines attr itself."""
    if owner == "*":
        candidates = [c for c in vars(module).values()
                      if isinstance(c, type) and c.__module__ == module.__name__]
    else:
        candidates = [getattr(module, owner, None)]
    return [c for c in candidates if isinstance(c, type) and attr in vars(c)]


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was counted."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.spans = []              # (layer, start, end, parent span id or -1)
        self.span_count = 0
        self._stack = [[-1, -1, 0.0]]  # frames: span id, layer, time covered by children
        # counters read off arguments and results at the boundaries
        self.profiles_drawn = 0
        self.profiles_distinct = 0
        self._draw_keys = set()
        self.quadrature_evals = 0
        self.events = 0
        self.views = 0
        self.missing = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "seeding.chunk_uniforms": self._on_draw,
            "distributions.isf": self._on_isf,
            "protocol.run_auction": self._on_run,
            "channels.buyer_views": self._on_views,
        }
        namespaces = [m for name, m in sys.modules.items()
                      if name == "drasim" or name.startswith("drasim.")]
        for layer, (name, module_name, targets) in enumerate(LAYERS):
            module = importlib.import_module(f"drasim.{module_name}")
            hook = hooks.get(name)
            for target in targets:
                owner, _, attr = target.rpartition(".")
                if owner:
                    classes = _classes_defining(module, owner, attr)
                    for cls in classes:
                        setattr(cls, attr, self._wrap(vars(cls)[attr], layer, hook))
                    found = bool(classes)
                else:
                    original = getattr(module, attr, None)
                    found = callable(original)
                    if found:
                        wrapper = self._wrap(original, layer, hook)
                        for ns in namespaces:  # every `from .x import f` binding too
                            for key, value in list(vars(ns).items()):
                                if value is original:
                                    setattr(ns, key, wrapper)
                if not found:
                    self.missing.append(f"drasim.{module_name}.{target}")
        for target in self.missing:
            print(f"perfbench tracer: {target} not found; its layer stays at zero",
                  file=sys.stderr)

    def _wrap(self, fn, layer: int, after):
        stack, spans = self._stack, self.spans
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer.span_count
            tracer.span_count = span_id + 1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[layer] += 1
                self_s[layer] += duration - frame[2]
                parent[2] += duration
                if span_id < SPAN_CAP:
                    spans.append((layer, start, end, parent[0]))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- boundary counters ------------------------------------------------------

    def _on_draw(self, args, uniforms) -> None:
        rows = uniforms.shape[0]
        self.profiles_drawn += rows
        key = (args[0], args[1], uniforms.shape)  # (stream seed, chunk, shape)
        if key not in self._draw_keys:
            self._draw_keys.add(key)
            self.profiles_distinct += rows

    def _on_isf(self, args, result) -> None:
        if self._stack[-1][1] == _INDEX["estimators.quadrature"]:  # an integrand point
            self.quadrature_evals += 1

    def _on_run(self, args, result) -> None:
        self.events += len(result[1].events)

    def _on_views(self, args, views) -> None:
        self.views += len(views)

    def end_rep(self) -> None:
        """Draws repeat across repetitions by design; count reuse within one."""
        self._draw_keys.clear()

    # -- results --------------------------------------------------------------

    def summary(self, traced_wall_s: float, reps: int) -> dict:
        """Per-layer metrics: calls per repetition and self time as % of the wall."""
        out = {}
        for i, name in enumerate(LAYER_NAMES):
            out[f"{name}.calls"] = self.calls[i] / reps
            out[f"{name}.self_pct"] = 100.0 * self.self_s[i] / traced_wall_s
        idx = _INDEX
        out["estimators.draw_reuse"] = _ratio(self.profiles_distinct, self.profiles_drawn)
        out["estimators.quadrature.evals"] = self.quadrature_evals / reps
        out["protocol.events_per_run"] = _ratio(self.events,
                                                self.calls[idx["protocol.run_auction"]])
        parses = (self.calls[idx["strategies.view_summary"]]
                  + self.calls[idx["strategies.check_view_consistency"]])
        out["strategies.view_parses_per_view"] = _ratio(parses, self.views)
        out["trace.spans"] = self.span_count / reps
        out["trace.unattributed_pct"] = 100.0 - sum(100.0 * s / traced_wall_s
                                                    for s in self.self_s)
        return out

    def self_seconds(self) -> dict:
        return {name: self.self_s[i] for i, name in enumerate(LAYER_NAMES)}

    def write_spans(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "layers": LAYER_NAMES, "spans_total": self.span_count,
                       "spans_kept": len(self.spans), "spans": self.spans}, fh)

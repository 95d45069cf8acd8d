"""Per-layer tracing of stroblim from outside its source.

`Tracer.install` replaces the public functions listed in LAYERS with timing
wrappers in every stroblim module that binds them, so calls made through a
module's own imports (`from .linalg import expm`) are caught as well.  Each
call records a span (name, start, end, parent) in memory; `write` dumps them
when the run ends.  Nothing in the package is edited.

Attribution rule for times: the linalg kernels are counted in the layer that
calls them, so `selective_limit.propagate_s` includes the `expm` calls made
by `propagate_kraus`.  `linalg.expm_s` reports the same kernel time once
more, summed over every caller.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

LAYERS = {
    "cli": ("main", "load_scenario", "write_trajectory_csv"),
    "experiments": ("compare_scenario", "compare_case", "convergence_sweep",
                    "run_method"),
    "exact": ("run_selective", "run_nonselective"),
    "selective_limit": ("effective_rank1", "effective_rankr", "propagate_kraus"),
    "nonselective_limit": ("build_generator", "semigroup_propagate"),
    "linalg": ("expm", "partial_trace", "trace_distance"),
}
KERNEL_LAYER = "linalg"

# Per-layer time metrics: metric name -> span names summed (self time, with
# kernels counted in their caller).
TIME_METRICS = {
    "selective_limit.propagate_s": ("selective_limit.propagate_kraus",),
    "selective_limit.build_s": ("selective_limit.effective_rank1",
                                "selective_limit.effective_rankr"),
    "nonselective_limit.build_s": ("nonselective_limit.build_generator",),
    "nonselective_limit.propagate_s": ("nonselective_limit.semigroup_propagate",),
    "exact.run_s": ("exact.run_selective", "exact.run_nonselective"),
    "experiments.compare_self_s": ("experiments.compare_case",
                                   "experiments.convergence_sweep"),
    "cli.load_scenario_s": ("cli.load_scenario",),
    "cli.write_csv_s": ("cli.write_trajectory_csv",),
}
# Counts that must repeat exactly between runs of one input.
COUNT_METRICS = ("linalg.expm_calls", "linalg.partial_trace_calls",
                 "linalg.trace_distance_calls", "exact.steps",
                 "exact.states_recorded", "exact.states_kept",
                 "selective_limit.samples", "nonselective_limit.samples")


class Tracer:
    """Span recorder for one traced run of the CLI."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        # Counted at layer boundaries; kernel call counts come from the spans.
        self.counts = {name: 0 for name in COUNT_METRICS if not name.startswith("linalg.")}
        self.build_peak_alloc = 0
        self._patched: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import stroblim.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items()
                   if (n == "stroblim" or n.startswith("stroblim.")) and m is not None]
        for layer, names in LAYERS.items():
            owner = sys.modules[f"stroblim.{layer}"]
            for fn_name in names:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        on_return = {
            "exact.run_selective": self._count_exact_run,
            "exact.run_nonselective": self._count_exact_run,
            "experiments.run_method": self._count_kept,
            "selective_limit.propagate_kraus": self._count_selective_samples,
            "nonselective_limit.semigroup_propagate": self._count_nonselective_samples,
        }.get(name)
        alloc = name == "nonselective_limit.build_generator"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if alloc:
                tracemalloc.start()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.build_peak_alloc = max(self.build_peak_alloc, peak)
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at layer boundaries ----------------------------------------

    def _count_exact_run(self, args, kwargs, traj) -> None:
        plan = args[0] if args else kwargs["plan"]
        self.counts["exact.steps"] += plan.n_steps
        self.counts["exact.states_recorded"] += len(traj)

    def _count_kept(self, args, kwargs, traj) -> None:
        method = args[1] if len(args) > 1 else kwargs["method"]
        if method == "exact":
            self.counts["exact.states_kept"] += len(traj)

    def _count_selective_samples(self, args, kwargs, traj) -> None:
        self.counts["selective_limit.samples"] += len(traj)

    def _count_nonselective_samples(self, args, kwargs, traj) -> None:
        self.counts["nonselective_limit.samples"] += len(traj)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span: duration minus non-kernel direct children.
        Kernel spans get 0, their time stays with the caller."""
        kernel = [name.startswith(KERNEL_LAYER + ".") for name, *_ in self.spans]
        own = [0.0 if k else t1 - t0 for k, (_, t0, t1, _) in zip(kernel, self.spans)]
        for k, (_, t0, t1, parent) in zip(kernel, self.spans):
            if parent >= 0 and not k:
                own[parent] -= t1 - t0
        return own

    def layer_self_times(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS if layer != KERNEL_LAYER}
        for (name, *_rest), own in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += own
        return out

    def metrics(self) -> dict:
        own = self.self_times()
        by_name: dict = {}
        calls: dict = {}
        for (name, t0, t1, _), s in zip(self.spans, own):
            by_name[name] = by_name.get(name, 0.0) + s
            calls[name] = calls.get(name, 0) + 1
        out = {metric: sum(by_name.get(n, 0.0) for n in names)
               for metric, names in TIME_METRICS.items()}
        out["linalg.expm_s"] = sum(t1 - t0 for name, t0, t1, _ in self.spans
                                   if name == "linalg.expm")
        counts = dict(self.counts)
        for kernel in ("expm", "partial_trace", "trace_distance"):
            counts[f"linalg.{kernel}_calls"] = calls.get(f"linalg.{kernel}", 0)
        out.update(counts)
        recorded = counts["exact.states_recorded"]
        out["exact.kept_ratio"] = counts["exact.states_kept"] / recorded if recorded else 0.0
        out["nonselective_limit.build_peak_alloc_mb"] = self.build_peak_alloc / 2 ** 20
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "metrics": self.metrics()}, fh)

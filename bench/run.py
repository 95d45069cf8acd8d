"""stroblim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stroblim is imported from its `src/`.
Each sample is a fresh `bench/child.py` process running one `stroblim`
command through `stroblim.cli.main`, one process at a time (a closed loop
with a single client), so set-up time and peak RSS belong to that command.
A run starts SETUP_PROBES set-up-only processes, then runs the command
until the next one would end after S seconds, and at least MIN_RUNS times
(at least one pair when traced), with one more set-up-only process before
each, so set-up is sampled across the whole run.
Every command's outputs are checked (see checks.py); `failed` counts the
processes whose outputs miss a check.

--trace 0 reports the end-to-end metrics:
  wall_s         median wall time of cli.main, after import and scenario load
  setup_s        median time from process start until stroblim is imported and
                 the scenario is loaded, over the probes and the command runs
  peak_rss_mb    median peak resident set size of the command process
  max_deviation  median exact-vs-limit max deviation the outputs report
--trace 1 runs the command in pairs, untraced then traced, and reports the
per-layer metrics of tracer.py (medians over the traced runs) plus
trace.overhead_s, the median over pairs of traced minus untraced wall time.

wall_s, setup_s and the per-layer times are host-speed-adjusted.  The host
is shared, and its speed moves by tens of percent over seconds to minutes
for every process on it alike, with no steal time visible inside the guest.
While each child runs, a thread in this process times a fixed slice of
pure-Python work every PROBE_PERIOD_S (SpeedProbe), and each time is
multiplied by PROBE_REF_S over the mean slice time in the same window: the
time the child would have taken at the reference speed.  The unadjusted
medians are printed and saved as raw_wall_s and raw_setup_s.  The probe
takes about a tenth of one CPU; a command that used every CPU would slow
the probe and so read faster.

Child processes get BLAS_THREADS threads (capped at the CPUs available) and
no STROBLIM_THREADS.  The environment is printed and saved with every
result under .bench_out/, together with the spans of the last traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy

import checks
import scenarios
from tracer import COUNT_METRICS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_out")

BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2
MIN_RUNS = 3
RUN_LIMIT_S = 170  # a whole run, set-up probes included, ends within this
PROBE_LOOPS = 30_000    # one probe slice: this many `s += i * i` steps
PROBE_PERIOD_S = 0.02   # pause between probe slices
PROBE_REF_S = 0.002     # reference slice time: about a quiet core of a 2-vCPU Xeon VM


def metric_units(trace: bool) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(BLAS_THREADS, cpu_count())


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("STROBLIM_THREADS", "PYTHONPATH")}
    env.update({var: str(blas_threads()) for var in THREAD_VARS})
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": cpu_count(),
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _probe_slice() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return s


class SpeedProbe:
    """Times a fixed slice of pure-Python work, in a thread, while a child runs.

    The slices see the same host slowdown as the child, so a time scaled by
    PROBE_REF_S over the mean slice time of its window no longer carries it.
    """

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []  # (start, end), CLOCK_MONOTONIC
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            t0 = time.monotonic()
            _probe_slice()
            self.slices.append((t0, time.monotonic()))
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, window) -> float:
        """Factor from a time over window (start, end) to reference-speed time.

        Uses the slices centred in the window, or all of them if none is (a
        window shorter than one period); there is always at least one."""
        start, end = window
        inside = [t1 - t0 for t0, t1 in self.slices if start <= (t0 + t1) / 2 <= end]
        return PROBE_REF_S / statistics.fmean(inside or [t1 - t0 for t0, t1 in self.slices])


class Runner:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> None:
        self.workload = scenarios.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.env = child_env()
        self.work = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
        self.out_dir = os.path.join(self.work, "out")
        os.makedirs(self.work, exist_ok=True)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        self.scenario = scenarios.write_scenario(workload, seed, self.work, tiny)
        with open(self.scenario, encoding="utf-8") as fh:
            self.doc = json.load(fh)
        self.cli_args = [self.workload.command, self.scenario, "--out-dir", self.out_dir,
                         *scenarios.command_args(workload, tiny)]
        self.trace_file = os.path.join(RESULTS_DIR, f"trace-{workload}-seed{seed}.json")
        self.layer_seconds = {n for n, u in metric_units(True).items() if u == "s"}
        self.attempted = 0
        self.failed = 0
        self.layer_self_s = None
        self.hard_deadline = time.monotonic() + RUN_LIMIT_S

    def reference(self):
        wl = self.workload
        if self.tiny or (wl.seeded and self.seed != wl.default_seed):
            return None
        return checks.REFERENCES[wl.name]

    def _spawn(self, setup_only: bool = False, traced: bool = False) -> dict | None:
        """Start one child, wait for it, and return its result or None on failure."""
        self.attempted += 1
        if not setup_only:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--root", ROOT,
               "--t0", repr(t0), "--scenario", self.scenario]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--trace-file", self.trace_file]
        cmd += ["--", *self.cli_args]
        with SpeedProbe() as probe:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            timeout = max(1.0, self.hard_deadline - time.monotonic())
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return self._fail(f"timed out after {timeout:.0f} s")
        if proc.returncode != 0:
            return self._fail(f"child exited {proc.returncode}: {err.strip()[-500:]}")
        result = json.loads(out.strip().splitlines()[-1])
        result["raw_setup_s"] = result["setup_s"]
        result["setup_s"] *= probe.scale(result["setup_window"])
        if setup_only:
            return result
        self._adjust_command_times(result, probe.scale(result["wall_window"]))
        try:
            result["max_deviation"] = checks.check_run(
                self.workload, self.doc, self.cli_args, result["exit_code"],
                result["stdout"], self.out_dir, self.reference())
        except checks.CheckError as err:
            return self._fail(f"output check: {err}")
        result["csv_bytes"] = sum(
            os.path.getsize(os.path.join(self.out_dir, f))
            for f in os.listdir(self.out_dir) if f.endswith(".csv"))
        return result

    def _adjust_command_times(self, result: dict, factor: float) -> None:
        """Scale the command's wall time, and its layer times when traced, to
        reference speed; keep the unadjusted wall time as raw_wall_s."""
        result["raw_wall_s"] = result["wall_s"]
        result["wall_s"] *= factor
        if "layers" in result:
            for name in self.layer_seconds & set(result["layers"]):
                result["layers"][name] *= factor
            result["layer_self_s"] = {k: v * factor
                                      for k, v in result["layer_self_s"].items()}

    def _fail(self, reason: str) -> None:
        self.failed += 1
        print(f"FAILED: {reason}", file=sys.stderr)
        return None

    def run(self) -> dict:
        """Samples of every metric; with tracing, per-layer metrics instead."""
        deadline = time.monotonic() + self.seconds
        setups, plain, traced, overheads, durations = [], [], [], [], []

        def command(is_traced: bool) -> dict | None:
            res = self._spawn(traced=is_traced)
            if res is not None:
                setups.append(res)
                (traced if is_traced else plain).append(res)
            return res

        def probe() -> None:
            res = self._spawn(setup_only=True)
            if res is not None:
                setups.append(res)

        for _ in range(SETUP_PROBES):
            probe()
        # A traced run is paired with the untraced run just before it, so the
        # overhead is measured under the same machine load.
        min_rounds = 1 if self.trace else MIN_RUNS
        while time.monotonic() < self.hard_deadline and (
                len(durations) < min_rounds
                or time.monotonic() + statistics.median(durations) <= deadline):
            t = time.monotonic()
            probe()
            res = command(False)
            if self.trace:
                res_traced = command(True)
                if res is not None and res_traced is not None:
                    overheads.append(res_traced["wall_s"] - res["wall_s"])
            durations.append(time.monotonic() - t)
        if self.trace:
            return self._layer_metrics(traced, overheads)
        return {"setup_s": [r["setup_s"] for r in setups],
                "wall_s": [r["wall_s"] for r in plain],
                "raw_setup_s": [r["raw_setup_s"] for r in setups],
                "raw_wall_s": [r["raw_wall_s"] for r in plain],
                "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
                "max_deviation": [r["max_deviation"] for r in plain]}

    def _layer_metrics(self, traced, overheads) -> dict:
        if not traced:
            return {}
        first = {k: traced[0]["layers"][k] for k in COUNT_METRICS}
        for res in traced[1:]:
            if any(res["layers"][k] != v for k, v in first.items()):
                self._fail("trace counts differ between runs of one input")
        layers = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        layers["cli.csv_bytes"] = [r["csv_bytes"] for r in traced]
        layers["trace.overhead_s"] = overheads
        self.layer_self_s = {
            layer: statistics.median(r["layer_self_s"][layer] for r in traced)
            for layer in traced[0]["layer_self_s"]}
        return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stroblim", "cli.py")):
        print(f"error: no stroblim sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    started = time.monotonic()
    try:
        samples = runner.run()
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    elapsed = time.monotonic() - started
    units = metric_units(bool(args.trace))
    names = list(units)
    correct = runner.failed == 0 and all(samples.get(n) for n in names)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} processes in {elapsed:.1f} s")
    metrics = {}
    for name in names:
        values = samples.get(name) or [0.0]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": units[name]}
        print(f"  {name:42s} median {med:.10g} {units[name]}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples.get(name) or [])}")
    for name in ("raw_wall_s", "raw_setup_s"):
        if samples.get(name):
            q1, med, q3 = quartiles(samples[name])
            print(f"  {name + ' (not host-adjusted)':42s} median {med:.10g} s  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples[name])}")
    if runner.layer_self_s:
        print("  layer self time (kernels counted in their caller):")
        for layer, s in sorted(runner.layer_self_s.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:20s} {s:.4f} s")
    print(f"  error_rate {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:g}")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "env": env, "samples": samples,
              "layer_self_s": runner.layer_self_s,
              "attempted": runner.attempted, "failed": runner.failed}
    tag = "-tiny" if args.tiny else ""
    path = os.path.join(RESULTS_DIR, f"result-{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""iqcontrol benchmark: one client in a closed loop, runs checked one by one.

Run from the repository root:

    python3 bench/run.py --workload amplify-deep --seed 1 --seconds 10 --trace 0

Each run starts only when the previous one has finished and its output has
been checked.  A run is one in-process ``iqcontrol.cli.main([...])`` call, or
in ``steer-small`` one library steering run.  Only the call is timed; input
generation and output checks happen between runs with the clock stopped.

The benchmark times a fixed number of design cycles, set by ``--seconds``
alone (see CYCLES_PER_10S).  ``--trace 0`` times them untraced, each in a
fresh worker process (``--cycle j``), and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` times half as many cycles untraced in its own
process, then as many on other inputs of the same cost schedule with span
wrappers installed on the package (see spans.py), and reports the per-layer
metrics; the spans are written to ``.bench_out/``.  The last line
of stdout is the JSON result; the line before it holds details (environment,
raw timings, tail percentile and sample count, failure ratio, latency per
run kind).
"""

import os

# Pin BLAS before numpy loads: the benchmark measures one client on a small
# machine, and BLAS threads would compete with it.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)
# The timed loop runs in fresh worker interpreters (see run_workers), under one
# fixed hash seed: string hashing is seeded per process, and on the reference
# machine the same work's speed relative to the speed probe differed by about
# 10% between processes with random seeds.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
# Fresh imports timed for setup_s: some before the timed loop and the rest
# after it, so that one slow phase of the machine does not hold them all.
SETUP_SAMPLES = (4, 3)
WARMUP_RUNS, WARMUP_SECONDS = 6, 0.5
TAIL_BEYOND = 10   # the tail percentile is the highest with this many samples beyond it
# Design cycles timed per 10 s of --seconds, each in a worker process of its
# own.  Set from the parent commit's run times, so that there the workers
# spend about --seconds in timed calls.  The count scales with --seconds alone,
# never with the program's speed: parent and child time the same inputs and
# report the same percentile.  A process's code and heap layout moves its
# speed by a few percent; several processes average that out.
CYCLES_PER_10S = {"amplify-deep": 5, "shots-bulk": 4, "analyze-dense": 4, "steer-small": 6}
DEADLINE_S = 150.0     # wall seconds after start at which loops are cut, to exit within 180 s
# The shared machine this was built on has phases of 1-30 s in which the same
# work takes 1.6-2.5x as long.  Every time is rescaled by a speed probe taken
# around it (see SpeedProbe).
PROBE_INTERVAL = 0.1   # seconds between speed probes
PROBE_REF_S = 4.0e-4   # the probe's time in a fast phase of the reference machine


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array work, fastest of three.

    It touches nothing of the program.  On the reference machine its time
    follows the program's through slow phases (correlation 0.7-0.9).
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for k in range(4000):
            acc += (k * k) % 7
        a = np.arange(64.0)
        for _ in range(40):
            a = np.cumsum(a) % 3.0
        best = min(best, perf_counter() - t0)
    return best


class SpeedProbe:
    """Probes the machine's speed between runs and rescales times by it.

    ``tick`` probes when PROBE_INTERVAL has passed since the last probe.  A
    time measured from ``start`` to ``end`` is multiplied by PROBE_REF_S over
    the mean of the last probe before ``start`` and the first probe after
    ``end``, which turns it into seconds at the reference machine's fast
    speed.  The raw times stay in the details line.
    """

    def __init__(self):
        self.stamps: list[float] = []   # when each probe finished
        self.values: list[float] = []

    def tick(self, force: bool = False) -> None:
        if force or not self.stamps or perf_counter() - self.stamps[-1] >= PROBE_INTERVAL:
            value = speed_probe()
            self.stamps.append(perf_counter())
            self.values.append(value)

    def factor(self, start: float, end: float) -> float:
        around = [bisect_right(self.stamps, start) - 1, bisect_left(self.stamps, end)]
        probes = [self.values[k] for k in around if 0 <= k < len(self.values)]
        return PROBE_REF_S * len(probes) / sum(probes)


def measure_setup(probe: SpeedProbe, samples: int) -> tuple[list[float], list[float]]:
    """Raw and rescaled wall times of fresh interpreters importing iqcontrol.cli.

    One unmeasured import first writes the bytecode cache, which a user of
    an installed package has too.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import iqcontrol.cli"]
    subprocess.run(cmd, env=env, check=True)
    windows = []
    for _ in range(samples):
        probe.tick(force=True)
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        windows.append((t0, perf_counter()))
    probe.tick(force=True)
    raw = [t1 - t0 for t0, t1 in windows]
    return raw, [(t1 - t0) * probe.factor(t0, t1) for t0, t1 in windows]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond.

    With too few samples for that, the maximum at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Closed-loop run of one workload's list, a fixed number of design cycles long."""

    def __init__(self, workloads, workload: str, seed: int):
        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.probe = SpeedProbe()
        self.failures: list[str] = []
        self.attempted = 0
        self.deadline = perf_counter() + DEADLINE_S

    def warm_up(self) -> None:
        start = perf_counter()
        for k in range(WARMUP_RUNS):
            item = self.w.make_item(self.workload, self.seed, k, self.w.WARMUP)
            self.w.check(item, self.w.execute(item)[1])
            self.probe.tick()
            if perf_counter() - start > WARMUP_SECONDS:
                break

    def run(self, first: int, count: int, stream: int, tracer=None) -> dict:
        """Runs first, first+1, ..., first+count-1 of ``stream``, each checked
        after it ran.

        Every run is a new input, timed once.  Only the DEADLINE_S guard can
        cut a loop short; ``cut`` counts the runs it left out.  ``factors`` has
        one speed factor per run, in order, for a tracer to rescale its spans
        with.
        """
        raw, windows, report_bytes, kinds = [], [], [], []
        for i in range(first, first + count):
            if perf_counter() > self.deadline:
                break
            item = self.w.make_item(self.workload, self.seed, i, stream)
            self.probe.tick()
            if tracer is not None:
                tracer.begin_run(item.is_cli)
            t0 = perf_counter()
            latency, outcome = self.w.execute(item)
            windows.append((t0, perf_counter()))
            if tracer is not None:
                tracer.end_run(latency)
            problems = self.w.check(item, outcome)
            if problems:
                self.failures.append(f"run {i} ({item.kind}): {'; '.join(problems)}")
            if item.is_cli:
                report_bytes.append(len(outcome.text.encode()))
            raw.append(latency)
            kinds.append(item.kind)
        self.probe.tick(force=True)
        self.attempted += len(raw)
        factors = [self.probe.factor(t0, t1) for t0, t1 in windows]
        return {"latencies": [t * f for t, f in zip(raw, factors)], "raw": raw, "factors": factors,
                "report_bytes": report_bytes, "kinds": kinds, "cut": count - len(raw)}


def run_workers(args, cycles: int, cycle_runs: int) -> dict:
    """Time the workload in ``cycles`` fresh interpreters, one after another,
    each running one design cycle (see WORKER_ENV); merge what they report."""
    merged = {"latencies": [], "raw": [], "factors": [], "report_bytes": [], "kinds": [],
              "failures": [], "attempted": 0, "peak_rss_mib": 0.0, "cut": 0}
    deadline = perf_counter() + DEADLINE_S
    for j in range(cycles):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--cycle", str(j)]
        try:
            done = subprocess.run(cmd, env=WORKER_ENV, stdout=subprocess.PIPE, text=True, check=True,
                                  timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:  # run() has killed the worker and waited for it
            merged["cut"] += (cycles - j) * cycle_runs
            break
        part = json.loads(done.stdout.splitlines()[-1])
        for key in ("latencies", "raw", "factors", "report_bytes", "kinds", "failures"):
            merged[key] += part[key]
        merged["attempted"] += part["attempted"]
        merged["cut"] += part["cut"]
        merged["peak_rss_mib"] = max(merged["peak_rss_mib"], part["peak_rss_mib"])
    return merged


def timing_metrics(latencies: list[float]) -> dict:
    return {
        "run_ms_p50": 1e3 * statistics.median(latencies),
        "run_ms_tail": 1e3 * tail(latencies)[0],
        "runs_per_s": len(latencies) / sum(latencies),
    }


def end_to_end(result: dict, setup_raw: list[float], setup: list[float]) -> tuple[dict, dict]:
    lat = result["latencies"]
    by_kind = defaultdict(list)
    for kind, latency in zip(result["kinds"], lat):
        by_kind[kind].append(latency)
    values = {
        "setup_s": statistics.median(setup),
        **timing_metrics(lat),
        "peak_rss_mib": result["peak_rss_mib"],
        "report_kib_p50": statistics.median(result["report_bytes"]) / 1024.0,
    }
    details = {
        "run_ms_tail_percentile": tail(lat)[1],
        "run_ms_tail_samples": len(lat),
        "raw": {"setup_s": statistics.median(setup_raw), **timing_metrics(result["raw"])},
        "speed_factor_p50": statistics.median(result["factors"]),
        "setup_s_samples": setup,
        "runs_cut": result["cut"],
        "timed_s": sum(lat),
        "run_ms_p50_by_kind": {
            kind: 1e3 * statistics.median(v) for kind, v in sorted(by_kind.items())
        },
    }
    return values, details


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_vendor = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "blas_threads": BLAS_THREADS,
        "worker_hash_seed": WORKER_ENV["PYTHONHASHSEED"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycle", type=int, help=argparse.SUPPRESS)  # worker: time this cycle only
    args = parser.parse_args(argv)

    if not (SRC / "iqcontrol" / "__init__.py").is_file():
        return _fail(f"no iqcontrol sources under {SRC}; run from the repository root")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("no BENCHMARK.json in the working directory")
    sys.path.insert(0, str(SRC))
    import iqcontrol

    if Path(iqcontrol.__file__).resolve().parent != (SRC / "iqcontrol").resolve():
        return _fail(f"imported iqcontrol from {iqcontrol.__file__}, not from {SRC}")
    import workloads

    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(why)}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    cycles = max(1, round(CYCLES_PER_10S[args.workload] * args.seconds / 10))
    cycle_runs = workloads.CYCLE[args.workload]

    loop = Loop(workloads, args.workload, args.seed)
    if args.cycle is not None:
        loop.warm_up()
        part = loop.run(args.cycle * cycle_runs, cycle_runs, workloads.TIMED)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({**part, "failures": loop.failures, "attempted": loop.attempted,
                          "peak_rss_mib": peak_rss_mib}))
        return 0

    details = {"workload": args.workload, "why": why[args.workload],
               "environment": environment(args.seed)}
    if args.trace:
        import spans

        loop.warm_up()
        half = max(1, cycles // 2) * cycle_runs
        untraced = loop.run(0, half, workloads.TIMED)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = loop.run(0, half, workloads.TRACED, tracer)
        finally:
            tracer.restore()
        values = tracer.layer_metrics(traced["latencies"], untraced["latencies"], traced["factors"])
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}.json")
        details["self_ms_per_run"] = {k: v for k, v in sorted(values.items()) if k.endswith(".self_ms")}
        details["traced_runs"] = len(tracer.run_is_cli)
        details["runs_cut"] = untraced["cut"] + traced["cut"]
        failures, attempted = loop.failures, loop.attempted
    else:
        setup_raw, setup = measure_setup(loop.probe, SETUP_SAMPLES[0])
        result = run_workers(args, cycles, cycle_runs)
        after_raw, after = measure_setup(loop.probe, SETUP_SAMPLES[1])
        values, extra = end_to_end(result, setup_raw + after_raw, setup + after)
        details.update(extra)
        failures, attempted = result["failures"], result["attempted"]
    details["fail_ratio"] = len(failures) / attempted
    details["failures"] = failures[:20]

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return _fail(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(details))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

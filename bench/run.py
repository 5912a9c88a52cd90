"""Run one kreingeo benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload oracle --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --selfcheck

A run is one process.  A set-up pass imports kreingeo afresh, builds the
catalog entries and generates the seeded inputs; the run keeps the inputs
of its first pass.  It then repeats whole units until ``--seconds`` have
passed and at least MIN_CASES cases ran.  A unit is SETUP_PASSES set-up
passes, one pass of the workload's experiments at their default config
through ``run_experiment``, and a fixed number of rounds of the seeded
library cases.  Interleaving spreads every kind of sample over the whole
run, so a slow spell of a shared host does not land on one metric alone.
``setup_s`` is the median set-up pass, ``experiment_s`` sums the
per-experiment medians, and the case latencies give the quantiles and the
throughput.

With ``--trace 1`` the same run is made with spans around the library's
public functions, and the per-layer metrics are printed instead.  The last
line of standard output is the JSON result.
"""

import os

# One BLAS thread: on a 2-vCPU virtual machine, OpenBLAS worker threads made
# the library's small LAPACK calls (eigvalsh of 96x96 in leggauss) several
# times slower.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import typing  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "_out"

SETUP_PASSES = 3
MIN_CASES = 100


def _fresh_import():
    """Import kreingeo (and its experiments module) from src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "kreingeo" or n.startswith("kreingeo.")]:
        del sys.modules[name]
    kg = importlib.import_module("kreingeo")
    if Path(kg.__file__).resolve().parent.parent != SRC_DIR:
        raise ImportError(f"kreingeo was imported from {kg.__file__}, not from {SRC_DIR}")
    importlib.import_module("kreingeo.experiments")
    return kg


def _release_discarded_import() -> None:
    """Free a discarded import now, untimed, so it does not pile up in peak_rss_mb.

    typing caches parameterised annotations such as ``Callable[[], CatalogEntry]``,
    which keep the old classes and module globals alive; the rest is cyclic garbage.
    """
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


class Tally:
    """Attempted and failed operations; a wrong result also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._reported = set()

    def record(self, label: str, ok: bool | None, detail: str = "") -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if ok is False:
            self.wrong += 1
        if label not in self._reported:
            self._reported.add(label)
            print(f"FAILED {label}: {detail or 'check failed'}", file=sys.stderr)


def _setup(workload, seed: int, tiny: bool, tracer, times: list):
    """One set-up pass; returns the freshly imported library and the seeded cases."""
    if tracer is not None:
        tracer.current_phase = tracing.SETUP
        tracer.units[tracing.SETUP] += 1
    start = time.perf_counter()
    kg = _fresh_import()
    if tracer is not None:
        tracer.install()
    for name in kg.builtin_names():
        kg.builtin(name)
    cases = workload.build(kg, np.random.default_rng(seed), tiny)
    times.append(time.perf_counter() - start)
    return kg, cases


def _experiment_pass(exp, workload, seed: int, tiny: bool, out_root: Path, tally: Tally,
                     tracer, times: dict) -> None:
    for name in workload.experiments:
        out = out_root / name
        params = wl.TINY_PARAMETERS[name] if tiny else None
        cfg = exp.ExperimentConfig.build(name, params, seed=seed, out_dir=out)
        try:
            start = time.perf_counter()
            if tracer is None:
                report = exp.run_experiment(cfg)
            else:
                with tracer.span(f"experiment:{name}"):
                    report = exp.run_experiment(cfg)
            times[name].append(time.perf_counter() - start)
        except Exception as exc:  # a crashing experiment is a failed operation
            tally.record(name, None, "".join(traceback.format_exception_only(exc)).strip())
            continue
        check = wl.EXPERIMENT_CHECKS.get(name)
        ok = report.passed and all((out / f).is_file() for f in report.csv_files)
        tally.record(name, bool(ok and (check is None or check(out, cfg))))


def _case_round(cases, tally: Tally, tracer, latencies: list, by_kind: dict) -> None:
    clock = time.perf_counter
    for case in cases:
        span = tracer.span(f"case:{case.kind}") if tracer is not None else None
        detail = ""
        start = clock()
        try:
            if span is None:
                ok = bool(case.check(case.call(), case.expected))
            else:
                with span:
                    ok = bool(case.check(case.call(), case.expected))
        except Exception as exc:  # any exception other than a predicted one fails the case
            ok, detail = None, "".join(traceback.format_exception_only(exc)).strip()
        elapsed = clock() - start
        tally.record(case.kind, ok, detail)
        if ok:
            latencies.append(elapsed)
            by_kind.setdefault(case.kind, []).append(elapsed)


def _measure(kg, workload, cases, seed: int, seconds: float, tiny: bool, out_root: Path,
             tally: Tally, tracer, setup_times: list):
    """Whole units of set-up passes, one experiment pass and case rounds, for ``seconds``."""
    exp_times = {name: [] for name in workload.experiments}
    latencies: list[float] = []
    by_kind: dict[str, list[float]] = {}
    passes = rounds = 0
    case_wall = 0.0
    begin = time.perf_counter()
    while True:
        for _ in range(SETUP_PASSES):
            _setup(workload, seed, tiny, tracer, setup_times)
            _release_discarded_import()
        if tracer is not None:
            tracer.current_phase = tracing.EXPERIMENT
        _experiment_pass(kg.experiments, workload, seed, tiny, out_root, tally, tracer, exp_times)
        passes += 1
        if tracer is not None:
            tracer.current_phase = tracing.CASE
        start = time.perf_counter()
        for _ in range(workload.rounds_per_pass):
            _case_round(cases, tally, tracer, latencies, by_kind)
        case_wall += time.perf_counter() - start
        rounds += workload.rounds_per_pass
        if time.perf_counter() - begin >= seconds and (tiny or len(latencies) >= MIN_CASES):
            break
    if tracer is not None:
        tracer.units[tracing.EXPERIMENT] = passes
        tracer.units[tracing.CASE] = rounds
    return exp_times, latencies, by_kind, rounds, case_wall


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    workload = wl.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    tally = Tally()
    out_root = OUT_DIR / f"run-{os.getpid()}"
    try:
        setup_times: list[float] = []
        kg, cases = _setup(workload, seed, tiny, tracer, setup_times)
        if tracer is not None:
            tracer.current_phase = tracing.PREPARE
        for case in cases:
            case.expected = case.reference()
        exp_times, latencies, by_kind, rounds, wall = _measure(
            kg, workload, cases, seed, seconds, tiny, out_root, tally, tracer, setup_times)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    summary = [f"{name} seed={seed}: {len(cases)} cases x {rounds} rounds, {wall:.2f} s in cases",
               f"setup passes (s): {' '.join(f'{t:.3f}' for t in setup_times)}"]
    summary += [f"experiment {n} (s): {' '.join(f'{t:.3f}' for t in ts)}" for n, ts in exp_times.items()]
    summary += [f"case {k}: n={len(v)} median {statistics.median(v) * 1e3:.3f} ms"
                for k, v in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))]
    print("\n".join(summary), file=sys.stderr)

    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{name}.npz", seed=seed)
        metrics = tracer.per_layer()
    else:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1 else [0.0] * 9
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "experiment_s": (sum(statistics.median(ts) for ts in exp_times.values() if ts), "s"),
            "case_p50_ms": (deciles[4] * 1e3, "ms"),
            "case_p90_ms": (deciles[8] * 1e3, "ms"),
            "cases_per_s": (len(latencies) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


E2E_METRICS = ("setup_s", "experiment_s", "case_p50_ms", "case_p90_ms", "cases_per_s", "peak_rss_mb")


def selfcheck() -> int:
    """Every workload at a tiny size, untraced and traced, with all checks on."""
    status = 0
    for name in wl.WORKLOADS:
        for trace in (False, True):
            start = time.perf_counter()
            result = run_workload(name, seed=0, seconds=0.0, trace=trace, tiny=True)
            expected = set(tracing.PER_LAYER) if trace else set(E2E_METRICS)
            good = (result["correct"] and result["failed"] == 0
                    and set(result["metrics"]) == expected)
            status |= not good
            print(f"selfcheck {name} trace={int(trace)}: {'ok' if good else 'FAIL'} "
                  f"({result['attempted']} operations, {time.perf_counter() - start:.1f} s)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "kreingeo" / "__init__.py").is_file():
        print(f"error: no kreingeo sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    if args.selfcheck:
        return selfcheck()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

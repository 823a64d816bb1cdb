"""Benchmark command for crraport: one workload, one process, one JSON line.

    python3 benchmarks/run.py --workload study-default --seed 7 --seconds 20 --trace 0

Runs from a plain checkout: it imports crraport from ``src/`` next to this
directory, with no install and no PYTHONPATH. BLAS runs on one thread.
Outputs go to ``.bench_out/`` at the checkout root (git-ignored) and are
removed at exit.

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics. The last line of standard output is the JSON result.

End-to-end times are in reference seconds (see ``speed.py``): CPU time
scaled by a small fixed reference kernel that a CPU-time timer runs every
0.1 s inside each timed interval, so that the host's changing speed cancels
out. The raw wall and CPU times are printed before the result.
"""

from __future__ import annotations

import os

# Before numpy loads: a fixed single BLAS thread keeps timings comparable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
SETUP_INTERVAL_S = 0.01  # set-ups are short, so sample the kernel more often
MIN_PASSES = 2


class _Clock:
    """Wall and CPU time of one interval, and the kernel pieces run in it.

    With a sampler, the reference kernel runs only inside the interval.
    """

    def __init__(self, sampler) -> None:
        self.sampler = sampler

    def _read(self) -> tuple[float, float, int]:
        if self.sampler is None:
            return time.thread_time(), 0.0, 0
        return self.sampler.snapshot()

    def __enter__(self):
        if self.sampler is not None:
            self.sampler.start()
        self.t0 = time.perf_counter()
        self.c0, self.k0, self.n0 = self._read()
        return self

    def __exit__(self, *exc) -> None:
        c1, k1, n1 = self._read()
        if self.sampler is not None:
            self.sampler.stop()
        self.wall = time.perf_counter() - self.t0
        self.cpu = (c1 - self.c0) - (k1 - self.k0)  # without the kernel's own time
        self.pieces = self.sampler.pieces[self.n0 : n1] if self.sampler is not None else []


def _setup(workload, seed: int, workdir: Path, sampler):
    """Import crraport afresh and build the inputs, SETUP_REPEATS times.

    numpy and scipy stay loaded after the first repeat, so the median is
    the cost of importing crraport itself plus building the inputs.
    Returns the package, the inputs and a ``_Clock`` per repeat.
    """
    clocks = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "crraport" or n.startswith("crraport.")]:
            del sys.modules[name]
        with _Clock(sampler) as clock:
            cp = importlib.import_module("crraport")
            inputs = workload.build(cp, seed, workdir)
        clocks.append(clock)
    return cp, inputs, clocks


def _timed_pass(workload, cp, inputs, out_dir: Path, tracer=None, sampler=None):
    """One pass: its ``_Clock`` and its collected outcome."""
    if tracer is not None:
        tracer.install()
    try:
        with _Clock(sampler) as clock:
            result = workload.run_pass(cp, inputs, out_dir)
        error = None
    except Exception as exc:  # a raising pass fails all its operations
        result, error = None, exc
    finally:
        if tracer is not None:
            tracer.remove()
    if error is not None:
        print(f"pass raised {type(error).__name__}: {error}", file=sys.stderr)
        outcome = workload.failed_outcome(inputs)
    else:
        outcome = workload.collect(inputs, out_dir, result)
    shutil.rmtree(out_dir, ignore_errors=True)
    return clock, outcome


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import checks
    import layertrace
    import speed
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    # Untraced runs sample the reference kernel inside every timed interval;
    # traced runs time wall clock only, as the tracer's self times do.
    setup_sampler = None if trace else speed.Sampler(SETUP_INTERVAL_S)
    sampler = None if trace else speed.Sampler()
    cp, inputs, setup_clocks = _setup(workload, seed, workdir, setup_sampler)

    plain, outcomes, tracers, overheads = [], [], [], []
    started = time.perf_counter()
    while len(plain) < MIN_PASSES or time.perf_counter() - started < seconds:
        n = len(outcomes)
        clock, outcome = _timed_pass(workload, cp, inputs, workdir / f"pass{n}", sampler=sampler)
        if n:
            outcome.tables = None  # only the first pass's tables are checked;
            # keeping more would make peak_rss_mb grow with the pass count
        plain.append(clock)
        outcomes.append(outcome)
        if trace:
            tracer = layertrace.Tracer()
            traced, outcome = _timed_pass(workload, cp, inputs, workdir / f"pass{n}t", tracer)
            outcome.tables = None
            outcomes.append(outcome)
            tracers.append(tracer)
            overheads.append(traced.wall - clock.wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = checks.check_identical([o.digest for o in outcomes])
    if outcomes[0].digest:  # empty when the pass raised
        problems += workload.check(cp, inputs, outcomes[0], seed)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    if not trace:
        problems += [f"reference kernel raised {e}" for e in setup_sampler.errors + sampler.errors]
        # A set-up is too short to hold many kernel pieces: scale them all by
        # the pieces of the whole set-up phase.
        setup_s = [speed.to_reference(c.cpu, setup_sampler.pieces) for c in setup_clocks]
        pass_s = [speed.to_reference(c.cpu, c.pieces) for c in plain]
        rates = [(o.attempted - o.failed) / s for o, s in zip(outcomes, pass_s)]
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "pass_s": _metric(statistics.median(pass_s), "s"),
            "ops_per_s": _metric(statistics.median(rates), "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        counts = [(dict(t.calls), t.nfev, t.write_bytes) for t in tracers]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced passes of one seed made different call counts")
        first = tracers[0]
        metrics = {}
        for name in layertrace.traced_names():
            metrics[f"{name}.calls"] = _metric(first.calls.get(name, 0), "count")
            metrics[f"{name}.self_s"] = _metric(
                statistics.median(t.self_s.get(name, 0.0) for t in tracers), "s"
            )
        ec_calls = first.calls.get("frontier.efficient_constants", 0)
        metrics["frontier.efficient_constants.calls_per_market"] = _metric(
            ec_calls / inputs["markets"], "calls/market"
        )
        solves = first.calls.get("oracle.maximize_numeric", 0)
        solve_s = statistics.median(t.total_s.get("oracle.maximize_numeric", 0.0) for t in tracers)
        metrics["oracle.maximize_numeric.s_per_solve"] = _metric(
            solve_s / solves if solves else 0.0, "s"
        )
        metrics["oracle.nfev"] = _metric(first.nfev, "count")
        metrics["study.write_bytes"] = _metric(first.write_bytes, "bytes")
        metrics["trace.overhead_s"] = _metric(statistics.median(overheads), "s")

    for problem in problems:
        print(f"check failed: {problem}")
    print(
        f"workload={workload_name} seed={seed} trace={int(trace)} passes={len(outcomes)} "
        f"blas_threads={BLAS_THREADS} attempted={attempted} failed={failed}"
    )
    print("setup cpu seconds: " + " ".join(f"{c.cpu:.4f}" for c in setup_clocks))
    print("pass wall seconds: " + " ".join(f"{c.wall:.3f}" for c in plain))
    print("pass cpu seconds: " + " ".join(f"{c.cpu:.3f}" for c in plain))
    if not trace:
        print(
            "kernel pieces per pass, harmonic mean (cpu ms): "
            + " ".join(
                f"{len(c.pieces)}x{1e3 * statistics.harmonic_mean(c.pieces):.2f}" for c in plain
            )
        )
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("study-default", "study-wide-csv", "verify-pool")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crraport" / "__init__.py").is_file():
        print(f"crraport sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run still uses it, or it never existed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload through coxfact.cli.entrypoint, in process.

    python3 bench/run.py --workload verify-matrix --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The run repeats passes over the
workload's operations until the next pass would end after --seconds (at
least one pass), checks every output against its oracle, and prints one
JSON result as the last line of stdout: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.  A
human-readable summary goes to stderr and the full run record, with the
machine description, to bench/out/.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, aggregate, layer_metrics
from workloads import WORKLOADS, Op, Oracle, load_golden, make_ops

# Thread-pool sizes set before numpy loads, so a run is a single thread.
BLAS_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9

# Workloads whose every operation must succeed.  label-batch may fail with
# the known scale defect; those failures are counted, never filtered.
MUST_PASS = {"verify-matrix", "verify-s7", "fiber-lift"}


def import_program():
    """Import coxfact from this checkout's src/ and nowhere else."""
    package = SRC / "coxfact"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no coxfact package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import coxfact.cli

    if Path(coxfact.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported coxfact from {coxfact.cli.__file__}, not {package}")
    return coxfact.cli


def setup(workload: str, seed: int):
    cli = import_program()
    return cli, make_ops(workload, seed), load_golden()


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to inputs ready, measured in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return times


@dataclass
class OpResult:
    op: Op
    seconds: float
    stdout: str = ""
    error: str | None = None  # "raised ..." or what the oracle found wrong
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Pass:
    wall: float
    results: list = field(default_factory=list)
    spans: list | None = None

    @property
    def ok(self) -> int:
        return sum(r.ok for r in self.results)


def run_op(cli, op: Op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.entrypoint(list(op.argv))  # looked up per call so wrappers apply
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        seconds = time.perf_counter() - start
        return OpResult(op, seconds, error=f"raised {type(exc).__name__}: {exc}")
    result = OpResult(op, time.perf_counter() - start, out.getvalue())
    if rc != 0:
        result.error = f"exit {rc}: {err.getvalue().strip()}"
        result.wrong = True
    return result


def run_pass(cli, ops, oracle: Oracle, tracer: Tracer | None) -> Pass:
    results = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        results.append(run_op(cli, op))
    run = Pass(time.perf_counter() - start, results)
    for r in results:  # checked after the clock stops
        if r.ok:
            wrong = oracle.check(r.op, r.stdout)
            if wrong is not None:
                r.error, r.wrong = wrong, True
        r.stdout = ""
    return run


def measure(cli, ops, seed, golden, seconds, tracer=None) -> list[Pass]:
    """Passes until the next one would end after `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.spans = []
        run = run_pass(cli, ops, Oracle(seed, golden), tracer)
        if tracer is not None:
            run.spans = tracer.spans
        passes.append(run)
        if time.perf_counter() - start + run.wall > seconds:
            return passes


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setups: list[float]) -> tuple[dict, dict]:
    attempted = sum(len(p.results) for p in passes)
    failed = attempted - sum(p.ok for p in passes)
    latencies = [r.seconds for p in passes for r in p.results if r.ok]
    if not latencies:
        sys.exit("error: no operation succeeded, so there is no latency to report")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "ok_per_s": statistics.median(p.ok / p.wall for p in passes),
        "op_p50_s": percentile(latencies, 50),
        "op_p90_s": percentile(latencies, 90),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(passes),
        "ok_per_s": len(passes),
        "op_p50_s": len(latencies),
        "op_p90_s": len(latencies),
        "ok_ratio": attempted,
        "peak_rss_mb": 1,
    }
    return values, samples


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, dict]:
    per_pass = [layer_metrics(p.spans) for p in traced]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in untraced)
    )
    values["trace.span_count"] = statistics.median(len(p.spans) for p in traced)
    samples = {k: len(traced) for k in values}
    samples["trace.overhead_s"] = len(traced) + len(untraced)
    return values, samples


def machine_record() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pins": {var: os.environ.get(var) for var in BLAS_PINS},
    }


def op_medians(passes: list[Pass]) -> dict[str, float]:
    """Median latency of each operation over the passes, in pass order."""
    return {
        r.op.name: statistics.median(p.results[i].seconds for p in passes)
        for i, r in enumerate(passes[0].results)
    }


def failures(passes: list[Pass]) -> dict[str, str]:
    """First reason per failing operation, across passes."""
    out = {}
    for p in passes:
        for r in p.results:
            if not r.ok:
                out.setdefault(r.op.name, r.error)
    return out


def dump_spans(path: Path, traced: list[Pass]) -> None:
    rows = [
        [[s.name, s.start, s.end, s.parent, s.op, s.error] for s in p.spans]
        for p in traced
    ]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                   "passes": rows}, fh, separators=(",", ":"))


def layer_table(traced: list[Pass]) -> str:
    stats = aggregate(traced[0].spans)
    lines = [f"{'span (first traced pass)':44} {'calls':>9} {'total_s':>10} {'self_s':>10}  errors"]
    for name in sorted(stats):
        st = stats[name]
        errs = ", ".join(f"{k}={v}" for k, v in sorted(st.errors.items()))
        lines.append(f"{name:44} {st.calls:9d} {st.total_s:10.4f} {st.self_s:10.4f}  {errs}")
    return "\n".join(lines)


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_PINS)  # before import_program loads numpy

    if args.setup_only:
        setup(args.workload, args.seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    cli, ops, golden = setup(args.workload, args.seed)
    declared = declared_metrics(bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations_per_pass": len(ops),
        "machine": machine_record(),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        untraced = measure(cli, ops, args.seed, golden, args.seconds)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(cli, ops, args.seed, golden, args.seconds, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        setups = setup_seconds(args.workload, args.seed)
        passes = measure(cli, ops, args.seed, golden, args.seconds)

    failed_ops = failures(passes)
    for name, reason in failed_ops.items():
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(not r.ok for p in passes for r in p.results)
    wrong = any(r.wrong for p in passes for r in p.results)
    correct = not wrong and (failed == 0 or args.workload not in MUST_PASS)

    if args.trace:
        values, samples = per_layer(untraced, traced)
        span_path = OUT / f"spans-{stem}.json"
        dump_spans(span_path, traced)
        record["spans_file"] = str(span_path.relative_to(ROOT))
        print(layer_table(traced), file=sys.stderr)
    else:
        values, samples = end_to_end(passes, setups)
        record["setup_runs_s"] = setups
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record.update(
        passes=len(passes),
        pass_wall_s=[p.wall for p in passes],
        op_median_s=op_medians(passes),
        samples=samples,
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        failures=failed_ops,
        correct=correct,
        metrics=metrics,
    )
    with open(OUT / f"run-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} failed (fail_ratio {failed / attempted:.4f}), "
          f"correct={correct}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:44} {m['value']:14.6g} {m['unit']:6} (n={samples[name]})",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

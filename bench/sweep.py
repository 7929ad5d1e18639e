"""Run bench/run.py over several seeds and summarize each metric's spread.

    python3 bench/sweep.py --seeds 0-9 --out bench/out/sweep.json

Each (workload, seed) is its own process, run one after another, with the
run length of BENCHMARK.json.  For every end-to-end metric the summary
gives the values, their median and quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, which is what the metric's bound is
compared against.  A traced run at the first seed adds the per-layer
metrics, and the first seed's run record adds per-operation medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")
OUT = RUN.parent / "out"
ROOT = RUN.parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the run record of one run."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        sys.exit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {json.dumps(result)}",
          file=sys.stderr, flush=True)
    record = json.loads((OUT / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": seconds, "machine": None, "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        results = [r for r, _ in runs]
        summary["machine"] = runs[0][1]["machine"]
        entry = summary["workloads"][workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: dict(summarize([r["metrics"][name]["value"] for r in results]),
                           unit=m["unit"], bound=bounds[name])
                for name, m in results[0]["metrics"].items()
            },
            f"ops_seed{args.seeds[0]}": runs[0][1]["op_median_s"],
        }
        traced, _ = run(workload, args.seeds[0], seconds, 1)
        entry[f"per_layer_seed{args.seeds[0]}"] = {
            name: m["value"] for name, m in traced["metrics"].items()
        }
        for name, m in entry["end_to_end"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:14} {name:12} median {m['median']:12.6g} {m['unit']:6} "
                  f"spread {spread} (bound {m['bound']})")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run each workload over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 10 [--workloads corpus,words] [--out FILE]

For each workload this makes ``--seeds`` untraced runs (seeds 1..N), one after
the other, and one traced run, then prints each end-to-end metric's median and
quartile spread, (q3 - q1) / median, next to the bound in ``BENCHMARK.json``.
``--out`` writes the summary as a point of the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [ln[2:] for ln in lines[:-1]]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            result, info = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: wrong answers\n" + "\n".join(info))
            runs.append(result)
        traced, _ = run_once(workload, 1, args.seconds, 1)
        out["environment"] = {k: v for k, v in (ln.split(": ", 1) for ln in info
                                                 if ": " in ln)
                              if k in ("commit", "python", "nproc", "platform")}
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in metrics.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "   <-- spread above bound/3"
            print(f"{workload:8s} {name:16s} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.3f}  bound {bounds[name]}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

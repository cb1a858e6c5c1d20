"""qheis benchmark: one command, four workloads, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload session --seed 7 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

``--trace 0`` reports the end-to-end metrics of the workload; ``--trace 1``
runs it again with spans around every call into a layer and reports the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it say
what ran, where, and the tail percentile used.  Full results (and, when
traced, every span) are written under ``.perfbench-out/``.

The engine is imported from ``src/``; nothing needs installing.  Only the
standard library is used.  Every child process runs alone, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from calibration import slowdown_after  # noqa: E402
from spec import END_TO_END, PER_LAYER, TAIL_PCT, WORKLOADS, tail_rank  # noqa: E402

SETUP_RUNS = 11        # cold starts timed per run, after one untimed warm-up
CLI_RUNS = 7           # `qheis families` spawns per traced run
DEADLINE_S = 170       # a run ends well inside the 180 s the contract allows


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def child(args, deadline):
    """Run one child to completion and return its standard output."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {args[:2]} exited with {proc.returncode}")
    return proc.stdout


def cold_starts(name, deadline):
    """Cold starts of the workload, one fresh interpreter after another.

    Each child imports qheis and builds and orients every presentation the
    workload uses, with the calibration sampler running inside it.  Returns
    the wall time of each child net of its chunks, in reference seconds, and
    the import time each child measured."""
    args = [str(HERE / "coldstart.py"), name]
    child(args, deadline)          # writes the bytecode caches once
    setup, imports = [], []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        out = json.loads(child(args, deadline))
        wall = perf_counter() - t0
        setup.append((wall - out["chunks_s"]) / out["slowdown"])
        imports.append(out["import_s"])
    return setup, imports


def spawn_seconds(deadline):
    """`qheis families` in a fresh interpreter, calibrated right after."""
    spawns = []
    for _ in range(CLI_RUNS):
        t0 = perf_counter()
        out = child(["-m", "qheis.cli", "families"], deadline)
        wall = perf_counter() - t0
        if len(out.splitlines()) != 9:
            raise SystemExit(f"`qheis families` printed an unexpected list:\n{out}")
        spawns.append(wall / slowdown_after(wall))
    return spawns


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def environment(args):
    return {"commit": commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "why": WORKLOADS[args.workload]}


def end_to_end(name, raw, setup_s):
    lat = sorted(t for one_pass in raw["latencies"] for t in one_pass)
    rank = tail_rank(len(lat), TAIL_PCT[name])
    tail = {"percentile": TAIL_PCT[name], "samples": len(lat),
            "beyond": len(lat) - rank}
    metrics = {
        "setup_s": setup_s,
        "pass_s": median(raw["pass_s"]),
        # The median of each pass's median: the fixed workloads are ramps, and
        # a median pooled over passes sits on the gap between two inputs'
        # clusters of samples, where it jumps with the noise.
        "latency_p50_ms": median([median(p) for p in raw["latencies"]]) * 1e3,
        "latency_tail_ms": lat[rank - 1] * 1e3,
        "peak_rss_mb": raw["maxrss_kb"] / 1024,
    }
    return metrics, tail


def self_test():
    """Failure accounting and metric names, without timing anything."""
    ok = True
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text(encoding="utf-8"))
        for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != names:
                print(f"BENCHMARK.json {key} does not match spec.py: "
                      f"{sorted(set(listed) ^ set(names))}")
                ok = False
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            print("BENCHMARK.json workloads do not match spec.py")
            ok = False
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "selftest"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=DEADLINE_S)
    print(proc.stdout.strip())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print("self-test: the corrupted expectation and the starved step limit "
              "were not each counted as one failure")
        ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    # turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running child before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in (ROOT / "src" / "qheis" / "__init__.py",
                           HERE / "expected" / "layers.json") if not p.is_file()]
    if missing:
        print(f"cannot benchmark: {', '.join(map(str, missing))} not found; "
              "run from the root of a qheis checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args)
    setup, imports = cold_starts(args.workload, deadline)
    raw = json.loads(child([str(HERE / "worker.py"), "run", args.workload,
                            str(args.seed), str(args.seconds), str(args.trace),
                            str(stem) + ".spans.json"], deadline).splitlines()[-1])
    if args.trace:
        metrics = {**raw["layers"], "cli.import_ms": median(imports) * 1e3,
                   "cli.spawn_ms": median(spawn_seconds(deadline)) * 1e3}
        units, detail = PER_LAYER, {"self_ms_per_pass": raw["self_ms_per_pass"],
                                    "passes": raw["passes"]}
    else:
        metrics, tail = end_to_end(args.workload, raw, median(setup))
        units, detail = END_TO_END, {"tail": tail, "passes": len(raw["pass_s"]),
                                     "setup_s": setup,
                                     "pass_s": raw["pass_s"],
                                     "raw_pass_s": raw["raw_pass_s"]}
    fail_ratio = raw["failed"] / raw["attempted"]
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "fail_ratio": fail_ratio,
                   "failures": raw["failures"], **detail}, fh, indent=1)

    for key, value in env.items():
        print(f"# {key}: {value}")
    print(f"# fail_ratio: {fail_ratio:.6g} ({raw['failed']} of {raw['attempted']})")
    slow = sum(raw["raw_pass_s"]) / sum(raw["pass_s"])
    print(f"# slowdown: {slow:.4g} (raw pass time over reported pass time; "
          "times are in reference seconds, see perfbench/calibration.py)")
    for note in raw["failures"]:
        print(f"# failure: {note}")
    if not args.trace:
        print(f"# latency_tail_ms is p{tail['percentile']}: {tail['beyond']} of "
              f"{tail['samples']} samples lie beyond it")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark program and runs one workload.

    python3 perfbench/run.py --workload <paper-tables|serve-insert|serve-zipf> \
        --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]

Run it from the repository root. It builds `perfbench` (a package of its
own, see Cargo.toml here) with cargo, honouring CARGO_TARGET_DIR, runs the
workload, prints a human summary, and prints as its last line one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the `end_to_end` ones of BENCHMARK.json, with
`--trace 1` the `per_layer` ones. It exits non-zero, without a result
line, when the build fails or a metric is missing, and exits non-zero
after the result line when a correctness check failed.

Every run also writes `perfbench/out/<workload>-seed<n>-trace<t>.json`
(the full result stamped with a host fingerprint and provenance); a
traced run writes its spans to `perfbench/out/<workload>-seed<n>.trace.jsonl`.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("paper-tables", "serve-insert", "serve-zipf")
# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def capture(cmd):
    """stdout of `cmd`, or None when it cannot run or fails."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_commit():
    """The commit of this checkout, or None when it is not a git work tree
    of its own (an export or an archive)."""
    top = capture(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return capture(["git", "-C", ROOT, "rev-parse", "HEAD"])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(seed):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "rustc": capture(["rustc", "--version"]),
        "profile": "release (lto = thin, codegen-units = 1)",
        "git_commit": git_commit(),
        "seed": seed,
    }


def target_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )


def build():
    """Builds the program; returns its path, or None when the build fails."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Cargo's own output goes to stderr, keeping stdout for results.
        done = subprocess.run(cmd, stdout=sys.stderr)
    except OSError as err:
        print(f"run.py: cannot run cargo: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as err:
        print(f"run.py: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 1
    binary = build()
    if binary is None:
        return 1

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    host = stamp(args.seed)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--stamp", json.dumps(host),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, f"{tag}.trace.jsonl")]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: perfbench ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: perfbench printed no result (exit {done.returncode})",
              file=sys.stderr)
        return 1

    metrics = result["metrics"]
    missing = [name for name, _ in declared if name not in metrics]
    wrong_unit = [name for name, unit in declared
                  if name in metrics and metrics[name]["unit"] != unit]
    if missing or wrong_unit:
        print(f"run.py: missing metrics {missing}, wrong units {wrong_unit}",
              file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    detail = result.get("detail", {})
    failed_share = result["failed"] / max(result["attempted"], 1)
    print(f"{'metric':<32} {'value':>18}  unit")
    for name, unit in declared:
        print(f"{name:<32} {metrics[name]['value']:>18.6g}  {unit}")
    print(f"{'failed_share':<32} {failed_share:>18.6g}  share "
          f"({result['failed']} of {result['attempted']} ops)")
    if not args.trace:
        # p99 is reported, not gated: see "End-to-end metrics" in README.md.
        print(f"{'unit_p99_us (not gated)':<32} "
              f"{float(detail.get('unit_p99_us', 'nan')):>18.6g}  us")
        print(f"unit latency samples: {detail.get('unit_samples')} "
              f"(ops_per_s and unit_p50_us from the calmest tenth: "
              f"{detail.get('calm_windows')}), "
              f"setup samples: {detail.get('setup_samples')}")

    full = dict(result, failed_share=failed_share, workload=args.workload,
                seconds=args.seconds, trace=args.trace, scale=args.scale,
                stamp=host)
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w") as f:
        json.dump(full, f, indent=1)
        f.write("\n")

    print(json.dumps({
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name, _ in declared},
    }))
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

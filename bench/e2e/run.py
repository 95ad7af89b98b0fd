#!/usr/bin/env python3
"""End-to-end benchmark command (see bench/e2e/README.md).

Builds bench/e2e (Release, failpoints off) under .bench_build/, then:

  one run     run.py --workload NAME --seed N --seconds S --trace 0|1
              runs one workload and prints, as the last stdout line, one
              JSON object {correct, attempted, failed, metrics}: the
              end-to-end metrics, or with --trace 1 the per-layer ones.
  suite       run.py [--seed 42] [--runs 10] [--seconds 50] [--out DIR]
                     [--trace_out DIR] [--smoke]
              runs every workload --runs times (seeds seed, seed+1, ...),
              adds the runs to DIR/BENCH_e2e.json (default
              .bench_build/e2e-out), prints each end-to-end metric with
              unit, median, quartiles and sample count over all its runs,
              and exits nonzero when any output check fails. --trace_out
              adds one traced run per workload: traces, layer times and
              the tracing overhead.
  compare     run.py --compare BASE.json NEW.json
              pairs two suites' runs by seed and reports, per workload and
              metric, both medians and quartiles, the share of pairs NEW
              wins, and the base's own spread.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "e2e-release"
BINARY = BUILD / "prefcover_e2e"
TRACE_VALIDATE = BUILD / "prefcover" / "tools" / "trace_validate"
CATEGORIES = "setup,clickstream,graph,core,dist,serve"
WORKLOADS = ["pe-zipf", "pm-uniform-reload"]
RUN_TIMEOUT_S = 170
HIGHER_IS_BETTER = {"serve_capacity_qps"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once and builds; serialized by a lock so parallel
    invocations in one checkout never race on the build tree."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"run.py: no prefcover sources at {ROOT} (CMakeLists.txt, src/)")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "e2e.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(ROOT / "bench" / "e2e"),
                            "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "prefcover_e2e", "trace_validate", "-j",
                        str(os.cpu_count() or 4)],
                       check=True, stdout=sys.stderr)


def run_workload(workload, seed, seconds, trace, smoke=False, trace_dir=None):
    """Runs the binary once; returns its result document, or None when it
    produced none. Generated inputs are deleted afterwards."""
    work = BUILD.parent / "e2e-runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work_dir={work}",
           f"--result={result}"]
    trace_file = None
    if trace:
        trace_dir = Path(trace_dir or BUILD.parent / "e2e-traces")
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"trace_{workload}.json"
        cmd += ["--trace", f"--trace_out={trace_file}"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"run.py: {workload} seed {seed} exited {proc.returncode}")
        doc = json.loads(result.read_text()) if result.is_file() else None
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        doc = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if doc is not None and trace_file is not None:
        check = subprocess.run(
            [str(TRACE_VALIDATE), f"--input={trace_file}",
             f"--require_categories={CATEGORIES}"],
            stdout=sys.stderr)
        doc["trace_valid"] = check.returncode == 0
        doc["correct"] = doc["correct"] and doc["trace_valid"]
    return doc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_run(args):
    build()
    doc = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    if doc is None:
        sys.exit(1)
    section = doc["per_layer"] if args.trace == 1 else doc["end_to_end"]
    line = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in section.items()},
    }
    print(json.dumps(line))
    sys.exit(0 if doc["correct"] else 1)


def host_env():
    cpu = "unknown"
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                cpu = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "build_type": "Release", "failpoints": "OFF",
            "git_sha": sha or "unknown", "os": platform.platform()}


def print_table(rows, header):
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def summarize(entry):
    """Median, quartiles, sample count and spread of every end-to-end
    metric over the workload's runs."""
    metrics = {}
    for name, unit in entry["units"].items():
        values = [r["end_to_end"][name] for r in entry["runs"]]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"unit": unit, "median": med, "p25": q1, "p75": q3,
                         "n": len(values),
                         "spread": (q3 - q1) / med if med else 0.0}
    return metrics


def suite(args):
    """Runs are added to DIR/BENCH_e2e.json when it exists, so alternating
    invocations of two checkouts build up paired samples."""
    build()
    runs = 1 if args.smoke else args.runs
    seconds = 2 if args.smoke else args.seconds
    out = Path(args.out or BUILD.parent / "e2e-out")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "BENCH_e2e.json"
    report = (json.loads(path.read_text()) if path.is_file() else
              {"env": host_env(), "seconds": seconds, "workloads": {}})
    if report["seconds"] != seconds:
        log(f"run.py: {path} holds {report['seconds']} s runs, not {seconds}")
        sys.exit(2)
    ok = True
    for workload in WORKLOADS:
        entry = report["workloads"].setdefault(workload,
                                               {"units": {}, "runs": []})
        for i in range(runs):
            doc = run_workload(workload, args.seed + i, seconds, False,
                               smoke=args.smoke)
            if doc is None:
                ok = False
                continue
            ok = ok and doc["correct"]
            entry["units"] = {n: m["unit"]
                              for n, m in doc["end_to_end"].items()}
            entry["checks"] = doc["checks"]
            entry["plan_variant"] = doc["plan_variant"]
            entry["runs"].append({
                "seed": doc["seed"], "correct": doc["correct"],
                "attempted": doc["attempted"], "failed": doc["failed"],
                "solution_digests": doc["solution_digests"],
                "end_to_end": {n: m["value"]
                               for n, m in doc["end_to_end"].items()},
                "per_layer": {n: m["value"]
                              for n, m in doc["per_layer"].items()}})
        if not entry["runs"]:
            continue
        entry["metrics"] = summarize(entry)
        print(f"\n== {workload} ({len(entry['runs'])} run(s), {seconds} s "
              "each)")
        print_table([[name, m["unit"], f"{m['median']:.6g}",
                      f"{m['p25']:.6g}", f"{m['p75']:.6g}", m["n"],
                      f"{m['spread']:.3f}"]
                     for name, m in entry["metrics"].items()],
                    ["metric", "unit", "median", "p25", "p75", "n",
                     "iqr/median"])
        if args.trace_out:
            ok = traced(args, workload, seconds, entry) and ok
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {path}")
    if not ok:
        print("output checks FAILED")
    sys.exit(0 if ok else 1)


def traced(args, workload, seconds, entry):
    doc = run_workload(workload, args.seed, seconds, True, smoke=args.smoke,
                       trace_dir=Path(args.trace_out) / workload)
    if doc is None:
        return False
    print(f"\n-- {workload} traced run: per-layer metrics")
    print_table([[name, m["unit"], f"{m['value']:.6g}"]
                 for name, m in doc["per_layer"].items()],
                ["metric", "unit", "value"])
    overhead = {name: m["value"] / entry["metrics"][name]["median"]
                for name, m in doc["end_to_end"].items()
                if entry["metrics"][name]["median"]}
    print("tracing overhead (traced / untraced median): " + ", ".join(
        f"{k}={v:.3f}" for k, v in overhead.items()))
    entry["per_layer"] = {k: {"unit": m["unit"], "value": m["value"]}
                          for k, m in doc["per_layer"].items()}
    entry["tracing_overhead"] = overhead
    entry["trace_valid"] = doc["trace_valid"]
    return doc["correct"]


def compare(args):
    base = json.loads(Path(args.compare[0]).read_text())
    new = json.loads(Path(args.compare[1]).read_text())
    rows = []
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        for name, bm in b["metrics"].items():
            nm = n["metrics"][name]
            bv = {r["seed"]: r["end_to_end"][name] for r in b["runs"]}
            nv = {r["seed"]: r["end_to_end"][name] for r in n["runs"]}
            pairs = [(bv[s], nv[s]) for s in bv if s in nv]
            lower = name not in HIGHER_IS_BETTER
            wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
            rows.append([workload, name, f"{bm['median']:.6g}",
                         f"[{bm['p25']:.4g}, {bm['p75']:.4g}]",
                         f"{nm['median']:.6g}",
                         f"[{nm['p25']:.4g}, {nm['p75']:.4g}]",
                         f"{nm['median'] / bm['median']:.3f}"
                         if bm["median"] else "-",
                         f"{wins}/{len(pairs)}", f"{bm['spread']:.3f}"])
    print_table(rows, ["workload", "metric", "base", "base q1-q3", "new",
                       "new q1-q3", "new/base", "new wins", "base iqr/med"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--trace_out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(args)
    elif args.workload:
        one_run(args)
    else:
        suite(args)


if __name__ == "__main__":
    main()

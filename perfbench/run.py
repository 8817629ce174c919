#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the TVM reproduction.

Builds the library and the perfbench binary from source (into .bench_build/ at the
repository root), runs each workload in its own process with a hermetic
environment and a private native-module cache, prints a report, and prints the
result as JSON on the last line of stdout.

  python3 perfbench/run.py --workload zoo_native --seed 1 --seconds 18 --trace 0
  python3 perfbench/run.py --workload all --seed 1     # every workload in turn
  python3 perfbench/run.py --smoke                     # short self-test of each workload

With --trace 0 the JSON carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones (and a Chrome trace file under .bench_build/traces/).
"""
import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
WORKLOADS = ["zoo_native", "zoo_vm", "serve_mix"]
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))  # compiler temporaries
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           env=env)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def host_stamp(seed):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        cc = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "cc": cc, "kernel": platform.release(),
            "load_avg_1m": os.getloadavg()[0], "seed": seed}


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """Runs one workload in its own process; returns its parsed result."""
    os.makedirs(WORK, exist_ok=True)
    private = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        # Hermetic: none of the caller's TVMCPP_* knobs reach the library, and
        # the native cache and the C compiler's temporaries stay in the checkout.
        env = {k: v for k, v in os.environ.items() if not k.startswith("TVMCPP_")}
        env["TVMCPP_NATIVE_CACHE"] = os.path.join(private, "native")
        env["TMPDIR"] = os.path.join(private, "tmp")
        os.makedirs(env["TVMCPP_NATIVE_CACHE"])
        os.makedirs(env["TMPDIR"])
        cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0",
               "--reference", os.path.join(HERE, "reference.txt")]
        if smoke:
            cmd.append("--smoke")
        if trace:
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-file", os.path.join(traces, f"{workload}-seed{seed}.json")]
        stamp = host_stamp(seed)
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
        lines = [line for line in out.splitlines() if line.strip()]
        if not lines:
            raise SystemExit(f"perfbench: {workload} printed no result")
        result = json.loads(lines[-1])
        result["host"] = stamp
        result["wall_s"] = time.monotonic() - start
        return result
    finally:
        shutil.rmtree(private, ignore_errors=True)


def print_report(result, gated):
    print(f"== {result['workload']} (trace {result['trace']}, "
          f"{result['wall_s']:.1f} s wall) ==")
    print("host: " + json.dumps(result["host"]))
    print(f"  {'metric':30s} {'value':>14s} {'unit':8s} samples  tail")
    for name, m in result["metrics"].items():
        mark = "*" if name in gated else " "
        value = m["value"] if m["value"] is not None else float("nan")
        print(f"{mark} {name:30s} {value:14.6g} {m['unit']:8s} {m['samples']:7d}  {m['tail']}")
    if result["notes"]:
        print("notes: " + json.dumps(result["notes"]))
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for problem in result["problems"]:
        print("problem: " + problem)


def contract_line(result, declared):
    """The benchmark's result: exactly the declared metrics, with their units."""
    metrics = {}
    for spec in declared:
        m = result["metrics"].get(spec["name"])
        if m is None and spec["name"].split(".")[0] in result["not_measured"]:
            m = {"value": 0, "unit": spec["unit"]}  # a layer the workload does not use
        if m is None or m["unit"] != spec["unit"] or m["value"] is None:
            raise SystemExit(f"perfbench: {result['workload']} did not report "
                             f"{spec['name']} in {spec['unit']}")
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly, untraced and traced, as a self-test")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    binary = build()

    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(binary, workload, args.seed, 1, trace, smoke=True)
                print_report(result, set())
                contract_line(result, bench["per_layer" if trace else "end_to_end"])
                ok = ok and result["correct"] and result["failed"] == 0
        print(json.dumps({"smoke": "pass" if ok else "fail"}))
        return 0 if ok else 1

    declared = bench["per_layer" if args.trace else "end_to_end"]
    gated = {spec["name"] for spec in declared}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    lines = []
    for workload in workloads:
        result = run_workload(binary, workload, args.seed, seconds, args.trace, smoke=False)
        print_report(result, gated)
        lines.append((workload, contract_line(result, declared)))
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{w}/{k}": v for w, line in lines for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see README.md.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload online --seed 1 --seconds 20 --trace 0

builds perfbench/ (the COMET library plus the comet_perfbench binary)
under $CARGO_TARGET_DIR (default .bench_build), runs the workload and
prints a human-readable report. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A trace run executes the workload twice: untraced (the
probes timed by the benchmark itself) and for one pass with
COMET_TRACE set, whose spans the binary folds into per-name call
counts and self time.

--report PATH also writes the full report (environment, ladder rungs,
metrics) as JSON. Two reports compare with

    python3 perfbench/run.py --compare BEFORE.json AFTER.json

which refuses (exit 2) when their environments differ.

Exit codes: 0 when every check passed; 1 when the build or the run
fails, or when a correctness check fails (the result line then says
"correct": false); 2 on bad arguments or a checkout without the COMET
sources.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("online", "offline", "real-decode")
# Threads of the runtime pool when COMET_THREADS is unset; the online
# loadgen adds one client thread, the router and replica loops mostly
# wait on the virtual-time gate.
DEFAULT_THREADS = "2"
# Host seconds every run of the binary together may take, after the
# build.
RUN_LIMIT_S = 170
# Environment fields two reports must share to be compared.
ENV_KEYS = ("nproc", "comet_threads", "simd", "build_type", "seed",
            "workload")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e), 2)


def build():
    """Configures and builds comet_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "comet",
                                       "CMakeLists.txt")):
        fail("no COMET sources under %s/src; run from a full checkout"
             % ROOT, 2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "comet_perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "comet_perfbench"), build_dir


def run_binary(binary, args, env, deadline):
    """Runs the binary; echoes its report and returns its JSON line."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s ran past the %d s limit" % (" ".join(args), RUN_LIMIT_S))
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s exited %d without a result"
             % (" ".join(args), done.returncode))
    # The binary exits 1 exactly when one of its checks failed.
    if done.returncode != (0 if result["correct"] else 1):
        fail("%s exited %d" % (" ".join(args), done.returncode))
    return result


def span_metrics(spans):
    """Per-layer metrics from the traced run's spans, which the binary
    folds into name -> [calls, self nanoseconds]."""
    def calls(name):
        return spans.get(name, [0, 0])[0]

    def self_ms(prefix):
        return sum(v[1] for k, v in spans.items()
                   if k.startswith(prefix)) / 1e6
    return {
        "server.step_calls": calls("server/step"),
        "server.step_self_ms": self_ms("server/step"),
        "scheduler.step_self_ms": self_ms("scheduler/"),
        "prefix.lookup_self_ms": self_ms("prefix/lookup"),
        "prefix.insert_self_ms": self_ms("prefix/insert"),
        "gpusim.schedule_tiles_calls": calls("gpusim/schedule_tiles"),
        "gpusim.schedule_tiles_self_s": self_ms("gpusim/schedule_tiles") / 1e3,
        "engine.step_self_ms": self_ms("engine/"),
        "cluster.route_self_ms": self_ms("cluster/route"),
        "pool.chunk_calls": calls("pool/chunk"),
    }


def metric_block(names_units, values, kind):
    missing = [n for n, _ in names_units if n not in values]
    if missing:
        fail("%s metrics missing from the run: %s" % (kind, missing))
    return {n: {"value": values[n], "unit": u} for n, u in names_units}


def run_workload(args, spec):
    binary, build_dir = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env.setdefault("COMET_THREADS", DEFAULT_THREADS)
    env.pop("COMET_TRACE", None)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    plain = run_binary(binary, base, env, deadline)
    results = [plain]
    if args.trace:
        # The binary makes one traced pass of the same work as each
        # untraced pass.
        trace_path = os.path.join(build_dir,
                                  "trace-%s.json" % args.workload)
        traced_env = dict(env, COMET_TRACE=trace_path)
        traced = run_binary(binary, base, traced_env, deadline)
        os.remove(trace_path)
        results.append(traced)
        # Metrics of a layer the workload does not run read 0.
        layer = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0)
        declared = set(layer)
        layer.update(plain["layer"])
        layer.update(span_metrics(traced["spans"]))
        layer["obs.trace_overhead"] = (traced["pass_s"][0] /
                                       min(plain["pass_s"]))
        unknown = sorted(set(layer) - declared)
        if unknown:
            fail("undeclared per-layer metrics: %s" % unknown)
        metrics = metric_block(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], layer,
            "per-layer")
    else:
        metrics = metric_block(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            plain["e2e"], "end-to-end")

    errors = [e for r in results for e in r["errors"]]
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    env_report = dict(plain["env"], workload=args.workload)
    print_report(args, env_report, spec, final, errors, plain["pass_s"])
    if args.report:
        with open(args.report, "w") as f:
            json.dump({"env": env_report, "trace": args.trace,
                       "rungs": plain["rungs"], "pass_s": plain["pass_s"],
                       "errors": errors, "result": final}, f, indent=1)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def directions(spec):
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_report(args, env, spec, final, errors, pass_s):
    better = directions(spec)
    print("environment: " + ", ".join("%s=%s" % (k, env[k])
                                      for k in ENV_KEYS))
    print("%s metrics (%s):" % ("per-layer" if args.trace else "end-to-end",
                                args.workload))
    for name, m in final["metrics"].items():
        print("  %-34s %16.6g %-10s %s" % (name, m["value"], m["unit"],
                                           better[name]))
    print("measured passes: " + ", ".join("%.3f s" % s for s in pass_s))
    print("attempted %d, failed %d, correct %s"
          % (final["attempted"], final["failed"], final["correct"]))
    for e in errors:
        print("  check failed: " + e)


def compare(paths, spec):
    reports = []
    for path in paths:
        with open(path) as f:
            reports.append(json.load(f))
    a, b = reports
    differs = [k for k in ENV_KEYS if a["env"].get(k) != b["env"].get(k)]
    if differs or a["trace"] != b["trace"]:
        for k in differs:
            print("  %s: %s vs %s" % (k, a["env"].get(k), b["env"].get(k)))
        fail("refusing to compare reports from different environments", 2)
    better = directions(spec)
    print("%-34s %16s %16s %8s" % ("metric", paths[0][-16:],
                                    paths[1][-16:], "after/before"))
    for name, m in a["result"]["metrics"].items():
        before, after = m["value"], b["result"]["metrics"][name]["value"]
        ratio = after / before if before else float("nan")
        print("%-34s %16.6g %16.6g %8.3f %s" % (name, before, after, ratio,
                                                 better[name]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full report here")
    parser.add_argument("--compare", nargs=2, metavar="REPORT")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(args.compare, spec)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

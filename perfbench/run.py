#!/usr/bin/env python3
"""Builds and runs the fedshap benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload femnist-mlp --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild only what changed. Each run
executes one workload in its own process with a pinned thread budget and
prints, as the last line of stdout, one JSON result: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. BENCHMARK.json names
the metrics and their units; a run whose values do not name exactly those
metrics fails. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("femnist-mlp", "digits-cluster")


def run_timeout(seconds):
    """Seconds a run may take: the measured time plus the pass that
    crosses it, the extra set-ups and the checks, which take well under
    90 s. A traced run measures one untraced and one traced pass plus
    replays, whatever --seconds says."""
    return seconds + 90


def thread_budget(workload):
    """FEDSHAP_WORKER_BUDGET of the benchmark process. A budget of B lets a
    FedAvg round train on the calling thread plus B pool threads.
    femnist-mlp trains one coalition at a time and fans its clients out
    over all but one core (B = cores - 2). digits-cluster keeps 1 training
    thread per process: it turns the FedAvg fan-out off in the coordinator
    and its forked workers."""
    cores = os.cpu_count() or 1
    if workload == "femnist-mlp":
        return max(1, cores - 2)
    return 1


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "util", "CMakeLists.txt")):
        print("perfbench: no fedshap sources under %s/src" % root, file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "fedshap_perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        return None
    binary = os.path.join(build_dir, "fedshap_perfbench")
    return binary if os.path.isfile(binary) else None


def metric_units(root, trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of
    run, or None when the file is missing or unreadable."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        return {metric["name"]: metric["unit"]
                for metric in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def result_line(line, units):
    """The benchmark's result line built from the binary's last line, or
    None (with the reason on stderr) when it is not a valid result."""
    try:
        raw = json.loads(line)
    except ValueError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return None
    if (not isinstance(raw, dict)
            or set(raw) != {"correct", "attempted", "failed", "values"}
            or not isinstance(raw["attempted"], int) or raw["attempted"] < 1
            or not isinstance(raw["failed"], int)
            or not isinstance(raw["values"], dict)):
        print("perfbench: malformed result line", file=sys.stderr)
        return None
    missing = sorted(set(units) - set(raw["values"]))
    extra = sorted(set(raw["values"]) - set(units))
    if missing or extra:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "unknown %s" % (missing, extra), file=sys.stderr)
        return None
    metrics = {name: {"value": raw["values"][name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                       "failed": raw["failed"], "metrics": metrics})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    units = metric_units(root, args.trace)
    if units is None:
        print("perfbench: no readable BENCHMARK.json in %s" % root,
              file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env["FEDSHAP_WORKER_BUDGET"] = str(thread_budget(args.workload))
    env.pop("FEDSHAP_FEDAVG_WORKERS", None)
    env.pop("FEDSHAP_FAULT_SPEC", None)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    print("# workload=%s seed=%d seconds=%d trace=%d worker_budget=%s cores=%d"
          % (args.workload, args.seed, args.seconds, args.trace,
             env["FEDSHAP_WORKER_BUDGET"], os.cpu_count() or 1), flush=True)
    # Own process group, so forked cluster workers are stopped with it.
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=run_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        output = ""
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()

    lines = output.strip().splitlines()
    result = (result_line(lines[-1], units)
              if process.returncode == 0 and lines else None)
    if result is None:
        sys.stderr.write(output)
        print("perfbench: run failed (exit %s)" % process.returncode, file=sys.stderr)
        return 1
    print("\n".join(lines[:-1] + [result]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

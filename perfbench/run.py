#!/usr/bin/env python3
"""End-to-end benchmark of lsopc jobs (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # rewrite BENCHMARK.json
    python3 perfbench/run.py --spread FILE...  # steadiness of saved result lines

Run from the repository root. It builds the measurement program in
perfbench/ (into $CARGO_TARGET_DIR, default .bench_build), runs one
workload and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402

# Each program run must end well inside the 180 s a benchmark run gets.
RUN_TIMEOUT_S = 170
PINNED_ENV = ("LSOPC_RFFT", "LSOPC_THREADS")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds the measurement program; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_program(exe, args, env, timeout):
    """Runs the measurement program; returns its JSON record or None."""
    try:
        done = subprocess.run([exe] + args, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {args[0]} did not finish: {e}")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: {args[0]} exited with {done.returncode}")
        return None
    return json.loads(lines[-1])


def first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(lanes):
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            try:
                with open(os.path.join(d, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(d, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(d, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            caches[f"L{level}-{kind}"] = size
    except OSError:
        pass

    def output(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    return {
        "lanes": lanes,
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "caches": caches,
        "rustc": output(["rustc", "--version"]),
        "commit": output(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[n for n, _ in bench.WORKLOADS + bench.EXTRA_WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json from bench.py")
    p.add_argument("--spread", nargs="+", metavar="FILE",
                   help="files of result lines from repeated runs of one workload")
    a = p.parse_args()

    if a.spread:
        for path in a.spread:
            with open(path) as f:
                lines = [line for line in f if line.startswith("{")]
            print(f"{path}: {len(lines)} runs")
            for name, (med, spread, bound) in bench.spreads(lines).items():
                verdict = "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "OVER BOUND"
                print(f"  {name:18s} median {med:<12.6g} spread {spread:.3f}  bound {bound}  {verdict}")
        return 0

    if a.write_spec:
        doc = bench.spec()
        errors = bench.validate_spec(doc)
        if errors:
            sys.exit("perfbench: invalid spec: " + "; ".join(errors))
        with open("BENCHMARK.json", "w") as f:
            f.write(bench.render_spec(doc))
        return 0
    if a.workload is None:
        p.error("--workload is required")
    pinned = [k for k in PINNED_ENV if k in os.environ]
    if pinned:
        log(f"perfbench: refusing to run with {', '.join(pinned)} set; the benchmark pins them")
        return 2
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    if exe is None:
        return 1
    tmp = os.path.join(target_dir(), "perfbench-tmp", str(os.getpid()))
    common = ["--workload", a.workload, "--seed", str(a.seed), "--tmp", tmp]
    try:
        if a.trace == 0:
            raw = run_program(exe, ["measure", "--seconds", str(a.seconds)] + common,
                              dict(os.environ), RUN_TIMEOUT_S)
            if raw is None:
                return 1
            metrics, problems = bench.reduce_measure(raw)
            print(f"jobs: {len(raw['job_s'])} timed (job_ref.p50 sample count), "
                  f"quality over the first {len(raw['inputs'])}: "
                  f"epe_violations={raw['epe_violations']} shape_violations={raw['shape_violations']}")
            print("inputs: " + " ".join(raw["inputs"]))
            print("wall clock: " + " ".join(f"{k}={v:.6g}" for k, v in bench.wall_clock(raw).items()))
        else:
            raw = run_program(exe, ["trace"] + common, dict(os.environ), RUN_TIMEOUT_S - 60)
            if raw is None:
                return 1
            one_lane = dict(os.environ, LSOPC_THREADS="1")
            base = run_program(exe, ["baseline"] + common, one_lane, 60)
            if base is None:
                return 1
            metrics, problems = bench.reduce_trace(raw, base["wall_s"])
        print("environment: " + json.dumps(environment(raw["lanes"])))
        for problem in problems:
            print(f"problem: {problem}")
        print(bench.result_line(metrics, raw["attempted"], len(raw["failures"]), problems))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

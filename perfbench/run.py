#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload report|serve --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds `report`, `d16c` and the
measuring process (perfbench/bench.ml) with dune, runs the measuring
process on a fresh work directory under perfbench/_work/, and prints its
JSON result as the last line of standard output, after checking that the
metric names and units are exactly those BENCHMARK.json declares.  Exits non-zero,
without a result, when the checkout lacks the program's sources, when the
build fails, or when the run fails or overruns.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
# A run ends within 180 s, and a run that builds within 900 s.  An
# untraced `report` run takes about 85-100 s on a 2-vCPU VM, about 70 s
# of it the cold phase, so a program up to about twice as slow there is
# still measured; a slower one overruns and the run gives no result.
RUN_TIMEOUT_S = 170
EXES = {
    "report": "bin/report.exe",
    "d16c": "bin/d16c.exe",
    "bench": "perfbench/bench.exe",
}
PROGRAM_SOURCES = ["dune-project", "bin/report.ml", "bin/d16c.ml", "lib/harness/plan.ml"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env(work):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["DUNE_CACHE"] = "disabled"  # keep dune's shared cache out of the run
    env["TMPDIR"] = work
    env["XDG_CACHE_HOME"] = work
    return env


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_group(argv, env, timeout, stdout=None):
    """Run argv in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(argv, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        die("%s overran %d s" % (argv[0], timeout), 1)
    except BaseException:
        kill_group(proc)
        raise
    # Whatever the process left behind in its group goes with it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["report", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # A terminated run still stops its processes and removes its work
    # directory: turn the signal into an exception the cleanup sees.
    for sig in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: sys.exit(128 + signum))

    missing = [p for p in PROGRAM_SOURCES + ["BENCHMARK.json"] if not os.path.exists(p)]
    if missing:
        die("not a source checkout (missing %s); run from the repository root"
            % ", ".join(missing))
    if os.path.realpath(os.path.join(os.getcwd(), "perfbench")) != HERE:
        die("run from the repository root")

    work_root = os.path.join("perfbench", "_work")
    shutil.rmtree(work_root, ignore_errors=True)  # a killed run's leftovers
    work = os.path.join(work_root, "run")
    os.makedirs(work)
    try:
        env = child_env(os.path.abspath(work))
        code, _ = run_group(
            ["dune", "build", "--root", "."] + ["./" + p for p in EXES.values()],
            env, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            die("build failed", 1)
        exe = {k: os.path.join("_build", "default", v) for k, v in EXES.items()}
        code, out = run_group(
            [exe["bench"], "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--report-exe", exe["report"], "--d16c-exe", exe["d16c"], "--work", work],
            env, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
        lines = out.decode().splitlines()
        if code != 0 or not lines:
            die("measuring process failed (exit %d)" % code, 1)
        result = json.loads(lines[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = declared_metrics(args.trace == 1)
        if got != want:
            die("metrics %s do not match BENCHMARK.json %s" % (got, want), 1)
        print(json.dumps(result))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


if __name__ == "__main__":
    main()

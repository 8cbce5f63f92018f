#!/usr/bin/env python3
"""Service benchmark for EasyView: builds `evtool` and the benchmark client
from source (Release) and runs one workload against `evtool serve`.

    python3 perfbench/run.py --workload ide-browse --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The build goes to $CARGO_TARGET_DIR if
set, else .bench_build/, both relative to the current directory. The last
line of standard output is the run's JSON result; build output and check
failures go to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ide-browse", "fleet-regress", "live-follow")
CLIENT_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds evtool and the client; returns paths."""
    for need in ("src/ide/PvpServer.cpp", "tools/evtool.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log("no program sources here (%s is missing)" % need)
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "evtool", "perfbench_client"],
                   stdout=sys.stderr, check=True)
    return (os.path.join(build_dir, "evtool"),
            os.path.join(build_dir, "perfbench_client"))


def cpu_ticks():
    """(steal, total) CPU ticks of this machine from /proc/stat; steal is
    time the hypervisor gave this machine's CPUs to others."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return None


def stop_group(proc):
    """Stops the client's process group (the client and its server) and
    waits until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        evtool, client = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        log("build failed: %s" % err)
        return 1

    work = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--evtool", evtool, "--workdir", work]
    ticks0 = cpu_ticks()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        log("the run did not finish within %d s" % CLIENT_TIMEOUT_S)
        return 1
    finally:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Not a metric: shows when the host, not the program, slowed a run.
        print("host_cpu_steal_share=%.4f" % (
            (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])))
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

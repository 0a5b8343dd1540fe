#!/usr/bin/env python3
"""Build and run the asynth benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The first run configures and builds the library, the `asynth` daemon and the
`perfbench` program into .bench_build/perfbench (CARGO_TARGET_DIR, when set,
names the build root instead).  Scratch files go to .bench_work/.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics -- the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  A traced run also writes its span files and checks them with
tools/validate_trace.py.  The exit code is 0 whenever a result line was
printed (its "correct" field carries the verdict) and 1 when there is none.

Extra options pass through to the program: --dump-specs DIR writes every
generated input of the workload and seed as .g text (each replays with
`asynth FILE`), --write-expected FILE regenerates an expected-results file.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "serve_cold")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench + asynth; returns the binaries."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench", "asynth"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench"), os.path.join(build_dir, "asynth", "asynth"))


def stop_group(pgid):
    """Kills whatever is left in the run's process group (a daemon orphaned by
    a crash) and waits up to 5 s for the group to empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_program(cmd):
    """Runs cmd in a new process group, echoing its output; returns (rc, lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log("perfbench: timed out")
        return 1, []
    stop_group(proc.pid)
    lines = out.splitlines()
    for line in lines[:-1]:
        log(line)
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump-specs")
    ap.add_argument("--write-expected")
    a = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        perfbench, asynth = build(os.path.abspath(os.path.join(build_root, "perfbench")))
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    work = os.path.join(".bench_work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work, exist_ok=True)
    spans = os.path.join(work, "spans")
    cmd = [perfbench, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--asynth", asynth,
           "--expected", os.path.join(HERE, "expected", a.workload + ".json"),
           "--work-dir", work, "--span-dir", spans]
    if a.dump_specs:
        cmd += ["--dump-specs", a.dump_specs]
    if a.write_expected:
        cmd += ["--write-expected", a.write_expected]
    rc, lines = run_program(cmd)
    if a.dump_specs or a.write_expected:
        print("\n".join(lines[-1:]))
        return rc
    if not lines or not lines[-1].startswith("{"):
        log("perfbench: no result line")
        return 1
    result = json.loads(lines[-1])

    if a.trace:
        # One file from the workload's own phase, one from the layer replay.
        files = [os.path.join(spans, name + ".json") for name in (a.workload, "layers")]
        valid = all(os.path.exists(f) for f in files) and subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "validate_trace.py")] + files,
            stdout=sys.stderr).returncode == 0
        log(f"span files {', '.join(files)}: {'valid' if valid else 'INVALID'}")
        if not valid:
            result["correct"] = False
            result["failed"] += 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

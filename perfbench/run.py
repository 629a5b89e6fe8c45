#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload build|serve-write \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark package is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). Scratch
files go under .perfbench/ in the checkout and are removed afterwards;
with --trace 1 the recorded spans are kept in
.perfbench/trace-<workload>-<seed>.jsonl. The last line of stdout is the
benchmark's JSON result. The exit code is non-zero if the build or the
run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def run(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return None, None
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    code, _ = run(["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", manifest], BUILD_TIMEOUT_S, env)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env["TMPDIR"] = work
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(root, target),
                          "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", args.seconds, "--trace", args.trace, "--work-dir", work]
    if args.trace == "1":
        cmd += ["--trace-file",
                os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, env, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not out or not out.strip():
        print(f"perfbench: run failed (exit {code})", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

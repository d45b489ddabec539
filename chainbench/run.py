#!/usr/bin/env python3
"""chainbench runner: build, run one workload, print its result line.

Usage (from the repository root):

    python3 chainbench/run.py --workload sweep-ram|sweep-packed|chaind \
        --seed N --seconds S --trace 0|1
    python3 chainbench/run.py --self-test

Builds chainbench and chaind from source (CMake package in this
directory) into $CARGO_TARGET_DIR, else .bench_build, then runs the
chainbench binary in a fresh temporary directory under the build directory
that is removed on exit. The last line of stdout is the binary's JSON
result; the exit code is 0 only when every correctness gate held.

--self-test proves that each correctness gate can fail: it runs a short
workload once per injected fault and fails unless every run reports
correct=false with failed > 0 and a non-zero exit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-ram", "sweep-packed", "chaind")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(f"chainbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds chainbench + chaind; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no chainchaos sources under {ROOT}/src; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", out_dir, "-j", jobs,
         "--target", "chainbench", "chaind"],
        stdout=sys.stderr, stderr=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    return result.returncode == 0


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need
    not be a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "examples", name)
             for name in ("chaind.cpp", "cli_common.hpp")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in filenames]
    for path in sorted(files):
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(out_dir, args, timeout_s):
    """Runs chainbench in a fresh temporary directory; returns (code, stdout)."""
    runs_dir = os.path.join(out_dir, "tmp")
    os.makedirs(runs_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=runs_dir)
    env = dict(os.environ)
    env["TMPDIR"] = run_dir
    env["CHAINCHAOS_KEY_CACHE"] = os.path.join(run_dir, "keypool.v1")
    env["CHAINBENCH_SOURCE_DIGEST"] = source_digest()
    env["CHAINBENCH_COMMIT"] = commit()
    command = [os.path.join(out_dir, "chainbench"), *args,
               "--tmp", run_dir, "--chaind", os.path.join(out_dir, "chaind")]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
        return proc.returncode, stdout
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout_s:.0f}s; stopped")
        return 124, ""
    finally:
        # The binary reaps the daemon itself; this catches anything left
        # behind by a crash or a timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_test(out_dir):
    cases = [
        ("sweep-packed", "flip-record", "a packed record with flipped bytes"),
        ("chaind", "tamper-body", "a tampered expected body"),
        ("sweep-ram", "perturb-count", "a perturbed work count"),
    ]
    ok = True
    for workload, inject, what in cases:
        code, stdout = run_binary(
            out_dir, ["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", "0", "--inject", inject], RUN_TIMEOUT_S)
        result = last_json(stdout)
        caught = (code != 0 and result is not None
                  and result.get("correct") is False
                  and result.get("failed", 0) > 0)
        print(f"self-test: {what} on {workload}: "
              f"{'caught' if caught else 'NOT CAUGHT'} (exit {code}, "
              f"result {json.dumps(result) if result else 'missing'})")
        ok = ok and caught
    print(f"self-test: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    out_dir = build_dir()
    try:
        if not build(out_dir):
            log("build failed")
            return 2
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 2
    if args.self_test:
        return self_test(out_dir)

    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    code, stdout = run_binary(
        out_dir, ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)],
        max(remaining, RUN_TIMEOUT_S / 2))
    if last_json(stdout) is None:
        sys.stdout.write(stdout)
        log(f"no result line (exit {code})")
        return code or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `sgx-perfbench` package (its own Cargo workspace, depending on
the repository by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build` under the checkout), then runs one workload. The
benchmark prints its metrics and, as its last line, one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. A results file
with provenance (rev, rustc version, nproc, source digest, per-metric
sample quartiles, simulated-output digest) is written under
`.bench_results/`; a traced run also writes its spans there.

Exits non-zero without a result when the repository sources are missing
or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-campaign", "timeline-export", "leakage-observatory", "fleet-serving"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# What the source digest covers: every file the build reads.
SOURCE_DIRS = ["src", "crates", "vendor", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def fail(msg, code=3):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(base, f) for f in files if f.endswith((".rs", ".toml"))]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def git_rev():
    # Only a checkout that is itself a git repository has a rev; never
    # look in directories above it.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    return command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])


def run(cmd, timeout, **kw):
    """Runs `cmd` to completion (killing it on timeout) and returns its
    exit code."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s", 4)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description="Build and run the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive", 2)

    for needed in ["Cargo.toml", "crates", "src", "perfbench/Cargo.toml"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    code = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr,
    )
    if code != 0:
        fail(f"cargo build failed with exit code {code}", code)
    binary = os.path.join(target, "release", "sgx-perfbench")
    if not os.path.isfile(binary):
        fail(f"{binary} was not built")

    # The timed runs use one worker thread. Pin the benchmark to one CPU
    # so that each run and the host-speed reference timed around it share
    # that CPU; the build above used every CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    code = run(
        [binary,
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", repr(args.seconds),
         "--trace", str(args.trace),
         "--out", os.path.join(ROOT, ".bench_results"),
         "--rev", git_rev(),
         "--rustc", command_output(["rustc", "-V"]),
         "--source-digest", source_digest()],
        RUN_TIMEOUT_S, env=env,
    )
    sys.exit(code)


if __name__ == "__main__":
    main()

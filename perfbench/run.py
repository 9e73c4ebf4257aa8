#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper-cold|fleet-study|rank-analytic \
        --seed N --seconds S --trace 0|1 [--fleet-seed N]

Builds the benchmark (and the `metasim` CLI, which `paper-cold` is checked
against) in release mode under $CARGO_TARGET_DIR (default `.bench_build`),
then runs it. The last line of standard output is the result JSON; the
line before it names the full report, which also holds the host
fingerprint (cores, CPU model, rustc version, source digest and, in a git
repository, the commit).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys


def run_quiet(cmd, env):
    """Run a command with its output on stderr; True when it succeeds."""
    return subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# The sources of the repository's own build, and with them the benchmark's.
REPO_SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "src"]
BENCH_SOURCES = REPO_SOURCES + ["perfbench"]


def source_digest(roots):
    """SHA-256 over the files under `roots`."""
    h = hashlib.sha256()
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(root)
            if "target" not in d.split(os.sep)
            for f in files
        )
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_fingerprint(sources):
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = ""
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True
            ).stdout.strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": rustc,
        "commit": commit or None,
        "source_sha256": sources,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--fleet-seed", type=int)
    args = p.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    state = os.path.join(target, "perfbench")
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        print("perfbench: run from the root of a metasim checkout", file=sys.stderr)
        return 1
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    if not run_quiet(build + ["--manifest-path", "perfbench/Cargo.toml"], env):
        return 1
    if not run_quiet(build + ["-p", "metasim-cli"], env):
        return 1

    sources = source_digest(BENCH_SOURCES)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--state-dir", state,
        "--host", json.dumps(host_fingerprint(sources)),
    ]
    if args.fleet_seed is not None:
        cmd += ["--fleet-seed", str(args.fleet_seed)]
    # The study `paper-cold` times must be the one users run: export it
    # through the shipped CLI once per state of the sources, with the first
    # build, and compare every paper-cold run's observations with it byte
    # for byte.
    cli_sources = source_digest(REPO_SOURCES)
    export = os.path.join(state, "cli", f"study-export-{cli_sources[:16]}.csv")
    if not os.path.isfile(export):
        os.makedirs(os.path.dirname(export), exist_ok=True)
        cli = os.path.join(target, "release", "metasim")
        if not run_quiet([cli, "study", "--no-cache", "--export", export + ".tmp"], env):
            return 1
        os.replace(export + ".tmp", export)
    if args.workload == "paper-cold":
        cmd += ["--cli-export", export]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

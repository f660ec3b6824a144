#!/usr/bin/env python3
"""Builds the emgrid benchmark harness from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Before the harness output, one `fingerprint:` line records
the machine and source the numbers came from; the last line of stdout is the
harness's JSON result.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml", "perfbench/src")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_size():
    """Size of the highest-level CPU cache, as the kernel reports it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    try:
        indexes = [n for n in os.listdir(base) if n.startswith("index")]
    except OSError:
        return best[1]
    for index in indexes:
        try:
            with open(os.path.join(base, index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, index, "size")) as f:
                size = f.read().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, size)
    return best[1]


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    # Only a repository rooted here identifies these sources: git must not
    # look above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def fingerprint():
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "llc": llc_size(),
        "kernel": platform.release(),
        "rustc": rustc.stdout.strip() or "unknown",
        "source": source_id(),
    }


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(ROOT, target, "release", "emgrid-perfbench")
    print("fingerprint: " + json.dumps(fingerprint(), sort_keys=True), flush=True)
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

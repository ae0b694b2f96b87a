#!/usr/bin/env python3
"""Builds the benchmark and the distributed sweep worker from source, then
runs the benchmark with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Builds go to $CARGO_TARGET_DIR (default: .bench_build); a traced run writes
its spans to <target dir>/perfbench-spans/. Both builds use the release
profile of the repository's root Cargo.toml, so that one file holds it. See
perfbench/README.md.
"""

import os
import subprocess
import sys
import tomllib


def release_profile(manifest):
    """The root manifest's [profile.release] as CARGO_PROFILE_RELEASE_*
    variables, which override this package's own (default) profile."""
    with open(manifest, "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, dict):
            raise ValueError(f"[profile.release.{key}] has no environment form")
        if isinstance(value, bool):
            value = str(value).lower()
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    manifest = os.path.join(root, "Cargo.toml")
    try:
        profile = release_profile(manifest)
    except (OSError, tomllib.TOMLDecodeError, ValueError) as e:
        print(f"perfbench: cannot read the release profile of {manifest}: {e}", file=sys.stderr)
        return 2
    env = dict(os.environ, CARGO_TARGET_DIR=target, **profile)
    builds = [
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
        ["--manifest-path", manifest,
         "-p", "sysscale-dist", "--bin", "sysscale-dist-worker"],
    ]
    for build in builds:
        command = ["cargo", "build", "--release", "--offline", "--quiet", *build]
        # Cargo's own output goes to stderr; the result line owns stdout.
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 2
    binary = os.path.join(target, "release", "perfbench")
    worker = os.path.join(target, "release", "sysscale-dist-worker")
    spans = os.path.join(target, "perfbench-spans")
    os.execv(binary, [binary, *sys.argv[1:], "--worker", worker, "--out", spans])


if __name__ == "__main__":
    sys.exit(main())

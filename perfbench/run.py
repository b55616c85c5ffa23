#!/usr/bin/env python3
"""Repository benchmark: build perfbench/ and run it.

Run from the repository root:

    python3 perfbench/run.py --workload endhost-aqm --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

Builds perfbench/ (which compiles ../src directly) into .bench_build/perfbench
with CMake, then runs the benchmark binary. Build output goes to stderr; the
binary's stdout is passed through, so the last stdout line is the result JSON
(correct, attempted, failed, metrics). See perfbench/bench.cc for what is
measured.

--self-test runs the binary's own checks (traced == untraced digests, the
isolated layer micro-benches build the cell's modules) and checks
BENCHMARK.json against what the binary prints. --write-reference regenerates
perfbench/reference_digests.json, the per-cell output digests expected at the
default seed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference_digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "dumbbell.h")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_stamp():
    """git describe when the checkout is a git repository, plus a content
    hash of src/ so a checkout without git history is still identified."""
    desc = "no-git"
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            desc = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for d, _, files in sorted(os.walk(src)):
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, src).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "git=%s src-sha1=%s" % (desc, h.hexdigest()[:12])


def run_binary(args, capture=False):
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY] + args
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.flush()
    return subprocess.run(cmd)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def list_workloads():
    r = run_binary(["--list"], capture=True)
    if r.returncode != 0:
        fail("--list failed: " + r.stderr)
    return [l.split()[1] for l in r.stdout.splitlines() if l.startswith("workload ")]


def self_test():
    problems = []
    r = run_binary(["--self-test"])
    if r.returncode != 0:
        problems.append("binary self-test failed")
    with open(SPEC) as f:
        spec = json.load(f)
    names = list_workloads()
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(declared):
        problems.append("workloads %s != BENCHMARK.json %s" % (names, declared))
    for w in spec["workloads"]:
        why = w["why"]
        for word in ("closed-loop", "cells", "loads"):
            if word not in why:
                problems.append("%s: why does not state its %s" % (w["name"], word))
    # The names the command prints are the names BENCHMARK.json declares.
    wl = "web-mix" if "web-mix" in names else names[0]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        r = run_binary(["--workload", wl, "--seed", str(DEFAULT_SEED + 1),
                        "--seconds", "1", "--trace", trace, "--out-dir", OUT],
                       capture=True)
        res = last_json(r.stdout)
        if r.returncode != 0 or res is None:
            problems.append("trace %s run failed: %s" % (trace, r.stderr))
            continue
        printed = set(res["metrics"])
        want = {m["name"] for m in spec[key]}
        if printed != want:
            problems.append("trace %s prints %s, BENCHMARK.json %s declares %s" % (
                trace, sorted(printed ^ want), key, sorted(want)))
        for m in spec[key]:
            got = res["metrics"].get(m["name"], {}).get("unit")
            if got is not None and got != m["unit"]:
                problems.append("%s: unit %s != %s" % (m["name"], got, m["unit"]))
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("FAILED" if problems else "PASSED"))
    return 1 if problems else 0


def write_reference():
    cells = {}
    for wl in list_workloads():
        r = run_binary(["--workload", wl, "--seed", str(DEFAULT_SEED), "--seconds",
                        "0.1", "--trace", "0", "--write-reference"], capture=True)
        if r.returncode != 0:
            fail("reference run of %s failed:\n%s%s" % (wl, r.stdout, r.stderr))
        for line in r.stdout.splitlines():
            if line.startswith("reference "):
                _, key, digest = line.split()
                cells[key] = digest
    with open(REFERENCE, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "cells": cells}, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %d reference digests to %s" % (len(cells), REFERENCE))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        return self_test()
    if a.write_reference:
        return write_reference()
    if not a.workload:
        fail("--workload is required")
    if a.seed < 0:
        fail("--seed must be non-negative")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
            str(a.seconds), "--trace", a.trace, "--out-dir", OUT,
            "--stamp", source_stamp()]
    if os.path.isfile(REFERENCE):
        args += ["--reference", REFERENCE]
    return run_binary(args).returncode


if __name__ == "__main__":
    sys.exit(main())

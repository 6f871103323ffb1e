#!/usr/bin/env python3
"""End-to-end benchmark of the HDC diabetes pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: train_golden, serve_golden, serve_cohort_ann (see README.md in
this directory). The first run configures and builds perfbench/CMakeLists.txt
(the library in src/ plus the perfbench binary, Release) into
.bench_build/perfbench; later runs only re-check the build.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice, untraced and then traced (obs registry on, every span
kept in memory and written to .bench_build/perfbench/trace/), and prints the
per-layer metrics of BENCHMARK.json, including the tracing overhead (traced
minus untraced) of every end-to-end metric.

Every metric is printed as a "# name = value unit" line; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every output was correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PHASES = {
    "train_golden": ["train"],
    "serve_golden": ["prep", "measure"],
    "serve_cohort_ann": ["prep", "measure"],
}
# Every run must end within 180 s of its start, build excluded.
RUN_BUDGET_S = 170.0
# Layer metrics accumulated across the phases of one pass.
SUMMED_SUFFIXES = (".self_s",)
SUMMED_NAMES = {"data.read_csv_s", "bench.wall_s"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the perfbench binary; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as error:
                fail("cannot run %s: %s" % (step[0], error))
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-20:]))
                if step[1] == "-S":
                    # A failed configure leaves a cache that would skip it next time.
                    shutil.rmtree(BUILD, ignore_errors=True)
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def read_cache_kib(level):
    """Size in KiB of cpu0's unified/data cache at `level`, or None."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in sorted(entries):
        path = os.path.join(base, entry)
        try:
            with open(os.path.join(path, "level")) as f:
                if int(f.read()) != level:
                    continue
            with open(os.path.join(path, "type")) as f:
                if f.read().strip() == "Instruction":
                    continue
            with open(os.path.join(path, "size")) as f:
                size = f.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1, "M": 1024, "G": 1024 * 1024}.get(size[-1:], None)
        return int(size[:-1]) * scale if scale else int(size) // 1024
    return None


def source_commit():
    """git HEAD when the checkout is a repository, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()[:16]


def cache_verdict(db_bytes, l2_kib, l3_kib):
    if l2_kib and db_bytes <= l2_kib * 1024:
        return "fits in one core's L2"
    if l3_kib and db_bytes <= l3_kib * 1024:
        return "exceeds L2, fits in the L3 the VM reports"
    return "exceeds every reported cache"


def run_phase(binary, workload, phase, seed, seconds, traced, work, deadline):
    cmd = [binary, "--phase", phase, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0",
           "--work", work]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("run budget exhausted before phase " + phase)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RuntimeError("phase %s exceeded the run budget" % phase)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("phase %s exited with %d" % (phase, proc.returncode))
    return json.loads(lines[-1])


def run_pass(binary, workload, seed, seconds, traced, deadline):
    """All phases of one workload; returns the merged phase results."""
    work = os.path.join(BUILD, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    merged = {"end_to_end": {}, "layers": {}, "info": {}, "failures": [],
              "attempted": 0, "failed": 0, "digests": {}}
    try:
        for phase in PHASES[workload]:
            part = run_phase(binary, workload, phase, seed, seconds, traced, work,
                             deadline)
            merged["end_to_end"].update(part["end_to_end"])
            for name, metric in part["layers"].items():
                summed = name in SUMMED_NAMES or name.endswith(SUMMED_SUFFIXES)
                if summed and name in merged["layers"]:
                    merged["layers"][name]["value"] += metric["value"]
                else:
                    merged["layers"][name] = dict(metric)
            merged["info"].update(part["info"])
            merged["failures"] += part["failures"]
            merged["attempted"] += part["attempted"]
            merged["failed"] += part["failed"]
            merged["digests"][phase] = part["digest"]
        if traced:
            spans_dir = os.path.join(BUILD, "trace", workload)
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
            for name in os.listdir(work):
                if name.startswith("spans-"):
                    shutil.move(os.path.join(work, name), os.path.join(spans_dir, name))
            merged["info"]["spans_dir"] = os.path.relpath(spans_dir, ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return merged


def check_digests(workload, seed, commit, digests, failures):
    """A seed's outputs must repeat exactly across runs of the same sources."""
    path = os.path.join(BUILD, "digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    for phase, digest in digests.items():
        key = "%s/%s/%d/%s" % (workload, phase, seed, commit)
        if key in known and known[key] != digest:
            failures.append("digest of %s changed across runs: %s -> %s"
                            % (key, known[key], digest))
        known.setdefault(key, digest)
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PHASES))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S

    failures = []
    try:
        untraced = run_pass(binary, args.workload, args.seed, args.seconds, False,
                            deadline)
        passes = [untraced]
        if args.trace:
            passes.append(run_pass(binary, args.workload, args.seed, args.seconds,
                                   True, deadline))
    except (RuntimeError, ValueError, KeyError) as error:
        fail(str(error))
    final = passes[-1]
    for p in passes:
        failures += p["failures"]
    if len(passes) == 2 and passes[0]["digests"] != passes[1]["digests"]:
        failures.append("traced and untraced runs produced different outputs")
    commit = source_commit()
    check_digests(args.workload, args.seed, commit, untraced["digests"], failures)

    metrics = {}
    for m in spec["end_to_end"]:
        value = untraced["end_to_end"].get(m["name"], {}).get("value")
        if value is None or not value > 0:
            failures.append("end-to-end metric %s missing or not positive" % m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.trace:
        layers = final["layers"]
        traced_e2e = final["end_to_end"]

        def layer(name):
            return layers.get(name, {}).get("value", 0.0)

        measured_wall = layer("bench.wall_s") - layer("harness.self_s")
        derived = {
            "bench.unattributed_frac": layer("bench.self_s") / measured_wall
            if measured_wall > 0 else 0.0,
            "bench.harness_s": layer("harness.self_s"),
        }
        for m in spec["end_to_end"]:
            derived["trace.overhead." + m["name"]] = (
                traced_e2e.get(m["name"], {}).get("value", 0.0)
                - metrics[m["name"]]["value"])
        metrics = {}
        for m in spec["per_layer"]:
            value = derived[m["name"]] if m["name"] in derived else layer(m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    l2 = read_cache_kib(2)
    l3 = read_cache_kib(3)
    db_bytes = int(final["info"].get("db_bytes", 0))
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "simd_tier": final["info"].get("simd_tier"),
        "l2_kib": l2,
        "l3_kib": l3,
        "commit": commit,
        "db_rows": int(final["info"].get("db_rows", 0)),
        "db_bytes": db_bytes,
        "db_vs_cache": cache_verdict(db_bytes, l2, l3),
        "sync_samples": int(final["info"].get("sync_samples", 0)),
        "digests": untraced["digests"],
    }
    if "ann_label_agreement" in final["info"]:
        env["ann_label_agreement"] = float(final["info"]["ann_label_agreement"])
    if "spans_dir" in final["info"]:
        env["spans_dir"] = final["info"]["spans_dir"]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not failures
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"env": env, "correct": correct, "attempted": attempted, "failed": failed,
              "failures": failures, "metrics": metrics,
              "passes": [{k: p[k] for k in ("end_to_end", "layers", "info")}
                         for p in passes]}
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("# env " + json.dumps(env, sort_keys=True))
    print("# packed database: %d rows, %.2f MB; L2 %s KiB/core, L3 %s KiB: %s"
          % (env["db_rows"], db_bytes / 1e6, l2, l3, env["db_vs_cache"]))
    for name, metric in metrics.items():
        print("# %s = %.6g %s" % (name, metric["value"], metric["unit"]))
    for message in failures:
        print("# FAILED: " + message)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

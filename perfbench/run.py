#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload, and
print the result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and compiles
perfbench/ (which builds the library from ../src) into .bench_build/perfbench;
later runs re-configure it (a second or two) and rebuild what changed.
Everything the benchmark writes stays under .bench_build/: the build,
per-run reports with host metadata, Perfetto traces of traced runs, and a
fingerprint file that pins each (workload, seed)'s answer digest and
distance-evaluation count across runs of the same sources.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1). The exit code is 0 only when the run finished and every
output check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "perfbench-runs"
DRIVER = BUILD_DIR / "perfbench_driver"
VALIDATE_TRACE = ROOT / "scripts" / "validate_trace.py"
DRIVER_TIMEOUT_S = 170
# Workloads whose trace holds a library "build" root span; validate_trace.py
# requires exactly one. The dynamic index builds without one.
TRACE_HAS_BUILD = {"build-d16-atomic", "build-d128-tiled"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg, code=1):
    log(msg)
    sys.exit(code)


def source_hash():
    """Digest of every source the driver is built from (the library's src/
    and perfbench/ itself, this script aside): it names the code a report
    measured, also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE / "src") for p in d.rglob("*")]
    files.append(HERE / "CMakeLists.txt")
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def build_driver():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(os.cpu_count() or 1)
        # Keep the compiler's temporary files inside the checkout too.
        tmp = BUILD_DIR.parent / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        # Configure on every run, not only the first: the library stamps
        # `git describe` into its build info at configure time, so a build
        # directory reused across commits would otherwise report the first.
        fresh = not (BUILD_DIR / "CMakeCache.txt").exists()
        gen = ["-G", "Ninja"] if fresh and shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            if fresh:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
            die("cmake configure failed")
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target",
               "perfbench_driver", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            die("build failed")


def cpu_ticks():
    """(steal, total) jiffies of the host's cpu line in /proc/stat, or None
    where there is no such file. Steal is time the hypervisor gave this
    machine's virtual CPUs to someone else."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError, IndexError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def check_fingerprint(report, workload, seed, checks):
    """Answers and tiled distance counts are pure functions of the seed and
    the code: pin them in a per-checkout file and fail a run that disagrees.
    The key holds the source hash, so a change to the code, which may
    rightly change answers or distance counts, starts a fresh pin."""
    meta = report["meta"]
    backend = meta["build_info"].get("kernel_backend", "unknown")
    # The workload's sizes are part of the key, so editing a workload starts
    # a fresh pin instead of failing against the old one.
    sizes = json.dumps({k: v for k, v in meta["sizes"].items()
                        if k not in ("builds", "setups")}, sort_keys=True)
    config = hashlib.sha256(sizes.encode()).hexdigest()[:12]
    key = f"{workload}|{seed}|{backend}|{config}|{meta['source_hash']}"
    current = {"answers_digest": meta.get("answers_digest")}
    if workload == "build-d128-tiled":
        current["distance_evals"] = meta.get("distance_evals")
    path = RUNS_DIR / "fingerprints.json"
    with open(RUNS_DIR / "fingerprints.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        known = json.loads(path.read_text()) if path.exists() else {}
        if key in known:
            ok = known[key] == current
            checks.append({"name": "fingerprint_repeats", "ok": ok,
                           "detail": f"{key}: pinned {known[key]}, now {current}"})
        else:
            known[key] = current
            path.write_text(json.dumps(known, indent=1, sort_keys=True))


def validate_trace(trace_path, workload, report):
    """Runs scripts/validate_trace.py on the emitted trace and records its
    verdict in the report. It is reported, not gated: the library's span-id
    hash (obs::Tracer::span_id) gives distinct launches equal ids once a
    trace holds a few thousand launches, which validate_trace.py rejects, so
    a long traced serve run fails it for a reason outside this benchmark.
    The checks it would gate on here (build phases summing to the build, and
    launch and serve_batch spans present) are made by the driver itself."""
    if workload not in TRACE_HAS_BUILD or not VALIDATE_TRACE.exists():
        return
    cmd = [sys.executable, str(VALIDATE_TRACE), str(trace_path),
           "--require-launches", "--require-serve"]
    res = subprocess.run(cmd, capture_output=True, text=True)
    detail = (res.stdout + res.stderr).strip()
    log(detail)
    report["meta"]["validate_trace"] = {"ok": res.returncode == 0,
                                        "detail": detail}
    if res.returncode != 0:
        report["warnings"].append(f"validate_trace.py: {detail}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative", 2)

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        workloads = {w["name"] for w in spec["workloads"]}
        wanted = spec["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        die(f"cannot read {spec_path}: {e}")
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; one of {sorted(workloads)}", 2)

    t0 = time.monotonic()
    sources = source_hash()
    build_driver()
    log(f"driver ready in {time.monotonic() - t0:.1f}s")

    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = RUNS_DIR / f"work-{os.getpid()}"
    report_path = RUNS_DIR / "results" / f"{tag}.json"
    trace_path = RUNS_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--report", str(report_path), "--work-dir", str(work_dir),
           "--trace-out", str(trace_path)]
    ticks0 = cpu_ticks()
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver exceeded {DRIVER_TIMEOUT_S}s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if res.returncode != 0:
        die(f"driver exited with {res.returncode}", res.returncode)

    report = json.loads(report_path.read_text())
    report["meta"]["source_hash"] = sources
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Share of the run's CPU time the host took away: a host-noise
        # stamp to read the timings against.
        report["meta"]["host_steal_frac"] = (
            (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]))
    checks = report["checks"]
    check_fingerprint(report, args.workload, args.seed, checks)
    if args.trace:
        validate_trace(trace_path, args.workload, report)
        report["meta"]["trace_file"] = str(trace_path.relative_to(ROOT))

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            # A latency quantile is infinite when too many requests were lost.
            die(f"driver reported no finite value for {m['name']}")
        if got["unit"] != m["unit"]:
            die(f"{m['name']} reported in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = all(c["ok"] for c in checks)
    report["correct"] = correct
    report_path.write_text(json.dumps(report, indent=1))

    for c in checks:
        if not c["ok"]:
            log(f"check failed: {c['name']}: {c['detail']}")
    for w in report.get("warnings", []):
        log(f"warning: {w}")
    log(f"full report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

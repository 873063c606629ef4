#!/usr/bin/env python3
"""Fleet benchmark: build the repository and the benchmark, then run one
workload against a live vire_supervisord fleet (see fleetbench/README.md).

    python3 fleetbench/run.py --workload dense_poll --seed 1 --seconds 10 --trace 0
    python3 fleetbench/run.py --steady 5 [--workloads a,b] [--seconds 10] [--trace 0]
    python3 fleetbench/run.py --selftest

A run prints human-readable lines, then as its last stdout line one JSON
object with the keys correct, attempted, failed and metrics. Everything it
builds or writes stays under the build directory ($CARGO_TARGET_DIR, default
.bench_build, relative to the repository root).
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["dense_poll", "stream_ingest", "crash_restart"]
PR_SET_CHILD_SUBREAPER = 36


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_logged(cmd, log):
    """Runs a build step with its output appended to `log`; exits on failure."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        code = subprocess.call([str(c) for c in cmd], stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        sys.stderr.write("\n".join(tail) + "\n")
        sys.stderr.write(f"fleetbench: build step failed: {cmd[0]} ... (log: {log})\n")
        sys.exit(1)


def build():
    """Configures, builds and installs the repository (libraries and daemons
    only), then builds this package against the installed copy. Incremental:
    an up-to-date tree costs a few no-op build checks."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.stderr.write(f"fleetbench: no repository sources under {ROOT}\n")
        sys.exit(1)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    vire, prefix, bench = out / "vire", out / "prefix", out / "bench"
    if not (vire / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", ROOT, "-B", vire, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DVIRE_BUILD_TESTS=OFF", "-DVIRE_BUILD_BENCH=OFF",
                    "-DVIRE_BUILD_EXAMPLES=OFF"], log)
    run_logged(["cmake", "--build", vire, "-j", jobs], log)
    run_logged(["cmake", "--install", vire, "--prefix", prefix], log)
    if not (bench / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", BENCH_DIR, "-B", bench, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    f"-DCMAKE_PREFIX_PATH={prefix}"], log)
    run_logged(["cmake", "--build", bench, "-j", jobs], log)
    return bench / "fleetbench", prefix / "bin"


def source_rev():
    """git revision when the tree is a checkout, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def become_subreaper():
    """Orphaned descendants (a killed daemon's shards) are re-parented here,
    so reap_descendants() can stop and wait for every one of them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except OSError:
        pass


def reap_descendants():
    me = os.getpid()
    for _ in range(50):
        children = []
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                children.append(int(stat.parent.name))
        if not children:
            return
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.05)


def run_once(binary, bin_dir, workload, seed, seconds, trace, rev, echo=True):
    """Runs one workload in a fresh work directory; returns (exit code, last
    line, host-facts line)."""
    out = build_dir()
    work = out / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_out = out / "traces" / f"{workload}-seed{seed}.json"
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--bin", str(bin_dir),
           "--trace-out", str(trace_out), "--rev", rev]
    last = host = ""
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
            if line.startswith("host: "):
                host = line.strip()
            if line.strip():
                last = line.strip()
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    finally:
        reap_descendants()
        shutil.rmtree(work, ignore_errors=True)
    return code, last, host


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(binary, bin_dir, args, rev):
    """Runs each workload args.steady times, interleaved, one seed per round,
    and prints every metric's median, quartiles and range."""
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    results = {w: {} for w in workloads}
    for r in range(args.steady):
        for w in workloads:
            seed = args.seed + r
            code, last, host = run_once(binary, bin_dir, w, seed, args.seconds, args.trace, rev,
                                        echo=False)
            try:
                doc = json.loads(last)
            except json.JSONDecodeError:
                doc = {"correct": False, "metrics": {}}
            ok = code == 0 and doc.get("correct")
            facts = host.split("rev ", 1)[-1].split(", ", 1)[-1] if host else "no host facts"
            print(f"round {r + 1}/{args.steady} {w} seed {seed}: {'ok' if ok else 'FAILED'} ({facts})",
                  flush=True)
            for name, m in doc.get("metrics", {}).items():
                results[w].setdefault(name, []).append(m["value"])
    print()
    print(f"{'workload':14} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
    for w in workloads:
        for name, values in results[w].items():
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None else ("" if spread <= bound / 3 else "  <-- above bound/3")
            print(f"{w:14} {name:28} {q2:12.4f} {q1:12.4f} {q3:12.4f} {min(values):12.4f} "
                  f"{max(values):12.4f} {spread:8.3f} {bound if bound is not None else '-':>6}{flag}")
    summary = build_dir() / "steady.json"
    summary.write_text(json.dumps(results, indent=1))
    print(f"\nraw values: {summary}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run every workload N times, interleaved, and print spreads")
    parser.add_argument("--workloads", help="comma-separated subset for --steady")
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args()
    if not (args.workload or args.steady or args.selftest):
        parser.error("one of --workload, --steady or --selftest is required")

    become_subreaper()
    binary, bin_dir = build()
    rev = source_rev()
    if args.selftest:
        work = build_dir() / "work" / f"selftest-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            code = subprocess.call([str(binary), "selftest", "--bin", str(bin_dir)], cwd=work)
        finally:
            reap_descendants()
            shutil.rmtree(work, ignore_errors=True)
        sys.exit(code)
    if args.steady:
        steady(binary, bin_dir, args, rev)
        return
    code, _, _ = run_once(binary, bin_dir, args.workload, args.seed, args.seconds, args.trace, rev)
    sys.exit(code)


if __name__ == "__main__":
    main()

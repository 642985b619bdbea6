#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (which compiles the library from src/) into
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones; a traced run writes its spans to .bench_build/traces/ as a Chrome
trace. The exit status is 0 only when every op verified.

Every workload runs two ranks as threads of one process, each busy thread
bound to its own CPU. Each client is a closed loop (it issues its next op
only when the previous one on its lane completed) and checks every result.
All inputs derive from --seed. The measured time is cut into 20 slices;
dht and dht_socket run each slice in a fresh launch after a 0.2 s warm-up,
bulk_am (0.5 s warm-up) and inject (0.3 s) run all slices in one launch.

  dht         dht::RpcRmaMap on the mmap transport, auto (direct) RMA wire,
              one op outstanding per rank (the paper's blocking inserts).
              Mix: 30% insert, 45% find, 1% update, 24% erase over a live
              set of at most 1024 keys per rank; 8-byte random keys as 16
              hex chars; values of 128 B, 1 KB or 8 KB. Write = insert and
              update; read = find. Erases are verified and counted in the
              rates but not timed: a bounded live set erases as often as it
              inserts, and one-round-trip erases next to two-round-trip
              inserts would put the write median on the gap between them.
  dht_socket  the same generator and map over the socket transport (which
              pins the am RMA wire), 16 lanes per rank with up to 64 live
              keys each, so 16 ops in flight per rank.
  bulk_am     rput/rget on the am RMA wire over mmap, 8 lanes per rank,
              each alternating a put of a log-uniform 4 KiB..1 MiB pattern
              window into its own remote slot and a get that must read the
              same bytes back. Write = rput, read = rget.
  inject      rank 0 hands its master persona to a default-width
              upcxx::progress_pool and runs 2 injection_scope threads; rank 1
              serves from its master thread (4 busy threads). Per thread:
              40% 64 B rput, 10% 64 KB rput, 40% rpc that checksums the
              thread's remote slot, 10% atomic_domain fetch_add on the
              thread's remote counter. Write = rputs; read = rpc, fetch_add.

End-to-end metrics (--trace 0):
  setup_s           median over 15 setup-only launches of the time from the
                    launch call to the first barrier after per-rank state
                    exists
  ops_per_s         verified ops per second summed over ranks; the median
                    over slices
  payload_mb_per_s  value/payload bytes of verified ops per second (1e6 B);
                    the median over slices
  write_p50_us      median latency of all verified writes, from the
                    initiating call to completion
  read_p50_us       the same for reads

Per-layer metrics (--trace 1): the slices alternate untraced and traced.
Counter ratios are deltas of the layers' public counters over the traced
slices, summed over ranks, per verified op where the name says so.
*_init_ns, wait_ns and the trace.* self times are means of the benchmark's
spans (self = duration minus child spans; trace.op_self_ns adds the
completion callbacks). tail.*_p99_us come from the untraced slices.
trace.overhead_ratio is untraced ops/s divided by traced ops/s.
upcxx.progress_* count the benchmark's own upcxx::progress() calls
(dht's blocking waits make none). apps.dht.segment_leaked_bytes is the
segment still allocated, summed over launches, after every live key is read
back and erased: the landing zones RpcRmaMap::insert leaks when it
overwrites a key.

A workload whose busy threads exceed the usable hardware threads is
refused (exit 2, no result).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

BUILD_TIMEOUT_S = 800
RUN_LIMIT_S = 170  # a run must finish well inside 180 s


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    try:
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            os.makedirs(BUILD, exist_ok=True)
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        return True
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return False


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def run(cmd, limit):
    """Runs cmd with a time limit; returns (exit code, stdout) or None."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=limit)
    except subprocess.TimeoutExpired:
        log("timed out after %.0f s: %s" % (limit, " ".join(cmd)))
        return None
    except OSError as e:
        log("cannot run %s: %s" % (cmd[0], e))
        return None
    return p.returncode, p.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own checks")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    t0 = time.monotonic()
    if not build():
        return 3

    if args.selftest:
        r = run([os.path.join(BUILD, "perfbench_selftest")], RUN_LIMIT_S)
        if r is None:
            return 3
        sys.stdout.write(r[1])
        return r[0]

    want = expected_metrics(args.trace)
    if want is None:
        log("BENCHMARK.json is missing or unreadable")
        return 3
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    # A run that just configured and built the whole benchmark has the
    # larger first-run allowance; any other run must end within RUN_LIMIT_S.
    elapsed = time.monotonic() - t0
    limit = RUN_LIMIT_S if elapsed > 60 else RUN_LIMIT_S - elapsed
    r = run(cmd, limit)
    if r is None:
        return 3
    code, out = r
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and isinstance(result["metrics"], dict)
            and result["attempted"] >= 1 and result["failed"] >= 0):
        sys.stderr.write(out)
        log("perfbench exited %d without a result line" % code)
        return code or 3
    got = set(result["metrics"])
    if got != want:
        sys.stderr.write(out)
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - got), sorted(got - want)))
        return 3
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

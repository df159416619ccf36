#!/usr/bin/env python3
"""Build bench_live_group from source and run one workload of it.

    python3 bench/live/run.py --workload pb64 --seed 1 --seconds 20 --trace 0

Run from the root of the source tree. The build goes to
$CARGO_TARGET_DIR/live, or .bench_build/live when that is unset, and is
reused by later runs. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: every end-to-end
metric named in BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1. Exits non-zero, printing no result, when the build or the run
fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    # Written only by a configure that completed, unlike CMakeCache.txt.
    if not os.path.exists(os.path.join(build_dir, "CMakeFiles", "Makefile.cmake")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-G", "Unix Makefiles",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "bench_live_group"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_live_group")


def run_bench(argv):
    # Own session, so a timeout takes down the repetition child too.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        ap.error("unknown workload %r (have %s)" % (args.workload, sorted(names)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "live")
    binary = build(build_dir)

    out_json = os.path.join(build_dir, "result-%s-%d-%d.json"
                            % (args.workload, args.seed, args.trace))
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out", out_json]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        argv += ["--trace", "--trace-dir", trace_dir]
    if os.path.exists(out_json):
        os.remove(out_json)
    started = time.monotonic()
    code, text = run_bench(argv)
    sys.stdout.write(text)
    log("bench_live_group exited %d after %.1f s" % (code, time.monotonic() - started))

    with open(out_json) as f:
        result = json.load(f)["workloads"][args.workload]
    # The contract line has fixed keys; validity goes to the log and the
    # --out file that compare.py reads.
    log("%d invalid repetitions%s" % (result["invalid_reps"], "" if result["valid"]
        else "; too many, so the medians include them and the run is invalid"))
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise SystemExit("metric %s missing from the result" % m["name"])
        if got["unit"] != m["unit"]:
            raise SystemExit("metric %s: unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, KeyError, ValueError) as e:
        log("run.py: %s" % e)
        sys.exit(1)

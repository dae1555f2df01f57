#!/usr/bin/env python3
"""The repository benchmark: three workloads against a child privtree_server.

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds privtree_server and pbtool into
.bench_build (CMake, Release), generates every input from the seed, spawns
`privtree_server --threads=2`, drives it with pbtool (one process, at most
two generator threads and two connections), reads the server's CPU time and
peak memory from /proc/<pid>, checks every reply, and prints each metric
with its unit.  The last line of standard output is the JSON result.
`--trace 1` replaces the end-to-end metrics with the per-layer ones.  See
perfbench/README.md for definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

POINTS = 1_000_000
SETUPS = 5  # Server start-ups per untraced run; setup_s is their median.
RUN_LIMIT_S = 170  # A run that is not done this long after its build fails.
LATE_BOUND_MS = 10.0  # A run whose generator p99 lateness exceeds this is flagged.
EPS_SWEEP = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)  # The paper's ε sweep.

# Open-loop rates are fixed (query_hot: about a fifth of the saturation
# rate measured when the benchmark was defined; tiny_frames: a high frame
# rate), so later commits are measured at the same offered load.  Every
# frame's boxes count towards rel_error.
WORKLOADS = {
    "query_hot": dict(method="privtree", boxes_per_frame=64, frames=64,
                      open_rate=400.0, sat_window=4),
    "fit_cold": dict(method="privtree", boxes_per_frame=64, frames=64,
                     sweep=EPS_SWEEP, server_flags=["--cache=4"]),
    "tiny_frames": dict(method="ug", boxes_per_frame=1, frames=4096,
                        open_rate=2000.0, sat_window=16),
}

# Gated end-to-end metrics (BENCHMARK.json): CPU time, memory, accuracy,
# success and set-up time hold steady on a VM whose steal varies from run
# to run.  Wall-clock latency and throughput move with that steal, so they
# are printed (WALLCLOCK) but not gated; see README.md.
END_TO_END = {  # name -> unit
    "setup_s": "s", "cpu_ms_per_req": "ms", "rss_mb": "MB",
    "rel_error": "ratio", "success_ratio": "ratio",
}
WALLCLOCK = {"p50_ms": "ms", "tail_ms": "ms", "sat_rps": "1/s"}
PER_LAYER = {
    "spatial.index_build_ms": "ms", "spatial.decompose_ms": "ms",
    "spatial.nodes_visited": "count", "release.fit_ms": "ms",
    "release.tree_query_us_per_box": "us", "release.grid_query_ns_per_box": "ns",
    "release.save_ms": "ms", "release.load_ms": "ms", "release.envelope_kb": "KiB",
    "serve.pool_handoff_us": "us", "serve.cache_hit_us": "us",
    "server.engine_self_us": "us", "server.dispatch_self_us": "us",
    "server.codec_us": "us", "server.frame_bytes": "bytes",
    "server.queue_wait_p50_us": "us", "server.queue_wait_p99_us": "us",
    "server.request_p50_us": "us", "server.cache_hit_ratio": "ratio",
    "server.shed": "count", "server.expired": "count",
    "serve.spill_writes": "count", "serve.spill_bytes_written": "bytes",
    "transport.unattributed_us": "us", "gen.late_p99_ms": "ms",
    "gen.steal_pct": "%",
}


CHILDREN = []  # Every process this run started.


def reap():
    """Kills whatever child is still running and waits for every one."""
    for proc in CHILDREN:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    reap()
    sys.exit(1)


def build():
    """Configures (once) and builds the two targets; no output on success."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"{ROOT} holds no CMakeLists.txt: run from a full checkout")
    steps = [["cmake", "--build", BUILD, "-j4", "--target", "pbtool",
              "privtree_server"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            print(done.stdout[-4000:], file=sys.stderr)
            fail(f"build step failed: {' '.join(step)}")


def make_plan(workload, seed, seconds, trace):
    """Every input of the run, from the seed alone."""
    cfg = WORKLOADS[workload]
    rng = benchlib.seeded(workload, seed)
    replay = seconds / (2 if trace else 1)  # Traced runs replay twice.
    plan = {
        "workload": workload, "method": cfg["method"], "epsilon": 1.0,
        "release": rng.getrandbits(48) + 1, "points": POINTS,
        "boxes_per_frame": cfg["boxes_per_frame"],
        "frames": [benchlib.boxes(rng, cfg["boxes_per_frame"])
                   for _ in range(cfg["frames"])],
        "rel_frames": cfg["frames"],
        "dataset_seed": rng.getrandbits(63),
    }
    if "sweep" in cfg:
        plan.update(fit_sweep=list(cfg["sweep"]), fit_seconds=replay,
                    fit_release_base=rng.getrandbits(40) + 1)
    else:
        offsets = benchlib.poisson_offsets_us(rng, cfg["open_rate"], replay / 2)
        # rel_error reads each frame's first answer from the open loop.
        plan.update(open_offsets_us=offsets, sat_seconds=replay / 2,
                    sat_window=cfg["sat_window"],
                    rel_frames=min(cfg["frames"], len(offsets)))
    return plan


def write_plan(plan, path):
    lines = []
    for key in ("workload", "method", "epsilon", "release", "points",
                "boxes_per_frame", "rel_frames", "sat_seconds", "sat_window",
                "fit_seconds", "fit_release_base"):
        if key in plan:
            lines.append(f"{key} {plan[key]!r}".replace("'", ""))
    lines.append(f"frames {len(plan['frames'])}")
    for frame in plan["frames"]:
        lines.extend(" ".join(repr(v) for v in box) for box in frame)
    for key in ("open_offsets_us", "fit_sweep"):
        if key in plan:
            lines.append(f"{key} {len(plan[key])}")
            lines.append(" ".join(repr(v) for v in plan[key]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


class Server:
    """A child privtree_server; stderr is drained by a thread that also
    picks up the listening port."""

    def __init__(self, csv, flags):
        exe = os.path.join(BUILD, "privtree", "privtree_server")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [exe, csv, "2", "--port=0", "--threads=2", *flags],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        CHILDREN.append(self.proc)
        self.port = None
        self.log = []
        self.listening = threading.Event()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        if not self.listening.wait(120) or self.port is None:
            self.stop()
            fail("server did not start: " + "".join(self.log[-5:]))

    def _drain(self):
        for line in self.proc.stderr:
            self.log.append(line)
            found = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                self.listening.set()
        self.listening.set()

    def stop(self):
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=10)


class Tool:
    """pbtool load, talking its READY/MARK/DONE line protocol (load.cc)."""

    def __init__(self, args):
        self.proc = subprocess.Popen(
            [os.path.join(BUILD, "pbtool"), "load", *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        CHILDREN.append(self.proc)

    def read(self):
        line = self.proc.stdout.readline().split()
        if not line:
            fail("pbtool load stopped early")
        return line

    def expect(self, word):
        line = self.read()
        if line[0] != word:
            fail(f"pbtool: expected {word}, got {line}")
        return line[1:]

    def say(self, word):
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def finish(self):
        if self.proc.wait(timeout=150) != 0:
            fail("pbtool load failed")


def run_load(work, plan, csv, trace):
    """Start-ups plus the measured run; returns (setups, measures, result)."""
    cfg = WORKLOADS[plan["workload"]]
    flags = list(cfg.get("server_flags", []))
    if plan["workload"] == "fit_cold":
        flags.append("--spill-dir=" + os.path.join(work, "spill"))
    base = [f"--plan={os.path.join(work, 'plan.txt')}",
            f"--exact={os.path.join(work, 'exact.txt')}"]
    setups = []
    for attempt in range(1 if trace else SETUPS):
        shutil.rmtree(os.path.join(work, "spill"), ignore_errors=True)
        server = Server(csv, flags)
        last = attempt == (0 if trace else SETUPS - 1)
        extra = [f"--out={os.path.join(work, 'load.json')}"] if last else [
            "--setup-only=1"]
        if last and trace:
            extra.append(f"--spans={os.path.join(work, 'spans.jsonl')}")
        tool = Tool(base + [f"--port={server.port}"] + extra)
        ready = float(tool.expect("READY")[0])
        setups.append(ready - server.started)
        if not last:
            tool.finish()
            server.stop()
            continue
        pid = server.proc.pid
        host0 = benchlib.host_cpu_ticks()
        tool.say("go")
        cpu = {}  # Server CPU seconds as each phase starts, and at DONE.
        while True:
            line = tool.read()
            cpu[line[-1]] = benchlib.proc_cpu_seconds(pid)
            if line[0] == "DONE":
                break
            tool.say("go")
        hwm_kb = benchlib.proc_vmhwm_kb(pid)
        host1 = benchlib.host_cpu_ticks()
        tool.say("next")
        tool.finish()
        server.stop()
    with open(os.path.join(work, "load.json")) as f:
        result = json.load(f)
    measures = {"cpu": cpu, "hwm_kb": hwm_kb,
                "steal_pct": benchlib.steal_pct(host0, host1)}
    return setups, measures, result


def summarize(workload, replay):
    """Latency, throughput and failure figures of one replay."""
    counts = [replay["open"], replay["sat"]]
    attempted = sum(c["attempted"] for c in counts)
    failed = sum(c["served_errors"] + c["transport"] for c in counts)
    lat = replay["fit_lat_us"] if workload == "fit_cold" else replay["lat_us"]
    if not lat:
        fail("no request completed")
    q, tail_us = benchlib.tail(lat)
    if workload == "fit_cold":
        rate = len(replay["done_us"]) / replay["sat_seconds"]
    else:
        rate = benchlib.binned_rate(replay["done_us"], replay["sat_seconds"])
    late = sorted(replay["late_us"]) or [0.0]
    return {
        "attempted": attempted, "failed": failed,
        "p50_ms": benchlib.nearest_rank(sorted(lat), 0.5) / 1e3,
        "tail_ms": tail_us / 1e3, "tail_q": q, "samples": len(lat),
        "sat_rps": rate,
        "late_p50_ms": benchlib.nearest_rank(late, 0.5) / 1e3,
        "late_p99_ms": benchlib.nearest_rank(late, 0.99) / 1e3,
    }


def check(plan, result, work):
    """Correctness gates; returns a list of violations."""
    problems = [f"{name}={value}" for name, value in result["checks"].items()
                if value]
    exact = [float(v) for v in open(os.path.join(work, "exact.txt"))]
    if not 0.0 < result["rel_error"] < 0.5:
        problems.append(f"rel_error {result['rel_error']} outside (0, 0.5)")
    if len(exact) != plan["rel_frames"] * plan["boxes_per_frame"]:
        problems.append("exact answer count")
    # run.py's own arithmetic must agree with eval::MeanRelativeError.
    ours = statistics.fmean(benchlib.mean_relative_error(a, exact, POINTS)
                            for a in result["rel_answers"])
    if abs(ours - result["rel_error"]) > 1e-9 * result["rel_error"]:
        problems.append(f"rel_error {result['rel_error']} != {ours} "
                        "recomputed from the answers")
    return problems


def environment(steal, late_p99_ms):
    commit = "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    model = platform.processor()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"commit": commit, "build_type": build_type,
            "nproc": os.cpu_count(), "cpu_model": model,
            "steal_pct": round(steal, 3),
            "gen_late_p99_ms": round(late_p99_ms, 4),
            "gen_late_bound_ms": LATE_BOUND_MS,
            "valid": late_p99_ms <= LATE_BOUND_MS}


def stats_delta(snapshots):
    """Per-layer figures from the GetStats snapshots around the traced
    replay: counters as deltas over the replay; histogram quantiles (which
    are cumulative) from the snapshot after the open loop, or after the
    replay when there is no open loop."""
    before, during, after = snapshots[0], snapshots[1], snapshots[-1]

    def counter(name):
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def hist(name, field):
        return during["histograms"].get(name, {}).get(field, 0)

    hits, misses = counter("cache.hits"), counter("cache.misses")
    return {
        "server.queue_wait_p50_us": hist("engine.queue_wait_us", "p50_us"),
        "server.queue_wait_p99_us": hist("engine.queue_wait_us", "p99_us"),
        "server.request_p50_us": hist("server.request_us", "p50_us"),
        "server.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.shed": counter("admission.shed_queue_full")
        + counter("admission.shed_cache_saturated"),
        "server.expired": counter("admission.expired"),
        "serve.spill_writes": counter("cache.spill_writes"),
        "serve.spill_bytes_written": counter("cache.spill_bytes_written"),
    }


OPEN_LOOP_SLOT = 2  # pbtool's span-id stream of the open-loop phase.


def span_p50s(path):
    """p50 duration per span name, over the open-loop phase's requests when
    there is one (saturation queues would swamp the round trip)."""
    spans = []
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            root = span["parent"] or span["id"]
            spans.append((((root >> 40) - 1) % 4, span))
    if any(slot == OPEN_LOOP_SLOT for slot, _ in spans):
        spans = [(slot, s) for slot, s in spans if slot == OPEN_LOOP_SLOT]
    durations = {}
    for _, span in spans:
        durations.setdefault(span["name"], []).append(
            span["end_us"] - span["start_us"])
    return {name: benchlib.nearest_rank(sorted(v), 0.5)
            for name, v in durations.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    signal.signal(signal.SIGALRM,
                  lambda *_: fail(f"run exceeded {RUN_LIMIT_S} s"))
    signal.alarm(RUN_LIMIT_S)
    workload, trace = args.workload, bool(args.trace)
    plan = make_plan(workload, args.seed, args.seconds, trace)
    work = os.path.join(BUILD, f"run-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        write_plan(plan, os.path.join(work, "plan.txt"))
        csv = os.path.join(work, "points.csv")
        tool = os.path.join(BUILD, "pbtool")
        gen = subprocess.run(
            [tool, "gen", f"--seed={plan['dataset_seed']}",
             f"--points={POINTS}", f"--plan={os.path.join(work, 'plan.txt')}",
             f"--csv={csv}", f"--exact={os.path.join(work, 'exact.txt')}"])
        if gen.returncode != 0:
            fail("dataset generation failed")
        setups, measures, result = run_load(work, plan, csv, trace)
        problems = check(plan, result, work)
        # Untraced runs make one replay; traced runs a traced replay first
        # and an untraced one after it.
        summaries = [summarize(workload, r) for r in result["replays"]]
        untraced = summaries[-1]
        attempted = sum(s["attempted"] for s in summaries)
        failed = sum(s["failed"] for s in summaries)
        # CPU per request over the fixed-concurrency phase (saturation, or
        # the closed loop), where the server is busy all the time: at a low
        # offered rate the cost of waking idle threads, which varies with
        # the host's load, would dominate tiny_frames.
        sat = result["replays"][-1]["sat"]
        completed = sat["attempted"] - sat["served_errors"] - sat["transport"]
        cpu = measures["cpu"]
        cpu_ms_per_req = 1e3 * (cpu["DONE"] - cpu["fixed"]) / max(completed, 1)
        env = environment(measures["steal_pct"], untraced["late_p99_ms"])
        print("environment: " + json.dumps(env))
        if not env["valid"]:
            print(f"FLAGGED: generator p99 lateness "
                  f"{env['gen_late_p99_ms']} ms exceeds {LATE_BOUND_MS} ms")

        # Wall-clock figures: printed, not gated (see README.md).
        wallclock = {name: untraced[name] for name in WALLCLOCK}
        wallclock.update(tail_percentile=100 * untraced["tail_q"],
                         tail_samples=untraced["samples"])
        print("WALLCLOCK " + json.dumps(wallclock))
        if not trace:
            metrics = {
                "setup_s": statistics.median(setups),
                "cpu_ms_per_req": cpu_ms_per_req,
                "rss_mb": measures["hwm_kb"] / 1024.0,
                "rel_error": result["rel_error"],
                "success_ratio": 1.0 - failed / attempted,
            }
            units = END_TO_END
            print(f"setup_s is the median of {len(setups)} start-ups: "
                  + ", ".join(f"{s:.3f}" for s in setups))
        else:
            traced = summaries[0]
            walk_out = os.path.join(work, "walk.json")
            walk = subprocess.run(
                [tool, "walk", f"--plan={os.path.join(work, 'plan.txt')}",
                 f"--csv={csv}", f"--out={walk_out}"])
            if walk.returncode != 0:
                fail("pbtool walk failed")
            with open(walk_out) as f:
                layers = json.load(f)
            spans = span_p50s(os.path.join(work, "spans.jsonl"))
            layers.update(stats_delta(result["stats"]))
            layers["transport.unattributed_us"] = (
                spans["client.wait"] - layers["server.request_p50_us"])
            layers["gen.late_p99_ms"] = traced["late_p99_ms"]
            layers["gen.steal_pct"] = measures["steal_pct"]
            kernel_us = layers.pop("walk.kernel_us_per_frame")
            metrics = {name: layers[name] for name in PER_LAYER}
            units = PER_LAYER
            p50_us = untraced["p50_ms"] * 1e3
            attributed = (untraced["late_p50_ms"] * 1e3
                          + spans.get("client.encode", 0.0)
                          + layers["server.request_p50_us"]
                          + spans.get("client.decode", 0.0))
            print("client spans p50 (us): " + ", ".join(
                f"{k}={v:.2f}" for k, v in sorted(spans.items())))
            print(f"unattributed remainder: {p50_us - attributed:.2f} us of "
                  f"untraced p50 {p50_us:.2f} us (attributed: generator "
                  f"lateness + client.encode + server.request_p50_us + "
                  f"client.decode = {attributed:.2f} us)")
            print(f"tracing overhead: traced p50 {traced['p50_ms']:.4f} ms - "
                  f"untraced p50 {untraced['p50_ms']:.4f} ms = "
                  f"{traced['p50_ms'] - untraced['p50_ms']:+.4f} ms")
            if workload == "fit_cold":
                fit_part = (layers["spatial.index_build_ms"]
                            + layers["spatial.decompose_ms"])
                print(f"index build + decompose: {fit_part:.4g} ms = "
                      f"{100 * fit_part / cpu_ms_per_req:.4g}% of "
                      f"cpu_ms_per_req {cpu_ms_per_req:.4g} ms")
            else:
                print(f"kernel share of p50: {kernel_us:.2f} us per frame = "
                      f"{100 * kernel_us / p50_us:.2f}% of untraced p50")

        for name, value in metrics.items():
            print(f"{workload} {name} = {value:.6g} {units[name]}")
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 1 if problems else 0
    finally:
        reap()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

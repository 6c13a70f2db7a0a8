#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, four workloads.

Usage (from the repository root):
  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds e2ebench/ (CMake, RelWithDebInfo, on top of src/) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs one
workload for S seconds with inputs generated from seed N, checks every
output, prints each metric with its unit and the run record, writes the
result to <build>/results/, and prints as its last line

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, from trace_table.py). The exit code is 0
only when every output was correct. README.md says why each workload
exists and which layer should move which metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402
import trace_table  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
# Seconds the program stays on one CPU (run_rotating).
ROTATE_S = 1.0
# Set-ups per run at least (the binary repeats them for some seconds).
SETUPS = 20
# From this many set-ups on, setup_s is the fastest of them (setup_time).
MANY_SETUPS = 50
# The highest percentile the gated latency tail may use.
GATED_TAIL = 90.0

SERVICE = ("service.roundtrip_us", "service.handle_us",
           "service.transport_us", "service.dispatch_us",
           "service.cache_hit_ratio", "service.evictions", "service.shed",
           "frame.request_bytes", "frame.response_bytes")
SIM = ("sim.trial_ms", "sim.events", "sim.ticks_skipped",
       "sim.active_instant_share", "sim.host_ns_per_active_instant",
       "sim.invocations", "sim.committed_updates", "sim.vote_divergences",
       "sim.queue_allocations", "sim.queue_resizes", "mc.trials_per_s")
# The per-layer metrics each workload's traced run must produce: the
# layers it crosses (README.md's prediction table). A traced run fails
# when one of them is missing; a layer a workload does not cross reads 0.
LAYERS = {
    "lrtd_cold": SERVICE + (
        "json.parse_us", "json.parse_mb_s", "codec.spec_decode_us",
        "codec.arch_decode_us", "codec.impl_decode_us", "lrt.fingerprint_us",
        "lrt.build_workload_us", "lrt.build_implementation_us",
        "lrt.analyze_us", "spec.graph_us", "reliability.report_json_us",
        "obs.trace_overhead_pct"),
    "lrtd_edit": SERVICE + (
        "json.parse_us", "json.parse_mb_s", "reliability.set_task_hosts_us",
        "obs.trace_overhead_pct"),
    "sim_3ts": SIM + (
        "synth.plan_us", "synth.candidates", "synth.full_evals",
        "synth.prunes", "plant.advance_calls", "plant.advance_us",
        "plant.sensor_reads", "plant.actuator_writes", "adapt.monitor_us",
        "adapt.repairs_installed", "adapt.campaign_alarm_ratio",
        "obs.trace_overhead_pct"),
    "sim_multirate": SIM + (
        "service.roundtrip_us", "service.cache_hit_ratio",
        "service.evictions", "service.shed", "frame.request_bytes",
        "frame.response_bytes", "obs.trace_overhead_pct"),
}
WORKLOADS = tuple(LAYERS)
# Crossed-layer metrics that are legitimately 0 at the production
# defaults: the tick engine leaves the event-queue counters at 0, nothing
# is shed or diverges, lrtd_edit never evicts, lrtd_cold never hits,
# a short sim_3ts run may see no campaign alarm, and the trace overhead
# is a signed difference.
MAY_BE_ZERO = {
    "lrtd_cold": {"service.cache_hit_ratio", "service.shed",
                  "obs.trace_overhead_pct"},
    "lrtd_edit": {"service.evictions", "service.shed",
                  "obs.trace_overhead_pct"},
    "sim_3ts": {"sim.events", "sim.ticks_skipped", "sim.vote_divergences",
                "sim.queue_allocations", "sim.queue_resizes",
                "adapt.campaign_alarm_ratio", "obs.trace_overhead_pct"},
    "sim_multirate": {"sim.events", "sim.ticks_skipped",
                      "sim.vote_divergences", "sim.queue_allocations",
                      "sim.queue_resizes", "service.evictions",
                      "service.shed", "obs.trace_overhead_pct"},
}


def fail(message):
    sys.stderr.write("e2ebench: %s\n" % message)
    sys.exit(1)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def usable_cpus():
    """The CPUs the benchmark program may run on, ascending (empty where
    affinity cannot be set)."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def move_to(pid, cpu):
    """Pins every thread of process `pid` to `cpu`."""
    try:
        tids = os.listdir("/proc/%d/task" % pid)
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except OSError:  # the thread has ended
            pass


def run_rotating(command, cpus):
    """Runs `command` pinned to one CPU at a time, moving it to the next of
    `cpus` every ROTATE_S seconds; returns (exit code, stdout bytes).

    Each CPU of a virtual machine can switch, for seconds at a time,
    between a fast and a slow speed, independently of the others. A run
    that visits all of them sees their average, not the state of one."""
    first = cpus[0] if cpus else None
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE,
        preexec_fn=None if first is None else
        (lambda: os.sched_setaffinity(0, {first})))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    turn = 0
    while True:
        try:
            out, _ = proc.communicate(timeout=ROTATE_S)
            return proc.returncode, out
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                proc.kill()
                proc.communicate()
                fail("lrt_e2ebench timed out after %d s" % RUN_TIMEOUT_S)
            if cpus:
                turn += 1
                move_to(proc.pid, cpus[turn % len(cpus)])


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(directory):
    """Configures and builds lrt_e2ebench; returns the binary path."""
    os.makedirs(directory, exist_ok=True)
    log_path = os.path.join(directory, "build.log")
    jobs = str(max(1, min(4, cores())))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", directory, "--target", "lrt_e2ebench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return os.path.join(directory, "lrt_e2ebench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".pyc",)):
                    continue
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        top, head = subprocess.check_output(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            stderr=subprocess.DEVNULL).decode().split()
    except (OSError, ValueError, subprocess.CalledProcessError):
        return "none (not a git checkout)"
    if os.path.realpath(top) != os.path.realpath(ROOT):
        return "none (not a git checkout)"
    return head


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def end_to_end(raw, latency, done):
    """The end-to-end metrics of one untraced run, over all its operations
    (see README.md for why not the median latency)."""
    # The gated tail is p90: p99 is set by the host's sub-second stalls
    # (README.md, "Steadiness"). The tails the run supports beyond it are
    # printed.
    figures = stats.summarize(latency, cap=GATED_TAIL)
    if figures["tail_q"] is None:
        fail("too few operations (%d) for a tail percentile" % figures["n"])
    throughput = figures["n"] / max(done)
    metrics = {
        "setup_s": (setup_time(raw["setup_s"]), "s"),
        "latency_%s_ms" % stats.percentile_name(figures["tail_q"]):
            (figures["tail"], "ms"),
        "throughput_rps": (throughput, "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    extra = {
        "latency_p50_ms": (figures["p50"], "ms"),
        "latency": (stats.describe(stats.summarize(latency), "ms"), ""),
        "setups": (len(raw["setup_s"]), ""),
        "failed_ratio": (failed(raw) / raw["attempted"], "ratio"),
    }
    if raw["periods_per_op"] > 0:
        extra["sim_periods_per_s"] = (throughput * raw["periods_per_op"],
                                      "1/s")
    return metrics, extra


def setup_time(samples):
    """The set-up metric. Many short set-ups include some the host did
    not slow, and the fastest of them is steady; of a few long ones the
    fastest is one lucky sample, and their mean is steadier (README.md,
    "Steadiness")."""
    if len(samples) >= MANY_SETUPS:
        return min(samples)
    return sum(samples) / len(samples)


def per_layer(workload, layer, names):
    """The per-layer metrics `names` of one traced run, from the trace
    table's metrics `layer`. Every layer the workload crosses must be in
    the table (ValueError otherwise); the others read 0."""
    crossed = LAYERS[workload]
    missing = [name for name in crossed if name not in layer]
    if missing:
        raise ValueError("traced %s run produced no %s" %
                         (workload, ", ".join(missing)))
    return {name: layer[name] if name in crossed else 0.0 for name in names}


def failed(raw):
    return raw["shed"] + raw["error_frames"] + raw["wrong_outputs"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="test hook: alter output I of the run")
    parser.add_argument("--corrupt-replay", action="store_true",
                        help="test hook: alter the first result of the "
                        "traced run's direct layer replay")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    contract = load_contract()
    directory = build_dir()
    binary = build(directory)
    run_name = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    out_dir = os.path.join(directory, "runs", run_name)
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))

    # One connection served by one worker, in a process pinned to one CPU
    # at a time: the closed loop has one runnable thread at a time, and a
    # hand-off between threads on different CPUs of a virtual machine
    # waits for the host to wake the idle one, which times the host, not
    # the program.
    nproc = cores()
    cpus = usable_cpus()
    connections = 1
    workers = 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", os.path.relpath(out_dir, ROOT),
               "--connections", str(connections), "--workers", str(workers),
               "--setups", str(SETUPS), "--corrupt", str(args.corrupt)]
    if args.corrupt_replay:
        command.append("--corrupt-replay")
    returncode, stdout = run_rotating(command, cpus)
    lines = stdout.decode().strip().splitlines()
    if returncode != 0 or not lines:
        fail("lrt_e2ebench exited with %d" % returncode)
    raw = json.loads(lines[-1])

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "cpus_rotated": len(cpus),
        "hardware_concurrency": raw["hardware_concurrency"],
        "compiler": raw["compiler"], "build_type": raw["build_type"],
        "commit": commit(), "source_digest": source_digest(),
        "input_digest": raw["input_digest"],
        "output_digest": raw["output_digest"],
        "connections": raw["connections"],
        "server_workers": raw["server_workers"],
        "mc_threads": raw["mc_threads"],
    }
    names = [m["name"] for m in contract[
        "per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in contract["per_layer"] +
             contract["end_to_end"]}
    print("run record:")
    for key, value in record.items():
        print("  %-22s %s" % (key, value))

    if args.trace:
        table, layer = trace_table.analyze(out_dir)
        print(table)
        try:
            values = per_layer(args.workload, layer, names)
        except ValueError as error:
            fail(str(error))
        metrics = {name: (value, units[name]) for name, value in
                   values.items()}
        extra = {}
    else:
        metrics, extra = end_to_end(
            raw, *trace_table.load_samples(os.path.join(out_dir, "measured")))

    attempted = raw["attempted"]
    failures = failed(raw)
    correct = failures == 0
    print("%s: attempted %d, failed %d (shed %d, error frames %d, wrong "
          "outputs %d, of which replay mismatches %d)" % (
              args.workload, attempted, failures, raw["shed"],
              raw["error_frames"], raw["wrong_outputs"],
              raw["replay_failed"]))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print("  %-34s %s %s" % (name, value, unit))

    result = {
        "correct": correct, "attempted": attempted, "failed": failures,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results_dir = os.path.join(directory, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, run_name + ".json"), "w") as out:
        json.dump({"record": record, "raw": raw, "result": result,
                   "extra": {k: v for k, (v, _) in extra.items()}}, out,
                  indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

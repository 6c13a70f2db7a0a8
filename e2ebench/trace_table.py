#!/usr/bin/env python3
"""Turns a traced run into the per-layer table.

Usage:
  python3 e2ebench/trace_table.py RUN_DIR

RUN_DIR is the output directory of one lrt_e2ebench --trace 1 run (run.py
uses <build>/runs/<workload>-s<seed>-t1). Its trace.tsv has one span or
value per line:

  S <request> <id> <parent> <name> <start_ns> <end_ns> <ok> <bytes>
  M <name> <value>

A span's self time is its duration minus the durations of its child
spans (children of one span never overlap). The plant and adapt spans
under a sim.trial are aggregates: one per kind of call and trial, whose
duration is the calls' summed time and whose bytes field is their count;
plant.advance_us and adapt.monitor_us are therefore per trial. The table
lists, per span name, the count, the self-time median and tail
(stats.summarize) and the failures, then the per-layer metrics derived
from them and the values read from the program's obs counters. From the
untraced-c*.f64 and traced-c*.f64 sample files it also reports
obs.trace_overhead_pct: the traced pass's median operation latency over
the untraced pass's, minus one, in percent.
"""

import argparse
import array
import collections
import glob
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

# metric -> (span name, "self" or "total", divisor from microseconds)
SPAN_METRICS = {
    "service.roundtrip_us": ("service.roundtrip", "total", 1.0),
    "service.handle_us": ("service.handle", "total", 1.0),
    "json.parse_us": ("json.parse", "self", 1.0),
    "codec.spec_decode_us": ("codec.spec_decode", "self", 1.0),
    "codec.arch_decode_us": ("codec.arch_decode", "self", 1.0),
    "codec.impl_decode_us": ("codec.impl_decode", "self", 1.0),
    "lrt.fingerprint_us": ("lrt.fingerprint", "self", 1.0),
    "lrt.build_workload_us": ("lrt.build_workload", "self", 1.0),
    "lrt.build_implementation_us": ("lrt.build_implementation", "self", 1.0),
    "lrt.analyze_us": ("lrt.analyze", "self", 1.0),
    "spec.graph_us": ("spec.graph", "self", 1.0),
    "reliability.report_json_us": ("reliability.report_json", "self", 1.0),
    "reliability.set_task_hosts_us": ("reliability.set_task_hosts", "self",
                                      1.0),
    "synth.plan_us": ("synth.plan", "self", 1.0),
    "sim.trial_ms": ("sim.trial", "total", 1000.0),
    "plant.advance_us": ("plant.advance", "self", 1.0),
    "adapt.monitor_us": ("adapt.monitor", "self", 1.0),
}

# The direct calls one request makes into the layers below the service;
# what Service::handle spends beyond them is dispatch.
DIRECT_CALLS = (
    "json.parse", "codec.spec_decode", "codec.arch_decode",
    "codec.impl_decode", "lrt.fingerprint", "lrt.build_workload",
    "spec.graph", "lrt.build_implementation", "lrt.analyze",
    "reliability.report_json", "reliability.set_task_hosts",
)


def load_trace(path):
    spans = []
    values = {}
    with open(path) as handle:
        for line in handle:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "S" and len(parts) == 9:
                spans.append((int(parts[2]), int(parts[3]), parts[4],
                              int(parts[6]) - int(parts[5]), parts[7] == "1",
                              int(parts[8])))
            elif parts[0] == "M" and len(parts) == 3:
                values[parts[1]] = float(parts[2])
            else:
                raise ValueError("%s: malformed line %r" % (path, line))
    return spans, values


def load_samples(prefix):
    """(latencies, completion times) of one pass: the float64 pairs of its
    files <prefix>-c<caller>.f64, callers in order."""
    paths = glob.glob(glob.escape(prefix) + "-c*.f64")
    if not paths:
        raise ValueError("no sample files %s-c*.f64" % prefix)
    samples = array.array("d")
    for path in sorted(paths, key=lambda p: int(re.search(
            r"-c(\d+)\.f64$", p).group(1))):
        with open(path, "rb") as handle:
            samples.frombytes(handle.read())
    if sys.byteorder != "little":
        samples.byteswap()
    return list(samples[0::2]), list(samples[1::2])


def layer_rows(spans):
    """name -> {'count', 'total_us', 'self_us', 'failures', 'bytes'}."""
    child_ns = collections.defaultdict(int)
    for _, parent, _, duration, _, _ in spans:
        if parent:
            child_ns[parent] += duration
    rows = collections.OrderedDict()
    for span_id, _, name, duration, ok, size in spans:
        row = rows.setdefault(name, {"count": 0, "total_us": [],
                                     "self_us": [], "failures": 0,
                                     "bytes": 0})
        row["count"] += 1
        row["total_us"].append(duration / 1000.0)
        row["self_us"].append(max(0, duration - child_ns[span_id]) / 1000.0)
        row["failures"] += 0 if ok else 1
        row["bytes"] += size
    return rows


def layer_metrics(rows, values, untraced=None, traced=None):
    """Every per-layer metric the trace supports, by name."""
    metrics = dict(values)
    medians = {}
    for name, row in rows.items():
        medians[name] = stats.median(row["self_us"])
    for metric, (span, which, divisor) in SPAN_METRICS.items():
        if span in rows:
            key = "total_us" if which == "total" else "self_us"
            metrics[metric] = stats.median(rows[span][key]) / divisor
    if "service.roundtrip_us" in metrics and "service.handle_us" in metrics:
        metrics["service.transport_us"] = (metrics["service.roundtrip_us"] -
                                           metrics["service.handle_us"])
    direct = [medians[name] for name in DIRECT_CALLS if name in medians]
    if "service.handle_us" in metrics and direct:
        metrics["service.dispatch_us"] = (metrics["service.handle_us"] -
                                          sum(direct))
    parse = rows.get("json.parse")
    if parse and sum(parse["self_us"]) > 0:
        metrics["json.parse_mb_s"] = parse["bytes"] / sum(parse["self_us"])
    instants = values.get("sim.active_instants_per_trial")
    if "sim.trial" in rows and instants:
        metrics["sim.host_ns_per_active_instant"] = (
            medians["sim.trial"] * 1000.0 / instants)
    if untraced and traced:
        metrics["obs.trace_overhead_pct"] = (
            stats.median(traced) / stats.median(untraced) - 1.0) * 100.0
    return metrics


def format_table(rows, metrics):
    lines = ["%-30s %9s %12s %22s %8s" % ("span", "count", "self p50 us",
                                          "self tail us", "failures")]
    for name, row in sorted(rows.items()):
        summary = stats.summarize(row["self_us"])
        tail = "-"
        if summary["tail_q"] is not None:
            tail = "%s %.3f" % (stats.percentile_name(summary["tail_q"]),
                                summary["tail"])
        lines.append("%-30s %9d %12.3f %22s %8d" % (
            name, row["count"], summary["p50"], tail, row["failures"]))
    lines.append("")
    lines.append("%-34s %s" % ("per-layer metric", "value"))
    for name in sorted(metrics):
        lines.append("%-34s %.6g" % (name, metrics[name]))
    return "\n".join(lines)


def analyze(run_dir):
    """(table text, metrics dict) for one traced run."""
    spans, values = load_trace(os.path.join(run_dir, "trace.tsv"))
    rows = layer_rows(spans)
    untraced, _ = load_samples(os.path.join(run_dir, "untraced"))
    traced, _ = load_samples(os.path.join(run_dir, "traced"))
    metrics = layer_metrics(rows, values, untraced, traced)
    return format_table(rows, metrics), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir")
    args = parser.parse_args()
    table, _ = analyze(args.run_dir)
    print(table)


if __name__ == "__main__":
    main()

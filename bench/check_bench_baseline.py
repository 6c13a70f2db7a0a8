#!/usr/bin/env python3
"""CI bench-smoke gate: compare a fresh bench summary against its
checked-in baseline.

The rule set is selected by the summary's "benchmark" field, so one gate
script serves every bench that writes a --json summary:

  synthesis_*  — the synthesis engine must not regress (the
    `reference_*` keys describe the build-and-analyze test oracle):
    * search effort: the exhaustive or greedy candidates_evaluated or
      full_evals grew beyond a small tolerance over the baseline (the
      counters are deterministic, so any real growth is an algorithmic
      regression, not noise);
    * result quality: the minimal cost changed (engine or oracle), or
      the greedy cost changed;
    * wall clock: fast_wall_ms exceeds an absolute budget, and on a
      runner with the baseline's core count (like hardware) the
      best-of-5 batched exhaustive time fast_best_wall_ms may not exceed
      2x the baseline.

  longrun_*    — the simulation loop (sim::simulate) must stay a
    faithful fast path of the every-grid-tick oracle:
    * identity: the loop's and the oracle's report bytes must be
      identical (identical == 1) on the sparse 999/1000-period series
      and on the dense 3TS closed loop (dense_identical == 1) — the
      CI-level differential oracle;
    * determinism: horizon_ticks, events and ticks_skipped (and their
      dense_* counterparts) are exact (same workload, same seeds — any
      drift is a semantics change);
    * performance: the sparse loop-vs-oracle speedup must stay above a
      floor far below the recorded value; on a runner with the
      baseline's core count (like hardware) neither the sparse nor the
      dense loop wall time may exceed 2x the baseline, and the sparse
      loop always fits an absolute budget. Oracle wall times are
      recorded, not gated.

  analysis_*   — the SRG kernel and the cold analyze path:
    * determinism: the workload shape and the incremental dirty-cone
      effort (incremental_comm_updates) match the baseline exactly;
    * performance: analyze_us and incremental_ms_per_mutation may not
      exceed 2x the baseline on a runner with the baseline's core count
      (like hardware); elsewhere the machine-independent
      incremental-vs-full speedup may not fall below half the baseline's,
      and analyze_us gets a coarse absolute budget.

  service_*    — lrtd's cold and hit paths:
    * determinism: 1-worker and 8-worker servers answer the same log
      with identical bytes; the workload shape matches the baseline;
    * incrementality: hit_speedup stays above a floor and hit_us within
      an absolute budget;
    * cold path: cold_us and cold_parse_us (the JSON parse of the 71 KB
      cold frame) may not exceed 2x the baseline on a runner with the
      baseline's core count; elsewhere cold_us gets a coarse absolute
      budget.

Wall budgets are generous (~50-100x the recorded times) since CI machines
are slower and noisier than the baseline recorder — except the analysis,
synthesis, longrun and service cold-path rules, which catch a 2x
regression on like hardware.

Usage: check_bench_baseline.py <fresh.json> <baseline.json>
"""
import json
import sys

# Deterministic counters get 10% headroom for harmless refactors.
COUNTER_TOLERANCE = 1.10
SYNTHESIS_WALL_BUDGET_MS = 250.0
LONGRUN_SPEEDUP_FLOOR = 10.0
LONGRUN_WALL_BUDGET_MS = 250.0
UPDATE_WALL_BUDGET_MS = 250.0
LINT_WALL_BUDGET_MS = 250.0
# The lrtd acceptance bar: a cache-hit delta analyze must stay two
# orders of magnitude cheaper than a cold-miss full analysis. The wall
# budget bounds the hit path absolutely (it is machine-dependent but the
# recorded median is ~4 us, so 100x headroom still catches a path that
# started rebuilding or re-serializing the world).
SERVICE_HIT_SPEEDUP_FLOOR = 100.0
SERVICE_HIT_BUDGET_US = 400.0
# Absolute bound for the cold analyze on unlike hardware (~25x the
# recorded figure).
SERVICE_COLD_BUDGET_US = 50000.0
# The analysis gate catches a 2x regression: measured figures may not
# exceed (or, for the speedup, fall below) the baseline by this factor.
ANALYSIS_REGRESSION_FACTOR = 2.0
# Absolute bound for analyze_us on unlike hardware (~50x the recorded
# figure), where the 2x wall-clock comparison is not meaningful.
ANALYSIS_ANALYZE_BUDGET_US = 2500.0


def check_synthesis(fresh, base):
    failures = []
    for key in ("reference_cost", "fast_cost", "greedy_cost"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(synthesis result changed)")

    for key in ("fast_candidates_evaluated", "fast_full_evals",
                "greedy_candidates_evaluated", "greedy_full_evals"):
        limit = base[key] * COUNTER_TOLERANCE + 1
        if fresh[key] > limit:
            failures.append(
                f"{key}: {fresh[key]} > {limit:.0f} "
                f"(baseline {base[key]} +10%): search effort regressed")

    if fresh["fast_wall_ms"] > SYNTHESIS_WALL_BUDGET_MS:
        failures.append(
            f"fast_wall_ms: {fresh['fast_wall_ms']:.3f} > budget "
            f"{SYNTHESIS_WALL_BUDGET_MS} ms")

    factor = ANALYSIS_REGRESSION_FACTOR
    cores = fresh.get("hardware_concurrency", 0)
    if cores == base["hardware_concurrency"]:
        limit = base["fast_best_wall_ms"] * factor
        if fresh["fast_best_wall_ms"] > limit:
            failures.append(
                f"fast_best_wall_ms: {fresh['fast_best_wall_ms']:.4f} > "
                f"{limit:.4f} (baseline {base['fast_best_wall_ms']:.4f} x "
                f"{factor:g} on {cores} cores)")
    else:
        print(f"note: {cores} core(s) != baseline "
              f"{base['hardware_concurrency']} — 2x wall bound not "
              "enforced (costs, effort counters and the absolute budget "
              "still checked)")

    for label, data in (("fresh:   ", fresh), ("baseline:", base)):
        print(f"{label} cores={data['hardware_concurrency']} "
              f"cost={data['fast_cost']} "
              f"candidates={data['fast_candidates_evaluated']} "
              f"full_evals={data['fast_full_evals']} "
              f"wall={data['fast_wall_ms']:.3f}ms "
              f"best={data['fast_best_wall_ms']:.4f}ms "
              f"speedup={data['speedup']:.0f}x "
              f"greedy cost={data['greedy_cost']} "
              f"candidates={data['greedy_candidates_evaluated']}")
    return failures


def check_longrun(fresh, base):
    failures = []
    for key, series in (("identical", "sparse"), ("dense_identical",
                                                  "dense 3TS")):
        if fresh[key] != 1:
            failures.append(
                f"{key}: the simulation loop and the every-tick oracle "
                f"DIVERGED on the {series} series")

    # Both sides are seeded and deterministic: the activation count and
    # the skipped-instant count must match the baseline exactly.
    for key in ("horizon_ticks", "events", "ticks_skipped",
                "dense_horizon_ticks", "dense_events",
                "dense_ticks_skipped"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(activation schedule changed)")

    if fresh["speedup"] < LONGRUN_SPEEDUP_FLOOR:
        failures.append(
            f"speedup: {fresh['speedup']:.1f}x < floor "
            f"{LONGRUN_SPEEDUP_FLOOR}x (baseline {base['speedup']:.1f}x): "
            "the loop lost its sparse-workload advantage")

    if fresh["wall_ms"] > LONGRUN_WALL_BUDGET_MS:
        failures.append(
            f"wall_ms: {fresh['wall_ms']:.3f} > budget "
            f"{LONGRUN_WALL_BUDGET_MS} ms")

    factor = ANALYSIS_REGRESSION_FACTOR
    cores = fresh.get("hardware_concurrency", 0)
    if cores == base["hardware_concurrency"]:
        for key in ("wall_ms", "dense_wall_ms"):
            limit = base[key] * factor
            if fresh[key] > limit:
                failures.append(
                    f"{key}: {fresh[key]:.3f} > {limit:.3f} (baseline "
                    f"{base[key]:.3f} x {factor:g} on {cores} cores)")
    else:
        print(f"note: {cores} core(s) != baseline "
              f"{base['hardware_concurrency']} — 2x wall bounds not "
              "enforced (identity, counts and the absolute budget still "
              "checked)")

    for label, data in (("fresh:   ", fresh), ("baseline:", base)):
        print(f"{label} sparse: identical={data['identical']} "
              f"events={data['events']} "
              f"loop={data['wall_ms']:.3f}ms "
              f"oracle={data['oracle_wall_ms']:.3f}ms "
              f"speedup={data['speedup']:.1f}x")
        print(f"{label} dense 3TS: identical={data['dense_identical']} "
              f"events={data['dense_events']} "
              f"loop={data['dense_wall_ms']:.3f}ms "
              f"oracle={data['dense_oracle_wall_ms']:.3f}ms "
              f"loop/oracle={data['dense_oracle_ratio']:.2f}x")
    return failures


def check_update(fresh, base):
    failures = []
    if fresh["identical"] != 1:
        failures.append(
            "identical: the updated run DIVERGED when replayed — the "
            "hot-swap is not deterministic")
    if fresh["committed"] != 1:
        failures.append(
            "committed: the live update no longer commits (rejected or "
            "rolled back)")

    # The transaction schedule is deterministic: the swap count and the
    # propose-to-install lag (in instants) must match exactly.
    for key in ("spec_swaps", "install_latency_instants"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(update transaction schedule changed)")

    limit = base["resynth_candidates"] * COUNTER_TOLERANCE + 1
    if fresh["resynth_candidates"] > limit:
        failures.append(
            f"resynth_candidates: {fresh['resynth_candidates']} > "
            f"{limit:.0f} (baseline {base['resynth_candidates']} +10%): "
            "pinned re-synthesis search effort regressed")

    for key in ("refine_wall_ms", "resynth_wall_ms"):
        if fresh[key] > UPDATE_WALL_BUDGET_MS:
            failures.append(
                f"{key}: {fresh[key]:.3f} > budget "
                f"{UPDATE_WALL_BUDGET_MS} ms")

    print(f"fresh:    identical={fresh['identical']} "
          f"swaps={fresh['spec_swaps']} "
          f"install_latency={fresh['install_latency_instants']} "
          f"refine={fresh['refine_wall_ms']:.3f}ms "
          f"resynth={fresh['resynth_wall_ms']:.3f}ms "
          f"candidates={fresh['resynth_candidates']}")
    print(f"baseline: identical={base['identical']} "
          f"swaps={base['spec_swaps']} "
          f"install_latency={base['install_latency_instants']} "
          f"resynth={base['resynth_wall_ms']:.3f}ms "
          f"candidates={base['resynth_candidates']}")
    return failures


def check_lint(fresh, base):
    failures = []
    if fresh["identical"] != 1:
        failures.append(
            "identical: linting the same sources twice rendered "
            "DIFFERENT SARIF — the diagnostics are nondeterministic")
    if fresh["errors"] != 0:
        failures.append(
            f"errors: {fresh['errors']} != 0: a shipped example no longer "
            "lints clean")

    # The analyzer is deterministic over a fixed corpus: the diagnostic
    # yield, the product supergraph size, and the fixpoint effort must
    # match the baseline exactly. Any drift is a rule or engine change
    # that must be re-baselined deliberately.
    for key in ("files", "warnings", "notes", "product_nodes",
                "fixpoint_iterations"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(analyzer behavior changed)")

    if fresh["lint_wall_ms"] > LINT_WALL_BUDGET_MS:
        failures.append(
            f"lint_wall_ms: {fresh['lint_wall_ms']:.3f} > budget "
            f"{LINT_WALL_BUDGET_MS} ms")

    print(f"fresh:    files={fresh['files']} errors={fresh['errors']} "
          f"warnings={fresh['warnings']} notes={fresh['notes']} "
          f"nodes={fresh['product_nodes']} "
          f"iters={fresh['fixpoint_iterations']} "
          f"identical={fresh['identical']} "
          f"wall={fresh['lint_wall_ms']:.3f}ms")
    print(f"baseline: files={base['files']} errors={base['errors']} "
          f"warnings={base['warnings']} notes={base['notes']} "
          f"nodes={base['product_nodes']} "
          f"iters={base['fixpoint_iterations']} "
          f"wall={base['lint_wall_ms']:.3f}ms")
    return failures


def check_service(fresh, base):
    failures = []
    if fresh["identical"] != 1:
        failures.append(
            "identical: the 1-worker and 8-worker servers answered the "
            "same request log with DIFFERENT bytes — dispatch broke "
            "response determinism")

    if fresh["tasks"] != base["tasks"]:
        failures.append(
            f"tasks: {fresh['tasks']} != baseline {base['tasks']} "
            "(workload changed; re-baseline deliberately)")

    if fresh["hit_speedup"] < SERVICE_HIT_SPEEDUP_FLOOR:
        failures.append(
            f"hit_speedup: {fresh['hit_speedup']:.1f}x < floor "
            f"{SERVICE_HIT_SPEEDUP_FLOOR}x (baseline "
            f"{base['hit_speedup']:.1f}x): the delta analyze path lost "
            "its incremental advantage")

    if fresh["hit_us"] > SERVICE_HIT_BUDGET_US:
        failures.append(
            f"hit_us: {fresh['hit_us']:.1f} > budget "
            f"{SERVICE_HIT_BUDGET_US} us (baseline "
            f"{base['hit_us']:.1f} us)")

    factor = ANALYSIS_REGRESSION_FACTOR
    cores = fresh.get("hardware_concurrency", 0)
    if cores == base.get("hardware_concurrency"):
        for key in ("cold_us", "cold_parse_us"):
            limit = base[key] * factor
            if fresh[key] > limit:
                failures.append(
                    f"{key}: {fresh[key]:.1f} > {limit:.1f} (baseline "
                    f"{base[key]:.1f} x {factor:g} on {cores} cores)")
    else:
        print(f"note: {cores} core(s) != baseline "
              f"{base.get('hardware_concurrency')} — 2x cold-path bounds "
              "not enforced (absolute budget still checked)")
        if fresh["cold_us"] > SERVICE_COLD_BUDGET_US:
            failures.append(
                f"cold_us: {fresh['cold_us']:.0f} > budget "
                f"{SERVICE_COLD_BUDGET_US:.0f} us")
    for label, data in (("fresh:   ", fresh), ("baseline:", base)):
        print(f"{label} cold layers: parse={data['cold_parse_us']:.0f}us "
              f"({data['parse_mb_s']:.0f} MB/s) "
              f"decode={data['cold_decode_us']:.0f}us "
              f"fingerprint={data['cold_fingerprint_us']:.0f}us "
              f"build={data['cold_build_us']:.0f}us "
              f"analyze={data['cold_analyze_us']:.0f}us "
              f"serialize={data['cold_serialize_us']:.0f}us")

    print(f"fresh:    identical={fresh['identical']} "
          f"tasks={fresh['tasks']} "
          f"cold={fresh['cold_us']:.0f}us hit={fresh['hit_us']:.1f}us "
          f"speedup={fresh['hit_speedup']:.0f}x "
          f"throughput={fresh['throughput_rps']:.0f}rps "
          f"p99={fresh['p99_us']:.0f}us")
    print(f"baseline: identical={base['identical']} "
          f"tasks={base['tasks']} "
          f"cold={base['cold_us']:.0f}us hit={base['hit_us']:.1f}us "
          f"speedup={base['hit_speedup']:.0f}x "
          f"throughput={base['throughput_rps']:.0f}rps "
          f"p99={base['p99_us']:.0f}us")
    return failures


def check_analysis(fresh, base):
    failures = []
    for key in ("tasks", "communicators", "mutations",
                "incremental_comm_updates"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(workload or dirty-cone effort changed)")

    factor = ANALYSIS_REGRESSION_FACTOR
    floor = base["speedup"] / factor
    if fresh["speedup"] < floor:
        failures.append(
            f"speedup: {fresh['speedup']:.0f}x < {floor:.0f}x (baseline "
            f"{base['speedup']:.0f}x / {factor:g}): the incremental path "
            "regressed relative to a full rebuild")

    cores = fresh.get("hardware_concurrency", 0)
    if cores == base["hardware_concurrency"]:
        for key in ("analyze_us", "incremental_ms_per_mutation"):
            limit = base[key] * factor
            if fresh[key] > limit:
                failures.append(
                    f"{key}: {fresh[key]:.6g} > {limit:.6g} (baseline "
                    f"{base[key]:.6g} x {factor:g} on {cores} cores)")
    else:
        print(f"note: {cores} core(s) != baseline "
              f"{base['hardware_concurrency']} — 2x wall-clock bounds not "
              "enforced (speedup floor and absolute budget still checked)")
        if fresh["analyze_us"] > ANALYSIS_ANALYZE_BUDGET_US:
            failures.append(
                f"analyze_us: {fresh['analyze_us']:.1f} > budget "
                f"{ANALYSIS_ANALYZE_BUDGET_US} us")

    for label, data in (("fresh:   ", fresh), ("baseline:", base)):
        print(f"{label} cores={data['hardware_concurrency']} "
              f"analyze={data['analyze_us']:.1f}us "
              f"incremental={data['incremental_ms_per_mutation'] * 1e6:.0f}ns "
              f"full={data['full_rebuild_ms_per_mutation'] * 1e3:.1f}us "
              f"speedup={data['speedup']:.0f}x "
              f"comm_updates={data['incremental_comm_updates']}")
    return failures


RULES = {
    "analysis": check_analysis,
    "synthesis": check_synthesis,
    "service": check_service,
    "longrun": check_longrun,
    "update": check_update,
    "lint": check_lint,
}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        fresh = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)

    fresh_bench = fresh.get("benchmark", "")
    base_bench = base.get("benchmark", "")
    if fresh_bench != base_bench:
        print(f"REGRESSION: benchmark mismatch: fresh '{fresh_bench}' vs "
              f"baseline '{base_bench}'", file=sys.stderr)
        return 1

    checker = next((fn for prefix, fn in RULES.items()
                    if fresh_bench.startswith(prefix)), None)
    if checker is None:
        print(f"REGRESSION: no gate rules for benchmark '{fresh_bench}'",
              file=sys.stderr)
        return 1

    failures = checker(fresh, base)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"bench baseline gate ({fresh_bench}): OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

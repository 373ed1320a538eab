#!/usr/bin/env python3
"""Validates a bench_json report's obs metrics, with optional regression
gating against a previous report.

Usage: check_bench_metrics.py REPORT.json [--baseline PREV.json]
                                          [--max-regress FRACTION]

Fails (exit 1) unless the report parses as JSON and every instance carries
a non-empty `metrics` block: positive `total_work` and a span tree with at
least one child under the root.

When the report carries a `sat_ab` block per instance and a `totals.sat`
block (schema v7+), every non-skipped instance must hold a proven optimum
that cross-checks against the independent exact evaluator, with no
heuristic reporting a cost below it; the totals must show zero mismatches
and `proved == checked`.

When the report carries `kernel_ab` blocks and a `totals.kernel` block
(schema v8+), the Wide and Scalar kernel-backend legs must be bit-identical
(`matches` per instance, `mismatches == 0` in totals), every leg must
report a positive `work` alongside its `wall_ms`, and the aggregate
`speedup_per_work` must be at least 1.0 — the wide backend may never be
slower per unit work than the scalar baseline. The speedup gate only
applies when the aggregate scalar leg is large enough to measure
(KERNEL_MIN_WALL_MS); smoke-sized aggregates gate on bit-identity alone.

When the report carries a top-level `stream` block (schema v9+, the
huge-tier streaming-store A/B), its invariants must hold: zero record
mismatches across the memoryless/cold/warm legs, warm store hit rate at
least 0.9, and peak live instances within the pipeline's configured bound.
The warm-over-cold speedup must be at least 5x, but only when the cold leg
is large enough to measure (STREAM_MIN_WALL_MS) — smoke-sized runs gate on
the invariants alone. A stream-only report (`--tier huge`) legitimately
has an empty `instances` list; the stream block is then required.

With `--baseline`, every (instance, encoder) pair present in both reports
is compared on `work` — the deterministic obs counter total, immune to
machine noise unlike wall time. The check fails if any pair's work grew by
more than `--max-regress` (default 0.20, i.e. +20%); the summary also
counts the pairs whose work is identical. Zero overlapping pairs is a
warning, not a failure (e.g. comparing different tiers). Every (instance,
encoder) optimality gap (`sat_ab.gaps[].gap`) present in both reports, on
an instance neither report skipped, must additionally not grow at all —
the corpus and the optima are deterministic, so any growth is a real
heuristic regression. The gaps are compared per instance, never as totals:
a report over fewer instances always sums to a smaller total.
"""

import json
import sys


def parse_args(argv):
    report = None
    baseline = None
    max_regress = 0.20
    it = iter(argv)
    for arg in it:
        if arg == "--baseline":
            baseline = next(it, None)
            if baseline is None:
                raise ValueError("--baseline needs a file")
        elif arg == "--max-regress":
            val = next(it, None)
            if val is None:
                raise ValueError("--max-regress needs a fraction")
            max_regress = float(val)
        elif report is None:
            report = arg
        else:
            raise ValueError(f"unexpected argument {arg!r}")
    if report is None:
        raise ValueError("missing REPORT.json")
    return report, baseline, max_regress


def check_metrics(instances):
    for inst in instances:
        name = inst.get("name", "?")
        metrics = inst.get("metrics")
        if not isinstance(metrics, dict):
            return f"{name}: missing metrics block"
        if metrics.get("total_work", 0) <= 0:
            return f"{name}: total_work is zero"
        spans = metrics.get("spans", {})
        if not spans.get("children"):
            return f"{name}: empty span tree"
    return None


def check_sat(report):
    """Schema v7 gate: inside the oracle's size guard the optimum must be
    proved and cross-checked, and every heuristic must sit at or above it."""
    instances = report.get("instances", [])
    seen = False
    for inst in instances:
        name = inst.get("name", "?")
        ab = inst.get("sat_ab")
        if ab is None:
            continue
        seen = True
        if ab.get("skipped"):
            continue
        if not ab.get("proved"):
            return f"{name}: sat_ab optimum was not proved (UNSAT step missing)"
        if not ab.get("oracle_matches_exact"):
            return (f"{name}: sat witness cost disagrees with the exact "
                    f"evaluator — the CNF compiler and Table I diverge")
        optimum = ab.get("optimum", 0)
        for g in ab.get("gaps", []):
            if g.get("gap", -1) < 0 or g.get("exact_cost", 0) < optimum:
                return (f"{name}: encoder {g.get('name')} reports cost "
                        f"{g.get('exact_cost')} below the proven optimum "
                        f"{optimum}")
        if not ab.get("matches"):
            return f"{name}: sat_ab mismatch"
    if not seen:
        return None
    totals = report.get("totals", {}).get("sat")
    if not isinstance(totals, dict):
        return "sat_ab instances present but no totals.sat block"
    if totals.get("mismatches", 1) != 0:
        return f"totals.sat reports {totals.get('mismatches')} mismatches"
    if totals.get("proved") != totals.get("checked"):
        return (f"totals.sat proved {totals.get('proved')} != checked "
                f"{totals.get('checked')} — some optimum is unproven")
    return None


# Below this much aggregate scalar-leg wall time the kernel A/B speedup is
# scheduler noise, not signal: a smoke run's handful of two-word instances
# totals a few milliseconds and jitters ±2% either side of parity.
# Large-tier runs (>100 ms per leg, e.g. BENCH_pr9.json) are what the
# speedup gate is for; bit-identity (mismatches == 0) is gated always.
KERNEL_MIN_WALL_MS = 25.0


def check_kernel(report):
    """Schema v8 gate: the Wide and Scalar kernel backends must be
    bit-identical on every instance (cost and work), every leg must have
    done measurable work, and in aggregate the
    Wide backend's wall-per-work must not regress below Scalar's. The gate
    is on the totals, not per instance: tiny instances sit at parity (a
    couple of one/two-word minimize calls have nothing to vectorize) and
    their sub-millisecond legs are scheduler noise. The speedup check only
    applies when the aggregate is large enough to be signal (see
    KERNEL_MIN_WALL_MS)."""
    instances = report.get("instances", [])
    if not any(inst.get("kernel_ab") for inst in instances):
        return None
    for inst in instances:
        name = inst.get("name", "?")
        ab = inst.get("kernel_ab")
        if ab is None:
            continue
        if not ab.get("matches"):
            return f"{name}: kernel_ab legs disagree (wide vs scalar)"
        legs = ab.get("legs")
        if not legs:
            return f"{name}: kernel_ab block has no legs"
        for leg in legs:
            if leg.get("work", 0) <= 0:
                return f"{name}: kernel_ab leg {leg.get('engine')} has no work"
            if "wall_ms" not in leg:
                return f"{name}: kernel_ab leg {leg.get('engine')} missing wall_ms"
    totals = report.get("totals", {}).get("kernel")
    if not isinstance(totals, dict):
        return "kernel_ab instances present but no totals.kernel block"
    if totals.get("mismatches", 1) != 0:
        return f"totals.kernel reports {totals.get('mismatches')} mismatches"
    if totals.get("scalar_uncached_wall_ms", 0.0) < KERNEL_MIN_WALL_MS:
        return None
    speedup = totals.get("speedup_per_work", 0.0)
    if speedup < 1.0:
        return (f"totals.kernel.speedup_per_work {speedup:.3f} < 1.00 — the "
                f"wide kernel backend is slower per unit work than scalar")
    return None


# Below this much cold-leg wall time the stream A/B speedup is I/O and
# scheduler noise: a smoke-sized huge-tier run finishes both legs in a few
# milliseconds. Full-sized runs are what the 5x gate is for; the
# structural invariants (mismatches, hit rate, peak-live bound) are gated
# always.
STREAM_MIN_WALL_MS = 50.0


def check_stream(report):
    """Schema v9 gate: the huge-tier streaming-store A/B. The store must
    never change a record, must actually answer the warm leg, and the
    pipeline's bounded-memory tripwire must hold."""
    stream = report.get("stream")
    if stream is None:
        return None
    if stream.get("mismatches", 1) != 0:
        return (f"stream reports {stream.get('mismatches')} record mismatches "
                f"across the memoryless/cold/warm legs")
    rate = stream.get("hit_rate", 0.0)
    if rate < 0.9:
        return (f"stream.hit_rate {rate:.3f} < 0.90 — the result store is "
                f"not answering the warm leg")
    peak = stream.get("peak_live", 1 << 60)
    bound = stream.get("live_bound", 0)
    if peak > bound:
        return (f"stream.peak_live {peak} exceeds live_bound {bound} — the "
                f"pipeline is not bounded-memory")
    legs = {leg.get("name"): leg for leg in stream.get("legs", [])}
    for name in ("memoryless", "cold", "warm"):
        if name not in legs:
            return f"stream block is missing the {name} leg"
    cold_wall = legs["cold"].get("wall_ms", 0.0)
    if cold_wall < STREAM_MIN_WALL_MS:
        return None
    speedup = stream.get("speedup", 0.0)
    if speedup < 5.0:
        return (f"stream.speedup {speedup:.2f} < 5.00 — a warm store run is "
                f"not paying for itself")
    return None


def sat_gap_map(report):
    out = {}
    for inst in report.get("instances", []):
        ab = inst.get("sat_ab") or {}
        if ab.get("skipped", True):
            continue
        for g in ab.get("gaps", []):
            out[(inst.get("name", "?"), g.get("name", "?"))] = g.get("gap", 0)
    return out


def work_map(report):
    out = {}
    for inst in report.get("instances", []):
        for enc in inst.get("encoders", []):
            out[(inst.get("name", "?"), enc.get("name", "?"))] = enc.get("work", 0)
    return out


def check_baseline(report, baseline_path, max_regress):
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    old = work_map(baseline)
    new = work_map(report)
    counts = {"work": 0, "identical": 0, "gaps": 0}
    for key, old_work in sorted(old.items()):
        if key not in new:
            continue
        counts["work"] += 1
        counts["identical"] += new[key] == old_work
        if old_work <= 0:
            continue
        limit = old_work * (1.0 + max_regress)
        if new[key] > limit:
            inst, enc = key
            return (
                f"{inst}/{enc}: work regressed {old_work} -> {new[key]} "
                f"(limit {limit:.0f}, +{max_regress:.0%})",
                counts,
            )
    # Optimality gaps are deterministic (fixed corpus, proven optima), so
    # any growth at all is a genuine heuristic regression — no tolerance.
    old_gaps = sat_gap_map(baseline)
    new_gaps = sat_gap_map(report)
    for key, old_gap in sorted(old_gaps.items()):
        if key not in new_gaps:
            continue
        counts["gaps"] += 1
        if new_gaps[key] > old_gap:
            inst, enc = key
            return (
                f"{inst}/{enc}: optimality gap regressed {old_gap} -> "
                f"{new_gaps[key]} vs baseline's proven optimum",
                counts,
            )
    return None, counts


def main() -> int:
    try:
        report_path, baseline_path, max_regress = parse_args(sys.argv[1:])
    except ValueError as e:
        print(f"usage: check_bench_metrics.py REPORT.json [--baseline PREV.json]"
              f" [--max-regress FRACTION] ({e})", file=sys.stderr)
        return 2
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)

    instances = report.get("instances", [])
    if not instances and report.get("stream") is None:
        print("check_bench_metrics: no instances in report", file=sys.stderr)
        return 1

    err = check_metrics(instances)
    if err:
        print(f"check_bench_metrics: {err}", file=sys.stderr)
        return 1
    for check in (check_sat, check_kernel, check_stream):
        err = check(report)
        if err:
            print(f"check_bench_metrics: {err}", file=sys.stderr)
            return 1

    counts = None
    if baseline_path is not None:
        err, counts = check_baseline(report, baseline_path, max_regress)
        if err:
            print(f"check_bench_metrics: {err}", file=sys.stderr)
            return 1
        if counts["work"] == 0:
            print("check_bench_metrics: warning: no overlapping "
                  "(instance, encoder) pairs with the baseline", file=sys.stderr)

    msg = (f"check_bench_metrics: OK ({len(instances)} instances, "
           f"work {[i['metrics']['total_work'] for i in instances]}")
    sat = report.get("totals", {}).get("sat")
    if sat:
        msg += (f", sat proved {sat.get('proved', 0)}/{sat.get('checked', 0)}"
                f" optima (total {sat.get('total_optimum', 0)})")
    kern = report.get("totals", {}).get("kernel")
    if kern:
        msg += f", kernel wide {kern.get('speedup_per_work', 0):.2f}x scalar"
    stream = report.get("stream")
    if stream:
        msg += (f", stream warm {stream.get('speedup', 0):.2f}x cold"
                f" @ {stream.get('hit_rate', 0):.0%} hits"
                f" (peak live {stream.get('peak_live', 0)}"
                f"/{stream.get('live_bound', 0)})")
    if counts is not None:
        msg += (f", {counts['work']} baseline work pairs within "
                f"+{max_regress:.0%} ({counts['identical']} identical)"
                f", {counts['gaps']} gaps no worse")
    print(msg + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())

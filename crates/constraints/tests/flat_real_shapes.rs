//! The flat multi-valued ESPRESSO engine against the legacy `Vec<Cube>`
//! oracle on real symbolic covers — the covers constraint extraction
//! minimizes for every daemon job.
//!
//! `prop_flat_cover`'s random multi-valued covers are small: their
//! off-sets hold tens of cubes. Symbolic covers of Table I-shaped
//! machines are the opposite: a present-state variable of
//! up to 48 parts, a next-state/output variable of up to 67, off-sets of
//! hundreds of cubes, and at `planet`/`s510` a 3-word stride (the Wide
//! backend's padded 4-word rung). This suite generates one machine per
//! Table I shape with the daemon benchmark's generator spec (6–48 states,
//! the suite's row and tested-bit limits) and requires the two engines to
//! agree on the cover, the completion and the rendered trace.
//!
//! Both engines are slow unoptimized, so debug builds cap every shape at
//! ten states (about 8 s on a 2-core x86_64 host); release builds run
//! the full shapes (about 4 s), and only they reach the 3-word stride —
//! the `legacy-oracle` CI job runs this suite in release under both
//! oracle orders.
//!
//! `PICOLA_ORACLE_ORDER=flat-first` runs the flat engine before the legacy
//! one (the default is legacy first), as in the other oracle suites.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_fsm::{generate_fsm, symbolic_cover, FsmSpec, SymbolicCover, BENCHMARKS};
use picola_logic::{
    espresso_bounded, flat_espresso_bounded, flat_espresso_with, Budget, MinimizeOptions,
    MinimizeScratch, Trace,
};

/// State cap applied to every shape in debug builds (release: the suite's
/// own state count).
const DEBUG_MAX_STATES: usize = 10;

/// One generated machine per Table I shape the daemon benchmark sends
/// (6–48 states), built with its spec: the suite's states, inputs,
/// outputs, row cap and tested-bit limit, and a per-shape seed.
fn table1_covers() -> Vec<(&'static str, SymbolicCover)> {
    BENCHMARKS
        .iter()
        .filter(|b| (6..=48).contains(&b.states))
        .enumerate()
        .map(|(i, info)| {
            let states = if cfg!(debug_assertions) {
                info.states.min(DEBUG_MAX_STATES)
            } else {
                info.states
            };
            let mut spec = FsmSpec::new(info.name, states, info.inputs, info.outputs);
            spec.max_rows = info.rows;
            spec.max_tested_bits = info.tested_bits;
            spec.seed = 0x5eed_0000 + i as u64;
            (info.name, symbolic_cover(&generate_fsm(&spec)))
        })
        .collect()
}

#[test]
fn flat_matches_legacy_on_table1_symbolic_covers() {
    let flat_first = std::env::var("PICOLA_ORACLE_ORDER").is_ok_and(|v| v == "flat-first");
    let opts = MinimizeOptions::default();
    let covers = table1_covers();
    assert_eq!(covers.len(), 31, "every Table I shape of 6-48 states");
    let mut scratch = MinimizeScratch::new();
    let mut strides = Vec::new();
    for (name, sc) in &covers {
        let run_legacy = || {
            let trace = Trace::new();
            let budget = Budget::unlimited().with_recorder(trace.recorder());
            let (f, c) = espresso_bounded(&sc.on, &sc.dc, &opts, &budget);
            (f, c, trace.render())
        };
        // One scratch across every shape, as a daemon worker keeps it.
        let mut run_flat = || {
            let trace = Trace::new();
            let budget = Budget::unlimited().with_recorder(trace.recorder());
            let (f, c) = flat_espresso_bounded(&sc.on, &sc.dc, &opts, &budget, &mut scratch);
            (f, c, trace.render())
        };
        let ((lf, lc, lt), (ff, fc, ft)) = if flat_first {
            let flat = run_flat();
            (run_legacy(), flat)
        } else {
            let legacy = run_legacy();
            (legacy, run_flat())
        };
        assert_eq!(lf, ff, "{name}: covers diverge");
        assert_eq!(lc, fc, "{name}: completions diverge");
        assert_eq!(lt, ft, "{name}: traces diverge");
        // The entry point extraction calls returns the same cover.
        assert_eq!(flat_espresso_with(&sc.on, &sc.dc, &opts), lf, "{name}");
        strides.push((*name, sc.domain.words()));
    }
    if cfg!(debug_assertions) {
        return;
    }
    for name in ["planet", "s510"] {
        assert!(
            strides.contains(&(name, 3)),
            "{name} must exercise the 3-word stride: {strides:?}"
        );
    }
}

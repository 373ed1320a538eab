//! Profiling driver for the flat engine's kernel backends: loops the
//! `kernel_ab` workload (the large-tier symbol×tag MV cover) under one
//! pinned backend long enough for a sampling profiler to see it.
//!
//! ```text
//! PICOLA_SIMD=scalar gprofng collect app -o /tmp/scalar.er \
//!     target/release/examples/kernel_profile [instance-index] [iters]
//! ```

use std::time::Instant;

use picola_bench::{corpus_tier, Tier};
use picola_logic::MinimizeCache;

fn main() {
    let mut args = std::env::args().skip(1);
    let index: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let insts = corpus_tier(index + 1, 0x0001_C01A, Tier::Large);
    let inst = &insts[index];
    let (on, dc) = inst.mv_cover();
    let dom = on.domain();
    eprintln!(
        "{}: n={} tags={} words={} cubes={} backend={:?}",
        inst.name,
        inst.n,
        inst.constraints.len(),
        dom.words(),
        on.len(),
        picola_logic::selected_backend(),
    );
    let mut cache = MinimizeCache::new();
    let mut cost = 0usize;
    let t = Instant::now();
    for _ in 0..iters {
        cost += cache.minimized_cube_count_uncached(&on, &dc, picola_logic::CoverEngine::Flat);
    }
    let wall = t.elapsed();
    eprintln!(
        "iters={iters} cost={cost} wall={:?} per-iter={:?}",
        wall,
        wall / iters as u32
    );
}

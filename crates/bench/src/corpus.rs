//! A deterministic synthetic instance corpus.
//!
//! The JSON bench (`bench_json`) and the differential test layer
//! (`tests/differential_encoders.rs`) iterate the same generated instances:
//! everything is a pure function of the master seed, so a bench number and
//! a test failure always refer to the same constraint set.

use picola_baselines::splitmix64;
use picola_constraints::{min_code_length, GroupConstraint, SymbolSet};
use picola_logic::{Cover, Cube, DomainBuilder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which instance generator a corpus draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// 5–20 symbols, a handful of small constraints — cheap enough for the
    /// differential test layer and the smoke bench.
    #[default]
    Standard,
    /// 24–128 symbols, dense rival constraints (biased toward a shared hot
    /// pool so faces fight over the same subcubes), and an occasional spare
    /// code bit via `nv_override` — sized so refine throughput dominates.
    Large,
    /// 6–16 symbols, a few small constraints — individually tiny, but
    /// drawn by the thousands through [`generate_iter`] and processed as a
    /// stream (never materialized as a `Vec`). The scale tier behind the
    /// `stream_ab` bench leg and the content-addressed result store.
    Huge,
}

impl Tier {
    /// The tier's name as used by `bench_json --tier`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Standard => "standard",
            Tier::Large => "large",
            Tier::Huge => "huge",
        }
    }
}

/// One synthetic face-constrained encoding instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Stable name (`gen-NN` / `large-NN`), used in bench output and test
    /// messages.
    pub name: String,
    /// Number of symbols to encode.
    pub n: usize,
    /// The face constraints.
    pub constraints: Vec<GroupConstraint>,
    /// The per-instance seed the generator used (for reproducing one
    /// instance in isolation).
    pub seed: u64,
    /// Encode with this many bits instead of `ceil(log2 n)` (large-tier
    /// instances occasionally grant one spare bit; `None` elsewhere).
    pub nv_override: Option<usize>,
}

impl Instance {
    /// Renders the constraint set as a genuinely multi-valued cover (the
    /// `kernel_ab` bench workload): one MV variable over the `n` symbols,
    /// one over the constraint tags, and one cube per constraint whose
    /// symbol literal is the member set and whose tag literal is that
    /// constraint's index. On the large tier this spans several cube words
    /// (128 symbol parts alone is two words), so minimizing it exercises
    /// the flat engine's multi-word kernels. Returns `(on, dc)`; the
    /// don't-care cover is empty.
    #[must_use]
    pub fn mv_cover(&self) -> (Cover, Cover) {
        let tags = self.constraints.len().max(2);
        let dom = DomainBuilder::new()
            .multi("s", self.n.max(2))
            .multi("t", tags)
            .build();
        let sym_off = dom.var(0).offset();
        let mut on = Cover::empty(&dom);
        for (i, c) in self.constraints.iter().enumerate() {
            let mut cube = Cube::full(&dom);
            for p in 0..self.n.max(2) {
                if !c.members().contains(p) {
                    cube.clear_part(sym_off + p);
                }
            }
            cube.restrict(&dom, 1, i);
            on.push(cube);
        }
        (on, Cover::empty(&dom))
    }
}

/// Generate `count` standard-tier instances from `master_seed`.
///
/// Instance `i` depends only on `(master_seed, i)` — extending the corpus
/// never changes existing instances.
#[must_use]
pub fn corpus(count: usize, master_seed: u64) -> Vec<Instance> {
    corpus_tier(count, master_seed, Tier::Standard)
}

/// Generate `count` instances of the given [`Tier`] from `master_seed`.
///
/// Prefix-stability holds per tier: instance `i` of a tier depends only on
/// `(master_seed, i)`, and the standard tier is byte-identical to what
/// [`corpus`] always produced.
#[must_use]
pub fn corpus_tier(count: usize, master_seed: u64, tier: Tier) -> Vec<Instance> {
    generate_iter(count, master_seed, tier).collect()
}

/// Generate `count` instances of `tier` lazily — instance `i` is built
/// only when the iterator reaches it, so a million-instance corpus costs
/// one instance of memory at a time. This is the generator every tier
/// (and the streaming pipeline) draws from; [`corpus_tier`] is just
/// `generate_iter(..).collect()`, so the small tiers stay byte-identical
/// to what they always were.
///
/// Prefix-stability holds per tier: instance `i` depends only on
/// `(master_seed, i)`.
pub fn generate_iter(
    count: usize,
    master_seed: u64,
    tier: Tier,
) -> impl Iterator<Item = Instance> {
    (0..count).map(move |i| {
        let seed = splitmix64(master_seed.wrapping_add(i as u64 + 1));
        match tier {
            Tier::Standard => generate(i, seed),
            Tier::Large => generate_large(i, seed),
            Tier::Huge => generate_huge(i, seed),
        }
    })
}

fn generate(index: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    // 5..=20 symbols spans nv = 3..5 — big enough for the encoders to
    // disagree, small enough that fifty instances stay test-suite cheap.
    let n = rng.random_range(5..=20usize);
    let num_constraints = rng.random_range(2..=n / 2 + 2);
    let constraints = (0..num_constraints)
        .map(|_| {
            let size = rng.random_range(2..=4usize.min(n - 1));
            let mut members: Vec<usize> = Vec::with_capacity(size);
            while members.len() < size {
                let s = rng.random_range(0..n);
                if !members.contains(&s) {
                    members.push(s);
                }
            }
            GroupConstraint::new(SymbolSet::from_members(n, members))
        })
        .collect();
    Instance {
        name: format!("gen-{index:02}"),
        n,
        constraints,
        seed,
        nv_override: None,
    }
}

fn generate_large(index: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    // Mostly 24..=64 symbols (nv = 5..6), with a quarter of the instances
    // stretching to 128 (nv = 7) — the regime where the refine pass's
    // candidate count, not setup cost, dominates wall time.
    let n = if rng.random_bool(0.25) {
        rng.random_range(65..=128usize)
    } else {
        rng.random_range(24..=64usize)
    };
    // A hot pool of symbols that most constraints dip into: rival faces
    // that overlap fight over the same subcubes, so candidate moves touch
    // many constraints at once.
    let pool = n / 4;
    let num_constraints = rng.random_range(n / 4..=n / 2);
    let constraints = (0..num_constraints)
        .map(|_| {
            let size = rng.random_range(2..=6usize.min(n - 1));
            let mut members: Vec<usize> = Vec::with_capacity(size);
            while members.len() < size {
                let s = if rng.random_bool(0.5) {
                    rng.random_range(0..pool)
                } else {
                    rng.random_range(0..n)
                };
                if !members.contains(&s) {
                    members.push(s);
                }
            }
            GroupConstraint::new(SymbolSet::from_members(n, members))
        })
        .collect();
    // Half the instances get one spare code bit: free code words turn the
    // move arm of the refine enumeration on, which is exactly the path the
    // incremental engine accelerates hardest.
    let nv_override = if rng.random_bool(0.5) {
        Some(min_code_length(n) + 1)
    } else {
        None
    };
    Instance {
        name: format!("large-{index:02}"),
        n,
        constraints,
        seed,
        nv_override,
    }
}

fn generate_huge(index: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    // 6..=16 symbols, 2–5 small constraints: each instance minimizes in
    // well under a millisecond, so throughput — channel backpressure, the
    // store, the shared memo — is what the huge tier measures, not any
    // single solve. The n range deliberately overlaps the standard tier's
    // so the store and memo see genuine cross-instance collisions.
    let n = rng.random_range(6..=16usize);
    let num_constraints = rng.random_range(2..=5usize);
    let constraints = (0..num_constraints)
        .map(|_| {
            let size = rng.random_range(2..=4usize.min(n - 1));
            let mut members: Vec<usize> = Vec::with_capacity(size);
            while members.len() < size {
                let s = rng.random_range(0..n);
                if !members.contains(&s) {
                    members.push(s);
                }
            }
            GroupConstraint::new(SymbolSet::from_members(n, members))
        })
        .collect();
    Instance {
        name: format!("huge-{index:04}"),
        n,
        constraints,
        seed,
        nv_override: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_prefix_stable() {
        let a = corpus(10, 99);
        let b = corpus(10, 99);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.n, y.n);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.constraints.len(), y.constraints.len());
        }
        // A longer corpus starts with the same instances.
        let c = corpus(12, 99);
        assert_eq!(a[9].seed, c[9].seed);
        assert_eq!(a[9].n, c[9].n);
    }

    #[test]
    fn instances_are_well_formed() {
        for inst in corpus(20, 7) {
            assert!((5..=20).contains(&inst.n));
            assert!(!inst.constraints.is_empty());
            for c in &inst.constraints {
                let sz = c.len();
                assert!((2..=4).contains(&sz), "{}: constraint size {sz}", inst.name);
                assert!(sz < inst.n, "constraints must be proper subsets");
                assert!(c.members().iter().all(|s| s < inst.n));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = corpus(5, 1);
        let b = corpus(5, 2);
        assert!(a.iter().zip(&b).any(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn standard_tier_is_the_plain_corpus() {
        let a = corpus(6, 42);
        let b = corpus_tier(6, 42, Tier::Standard);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.n, y.n);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.nv_override, None);
            assert_eq!(y.nv_override, None);
        }
    }

    #[test]
    fn large_tier_is_well_formed_and_prefix_stable() {
        let a = corpus_tier(8, 7, Tier::Large);
        let b = corpus_tier(10, 7, Tier::Large);
        for (i, inst) in a.iter().enumerate() {
            assert_eq!(inst.name, format!("large-{i:02}"));
            assert!((24..=128).contains(&inst.n), "{}: n = {}", inst.name, inst.n);
            assert!(inst.constraints.len() >= inst.n / 4);
            for c in &inst.constraints {
                assert!((2..=6).contains(&c.len()));
                assert!(c.members().iter().all(|s| s < inst.n));
            }
            if let Some(nv) = inst.nv_override {
                assert_eq!(nv, min_code_length(inst.n) + 1, "{}", inst.name);
            }
            assert_eq!(inst.seed, b[i].seed);
            assert_eq!(inst.n, b[i].n);
        }
        // Both nv flavours appear over a small sample.
        let c = corpus_tier(16, 3, Tier::Large);
        assert!(c.iter().any(|i| i.nv_override.is_some()));
        assert!(c.iter().any(|i| i.nv_override.is_none()));
    }

    #[test]
    fn generate_iter_matches_collected_corpus_on_every_tier() {
        for tier in [Tier::Standard, Tier::Large, Tier::Huge] {
            let eager = corpus_tier(8, 0x5eed, tier);
            let lazy: Vec<Instance> = generate_iter(8, 0x5eed, tier).collect();
            assert_eq!(eager.len(), lazy.len());
            for (a, b) in eager.iter().zip(&lazy) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.n, b.n);
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.nv_override, b.nv_override);
                assert_eq!(a.constraints.len(), b.constraints.len());
                for (ca, cb) in a.constraints.iter().zip(&b.constraints) {
                    let ma: Vec<usize> = ca.members().iter().collect();
                    let mb: Vec<usize> = cb.members().iter().collect();
                    assert_eq!(ma, mb);
                }
            }
        }
    }

    #[test]
    fn huge_tier_is_well_formed_and_prefix_stable() {
        let a: Vec<Instance> = generate_iter(64, 9, Tier::Huge).collect();
        let b: Vec<Instance> = generate_iter(80, 9, Tier::Huge).collect();
        for (i, inst) in a.iter().enumerate() {
            assert_eq!(inst.name, format!("huge-{i:04}"));
            assert!((6..=16).contains(&inst.n), "{}: n = {}", inst.name, inst.n);
            assert!((2..=5).contains(&inst.constraints.len()));
            for c in &inst.constraints {
                assert!((2..=4).contains(&c.len()));
                assert!(c.members().iter().all(|s| s < inst.n));
            }
            assert_eq!(inst.nv_override, None);
            assert_eq!(inst.seed, b[i].seed);
            assert_eq!(inst.n, b[i].n);
        }
    }
}

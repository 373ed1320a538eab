//! An ENC-style baseline (Saldanha, Villa, Brayton,
//! Sangiovanni-Vincentelli, 1994): input encoding with **logic minimization
//! inside the evaluation loop**.
//!
//! ENC targets the same partial problem as PICOLA, but each candidate
//! encoding move is priced by actually minimizing the encoded constraint
//! functions — two-level minimization per constraint per move. That yields
//! good costs and crushing runtimes; the paper notes ENC "is not practical
//! for medium and large examples" and fails on `scf`. The evaluation budget
//! below makes that behaviour explicit and measurable.

use crate::objective::minimized_cubes;
use picola_constraints::min_code_length;
use picola_constraints::{Encoding, GroupConstraint};
use picola_core::{Budget, Completion, Encoder, EvalContext, EvalOptions};

/// Outcome details of an ENC-style run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncRunInfo {
    /// Full-cost evaluations performed (each prices every constraint
    /// through the minimization cache).
    pub evaluations: usize,
    /// Whether the run stopped because the budget was exhausted rather than
    /// because a local optimum was reached.
    pub budget_exhausted: bool,
    /// Final total cube count.
    pub total_cubes: usize,
    /// Minimization-cache hits across the run (0 when caching is off).
    pub cache_hits: u64,
    /// Minimization-cache misses (actual ESPRESSO runs) across the run.
    pub cache_misses: u64,
}

/// The ENC-style encoder.
#[derive(Debug, Clone)]
pub struct EncLikeEncoder {
    /// Maximum number of full-cost evaluations (minimization-in-the-loop
    /// calls). When exceeded the current best encoding is returned and the
    /// run is flagged as budget-exhausted.
    pub max_evaluations: usize,
    /// Evaluation pipeline knobs: minimizer, cover engine, and whether the
    /// per-run minimization cache is consulted. One [`EvalContext`] lives
    /// for the whole run, so probes that revisit a constraint function pay
    /// a hash lookup instead of an ESPRESSO pass.
    pub eval: EvalOptions,
}

impl Default for EncLikeEncoder {
    fn default() -> Self {
        EncLikeEncoder {
            max_evaluations: 4000,
            eval: EvalOptions::default(),
        }
    }
}

impl EncLikeEncoder {
    /// Runs the encoder and also reports how hard it had to work.
    pub fn encode_detailed(
        &self,
        n: usize,
        constraints: &[GroupConstraint],
    ) -> (Encoding, EncRunInfo) {
        self.encode_detailed_bounded(n, constraints, &Budget::unlimited())
    }

    /// [`EncLikeEncoder::encode_detailed`] under an external [`Budget`]:
    /// each full-cost evaluation pays one `enc.eval` tick (on top of the
    /// encoder's own `max_evaluations` cap), and exhaustion mid-search
    /// returns the best encoding seen so far.
    pub fn encode_detailed_bounded(
        &self,
        n: usize,
        constraints: &[GroupConstraint],
        budget: &Budget,
    ) -> (Encoding, EncRunInfo) {
        let mut ctx = EvalContext::new();
        self.encode_detailed_in_context(n, constraints, budget, &mut ctx)
    }

    /// [`EncLikeEncoder::encode_detailed_bounded`] pricing through a
    /// caller-supplied [`EvalContext`]. A context wired to a shared
    /// [`picola_core::GlobalMinimizeCache`] lets one run warm the next —
    /// the basis of the daemon's cross-request warmth — without changing
    /// any result (caching is bit-invisible; see
    /// `tests/differential_encoders.rs`).
    pub fn encode_detailed_in_context(
        &self,
        n: usize,
        constraints: &[GroupConstraint],
        budget: &Budget,
        ctx: &mut EvalContext,
    ) -> (Encoding, EncRunInfo) {
        let nv = min_code_length(n);
        let mut enc = Encoding::natural(n);
        let mut evals = 0usize;
        let mut exhausted = false;

        let cost = |e: &Encoding, evals: &mut usize, ctx: &mut EvalContext| -> usize {
            *evals += 1;
            minimized_cubes(e, constraints, &self.eval, ctx)
        };
        // The baseline evaluation always runs (a best-so-far cost must
        // exist), but it pays its tick so exhaustion latches before the
        // search loop starts.
        let start_exhausted = !budget.tick("enc.eval", 1);
        let mut best_cost = cost(&enc, &mut evals, ctx);
        if start_exhausted {
            exhausted = true;
        }

        // First-improvement local search over code swaps and moves to free
        // code words; every probe pays a full minimization.
        let size = 1usize << nv;
        'outer: while !exhausted {
            let mut improved = false;
            for i in 0..n {
                for j in (i + 1)..n {
                    if evals >= self.max_evaluations || !budget.tick("enc.eval", 1) {
                        exhausted = true;
                        break 'outer;
                    }
                    let mut codes = enc.codes().to_vec();
                    codes.swap(i, j);
                    let Ok(cand) = Encoding::new(nv, codes) else {
                        continue; // swaps permute codes: unreachable defensively
                    };
                    let c = cost(&cand, &mut evals, ctx);
                    if c < best_cost {
                        enc = cand;
                        best_cost = c;
                        improved = true;
                    }
                }
            }
            // moves to free codes (freeness rechecked against the current
            // encoding — accepted moves change it)
            for i in 0..n {
                for w in 0..size {
                    if enc.codes().contains(&(w as u32)) {
                        continue;
                    }
                    if evals >= self.max_evaluations || !budget.tick("enc.eval", 1) {
                        exhausted = true;
                        break 'outer;
                    }
                    let mut codes = enc.codes().to_vec();
                    codes[i] = w as u32;
                    let Ok(cand) = Encoding::new(nv, codes) else {
                        continue; // target checked free: unreachable defensively
                    };
                    let c = cost(&cand, &mut evals, ctx);
                    if c < best_cost {
                        enc = cand;
                        best_cost = c;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }

        (
            enc,
            EncRunInfo {
                evaluations: evals,
                budget_exhausted: exhausted,
                total_cubes: best_cost,
                cache_hits: ctx.cache.hits(),
                cache_misses: ctx.cache.misses(),
            },
        )
    }
}

impl Encoder for EncLikeEncoder {
    fn name(&self) -> &str {
        "enc"
    }

    fn encode(&self, n: usize, constraints: &[GroupConstraint]) -> Encoding {
        self.encode_detailed(n, constraints).0
    }

    fn encode_bounded(
        &self,
        n: usize,
        constraints: &[GroupConstraint],
        budget: &Budget,
    ) -> (Encoding, Completion) {
        let (enc, _) = self.encode_detailed_bounded(n, constraints, budget);
        (enc, budget.completion())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_constraints::SymbolSet;

    fn groups(n: usize, gs: &[&[usize]]) -> Vec<GroupConstraint> {
        gs.iter()
            .map(|g| GroupConstraint::new(SymbolSet::from_members(n, g.iter().copied())))
            .collect()
    }

    #[test]
    fn enc_improves_over_natural_codes() {
        // natural codes violate {0, 3}; a swap can satisfy it.
        let cs = groups(4, &[&[0, 3]]);
        let (enc, info) = EncLikeEncoder::default().encode_detailed(4, &cs);
        assert_eq!(info.total_cubes, 1);
        assert!(enc.satisfies(cs[0].members()));
        assert!(!info.budget_exhausted);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let cs = groups(8, &[&[0, 5], &[1, 6], &[2, 7], &[0, 1, 2, 3, 7]]);
        let tiny = EncLikeEncoder {
            max_evaluations: 5,
            ..EncLikeEncoder::default()
        };
        let (_, info) = tiny.encode_detailed(8, &cs);
        assert!(info.budget_exhausted);
        assert!(info.evaluations <= 5 + 1);
    }

    #[test]
    fn external_budget_caps_evaluations() {
        use picola_core::{Budget, Completion};
        let cs = groups(8, &[&[0, 5], &[1, 6], &[2, 7], &[0, 1, 2, 3, 7]]);
        let budget = Budget::with_work_limit(4);
        let (enc, info) = EncLikeEncoder::default().encode_detailed_bounded(8, &cs, &budget);
        assert_eq!(enc.num_symbols(), 8);
        assert!(info.budget_exhausted);
        assert!(info.evaluations <= 6);
        assert!(matches!(budget.completion(), Completion::Degraded { .. }));
    }

    #[test]
    fn injected_fault_stops_search_gracefully() {
        use picola_core::{chaos, Budget};
        let _guard = chaos::arm("enc.eval", 2);
        let cs = groups(4, &[&[0, 3]]);
        let budget = Budget::unlimited();
        let (enc, info) = EncLikeEncoder::default().encode_detailed_bounded(4, &cs, &budget);
        assert_eq!(enc.num_symbols(), 4);
        assert!(info.budget_exhausted);
    }

    #[test]
    fn evaluations_are_counted() {
        let cs = groups(4, &[&[0, 1]]);
        let (_, info) = EncLikeEncoder::default().encode_detailed(4, &cs);
        assert!(info.evaluations >= 1);
    }
}

//! Answer checks: every answer is validated as a code assignment and
//! re-priced with the legacy ESPRESSO oracle in this process.

use picola_constraints::{min_code_length, Encoding, GroupConstraint};
use picola_core::eval::{evaluate_encoding_cached, EvalContext, EvalMinimizer, EvalOptions};
use picola_logic::CoverEngine;
use picola_server::json::Object;
use std::collections::HashMap;

/// One encoding answer, as the daemon reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub n: usize,
    pub nv: usize,
    pub codes: Vec<u32>,
    pub cubes: usize,
    pub satisfied: usize,
    pub evaluated: usize,
}

impl Answer {
    /// Reads the result fields of a daemon response body.
    pub fn from_body(body: &Object) -> Option<Answer> {
        let num = |k: &str| body.get_u64(k).and_then(|v| usize::try_from(v).ok());
        let codes = body
            .get_str("codes")?
            .split(',')
            .map(|c| c.parse::<u32>().ok())
            .collect::<Option<Vec<u32>>>()?;
        Some(Answer {
            n: num("n")?,
            nv: num("nv")?,
            codes,
            cubes: num("cubes")?,
            satisfied: num("satisfied")?,
            evaluated: num("evaluated")?,
        })
    }
}

/// Re-prices answers with the legacy oracle. The oracle is a pure
/// function of (constraints, codes), so its verdict is kept per
/// (item, codes) and a repeated identical answer is compared against the
/// same re-pricing without running it again.
#[derive(Default)]
pub struct Checker {
    repriced: HashMap<(usize, Vec<u32>), (usize, usize, usize)>,
}

impl Checker {
    /// Checks `answer` for the job `item` with `n` symbols and
    /// `constraints`; the error names the first violated property.
    pub fn check(
        &mut self,
        item: usize,
        n: usize,
        constraints: &[GroupConstraint],
        answer: &Answer,
    ) -> Result<(), String> {
        if answer.n != n || answer.codes.len() != n {
            return Err(format!(
                "answer has n={} and {} codes, job has {n} symbols",
                answer.n,
                answer.codes.len()
            ));
        }
        if answer.nv != min_code_length(n) {
            return Err(format!(
                "nv={} is not the minimum {}",
                answer.nv,
                min_code_length(n)
            ));
        }
        let mut sorted = answer.codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != n || sorted.iter().any(|&c| u64::from(c) >= 1u64 << answer.nv) {
            return Err("codes are not distinct words below 2^nv".to_owned());
        }
        let key = (item, answer.codes.clone());
        let legacy = match self.repriced.get(&key) {
            Some(&v) => v,
            None => {
                let enc = Encoding::new(answer.nv, answer.codes.clone())
                    .map_err(|e| format!("codes rejected by Encoding::new: {e:?}"))?;
                let opts = EvalOptions {
                    minimizer: EvalMinimizer::Espresso,
                    engine: CoverEngine::Legacy,
                    cache: false,
                };
                let ev =
                    evaluate_encoding_cached(&enc, constraints, &opts, &mut EvalContext::new());
                let v = (ev.total_cubes, ev.satisfied, ev.evaluated);
                self.repriced.insert(key, v);
                v
            }
        };
        if legacy != (answer.cubes, answer.satisfied, answer.evaluated) {
            return Err(format!(
                "legacy oracle prices (cubes, satisfied, evaluated) = {legacy:?}, answer says ({}, {}, {})",
                answer.cubes, answer.satisfied, answer.evaluated
            ));
        }
        Ok(())
    }
}

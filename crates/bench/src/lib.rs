//! # picola-bench — experiment harness
//!
//! Regenerates the paper's evaluation:
//!
//! - `table1` — constraint-implementation cost (cubes) under minimum-length
//!   encodings: NOVA-like vs. ENC-like vs. PICOLA (paper Table I).
//! - `table2` — state-assignment size and normalized runtime: NOVA
//!   `i_hybrid` / `io_hybrid` vs. the PICOLA-based tool (paper Table II).
//! - `ablation` — guide constraints and cost-model variants (DESIGN.md §7).
//!
//! Each binary accepts `--kiss-dir DIR` to run on real IWLS'93 KISS2 files
//! instead of the synthetic suite, and `--fsm NAME` (repeatable) to select
//! machines.

#![warn(missing_docs)]

pub mod artifact;
pub mod corpus;
pub mod stream;

pub use artifact::{
    decode_instance, decode_records, encode_instance, encode_records, instance_json, StreamRecord,
};
pub use corpus::{corpus, corpus_tier, generate_iter, Instance, Tier};
pub use stream::{codes_digest, run_stream, StreamConfig, StreamReport};

use picola_baselines::{EncLikeEncoder, NovaEncoder};
use picola_constraints::{ExtractMethod, GroupConstraint};
use picola_core::{evaluate_encoding, Encoder, PicolaEncoder};
use picola_fsm::{benchmark_fsm, parse_kiss, Fsm};
use picola_stassign::{
    assign_states, fsm_constraints, next_state_adjacency, FlowOptions, PicolaStateEncoder,
    StateAssignment,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Common command-line options of the table binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// Load machines from this directory (`<name>.kiss2` / `<name>.kiss`)
    /// instead of synthesizing them.
    pub kiss_dir: Option<String>,
    /// Restrict the run to these machine names (all when empty).
    pub only: Vec<String>,
    /// Quick mode: cheaper constraint extraction, smaller ENC budget.
    pub quick: bool,
}

impl HarnessOptions {
    /// Parses `--kiss-dir`, `--fsm`, `--quick` from command-line arguments.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or missing values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = HarnessOptions::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--kiss-dir" => {
                    opts.kiss_dir =
                        Some(it.next().ok_or("--kiss-dir needs a directory")?)
                }
                "--fsm" => opts.only.push(it.next().ok_or("--fsm needs a name")?),
                "--quick" => opts.quick = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }

    /// The machines to run, resolved against the suite or the KISS dir.
    pub fn machines(&self, names: &[&str]) -> Vec<Fsm> {
        let selected: Vec<&str> = if self.only.is_empty() {
            names.to_vec()
        } else {
            names
                .iter()
                .copied()
                .filter(|n| self.only.iter().any(|o| o == n))
                .collect()
        };
        selected
            .iter()
            .filter_map(|name| self.load(name))
            .collect()
    }

    fn load(&self, name: &str) -> Option<Fsm> {
        if let Some(dir) = &self.kiss_dir {
            for ext in ["kiss2", "kiss"] {
                let path = Path::new(dir).join(format!("{name}.{ext}"));
                if let Ok(text) = std::fs::read_to_string(&path) {
                    match parse_kiss(name, &text) {
                        Ok(fsm) => return Some(fsm),
                        Err(e) => {
                            eprintln!("warning: skipping {name}: {e}");
                            return None;
                        }
                    }
                }
            }
            eprintln!("warning: {name} not found in {dir}, synthesizing");
        }
        benchmark_fsm(name)
    }

    /// Extraction method: full ESPRESSO normally, quick pass in quick mode
    /// or for very large machines.
    pub fn extract_method(&self, fsm: &Fsm) -> ExtractMethod {
        if self.quick || fsm.num_states() > 64 {
            ExtractMethod::Quick
        } else {
            ExtractMethod::Espresso
        }
    }
}

/// One row of the Table I reproduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Machine name.
    pub name: String,
    /// Non-trivial face constraints extracted.
    pub num_constraints: usize,
    /// Cubes to implement all constraints under the NOVA-like encoding.
    pub nova_cubes: usize,
    /// Cubes under the ENC-like encoding (`None` when the evaluation budget
    /// was exhausted before reaching a local optimum — the paper's `*` and
    /// the `scf` failure).
    pub enc_cubes: Option<usize>,
    /// Cubes under the PICOLA encoding.
    pub picola_cubes: usize,
    /// Wall-clock time of each encoder (NOVA, ENC, PICOLA).
    pub times: [Duration; 3],
}

/// Computes one Table I row for a machine.
pub fn table1_row(fsm: &Fsm, opts: &HarnessOptions) -> Table1Row {
    let constraints: Vec<GroupConstraint> = fsm_constraints(fsm, opts.extract_method(fsm));
    let n = fsm.num_states();
    let nontrivial = constraints.iter().filter(|c| !c.is_trivial()).count();

    let timed = |enc: &dyn Encoder| -> (usize, Duration) {
        let t = Instant::now();
        let e = enc.encode(n, &constraints);
        let dt = t.elapsed();
        (evaluate_encoding(&e, &constraints).total_cubes, dt)
    };

    let (nova_cubes, t_nova) = timed(&NovaEncoder::i_hybrid());
    let (picola_cubes, t_picola) = timed(&PicolaEncoder::default());

    // ENC: the budget shrinks with instance size, mirroring its published
    // impracticality on medium/large machines.
    let budget = if opts.quick {
        200
    } else {
        (40_000 / n.max(1)).clamp(60, 3000)
    };
    let enc = EncLikeEncoder {
        max_evaluations: budget,
        ..EncLikeEncoder::default()
    };
    let t = Instant::now();
    let (enc_encoding, info) = enc.encode_detailed(n, &constraints);
    let t_enc = t.elapsed();
    let enc_cubes = if info.budget_exhausted {
        None
    } else {
        Some(evaluate_encoding(&enc_encoding, &constraints).total_cubes)
    };

    Table1Row {
        name: fsm.name().to_owned(),
        num_constraints: nontrivial,
        nova_cubes,
        enc_cubes,
        picola_cubes,
        times: [t_nova, t_enc, t_picola],
    }
}

/// One row of the Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Machine name.
    pub name: String,
    /// NOVA `i_hybrid` result.
    pub nova_ih: StateAssignment,
    /// NOVA `io_hybrid` result.
    pub nova_ioh: StateAssignment,
    /// PICOLA-based tool result.
    pub new_tool: StateAssignment,
}

impl Table2Row {
    /// Whole-tool runtime of a column normalized to NOVA `i_hybrid` — the
    /// paper normalizes complete tool executions, which include constraint
    /// extraction and the final minimization.
    pub fn time_ratio(&self, which: &StateAssignment) -> f64 {
        let base = self.nova_ih.total_time().as_secs_f64().max(1e-9);
        which.total_time().as_secs_f64() / base
    }
}

/// Computes one Table II row for a machine.
pub fn table2_row(fsm: &Fsm, opts: &HarnessOptions) -> Table2Row {
    let flow = FlowOptions {
        extract: opts.extract_method(fsm),
        ..FlowOptions::default()
    };
    let adjacency = next_state_adjacency(fsm);
    let nova_ih = assign_states(fsm, &NovaEncoder::i_hybrid(), &flow);
    let nova_ioh = assign_states(fsm, &NovaEncoder::io_hybrid(adjacency), &flow);
    let new_tool = assign_states(fsm, &PicolaStateEncoder::for_fsm(fsm), &flow);
    Table2Row {
        name: fsm.name().to_owned(),
        nova_ih,
        nova_ioh,
        new_tool,
    }
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_flags() {
        let opts = HarnessOptions::parse(
            ["--quick", "--fsm", "bbara", "--fsm", "cse"]
                .map(String::from),
        )
        .unwrap();
        assert!(opts.quick);
        assert_eq!(opts.only, vec!["bbara", "cse"]);
        assert!(HarnessOptions::parse(["--bogus".to_owned()]).is_err());
    }

    #[test]
    fn machines_filters_names() {
        let opts = HarnessOptions {
            only: vec!["bbara".into()],
            ..HarnessOptions::default()
        };
        let ms = opts.machines(&["bbara", "cse"]);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].name(), "bbara");
    }

    #[test]
    fn table1_row_runs_on_a_small_machine() {
        let opts = HarnessOptions {
            quick: true,
            ..HarnessOptions::default()
        };
        let fsm = benchmark_fsm("s8").unwrap();
        let row = table1_row(&fsm, &opts);
        assert!(row.picola_cubes >= row.num_constraints.min(1));
        assert!(row.nova_cubes >= row.num_constraints.min(1));
    }
}

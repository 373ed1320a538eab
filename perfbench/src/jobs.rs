//! Seeded job generation and the input record.
//!
//! Every input is a pure function of `--seed`. The size mix of each
//! workload is fixed and only the machines or instances inside it vary
//! with the seed, so runs on different seeds measure the same kind of
//! traffic and their figures stay comparable.

use picola_baselines::splitmix64;
use picola_bench::corpus::{generate_iter, Instance, Tier};
use picola_constraints::GroupConstraint;
use picola_fsm::{generate_fsm, symbolic_cover, write_kiss, FsmSpec, BENCHMARKS};
use picola_logic::binio::Fnv64;
use picola_logic::write_mv_pla;
use picola_server::JobKind;
use std::collections::BTreeMap;

/// One distinct daemon payload.
pub struct Payload {
    pub kind: JobKind,
    pub text: String,
    /// States of the machine the payload was made from.
    pub states: usize,
}

/// A daemon workload: the distinct payloads, an untimed warm-up pass over
/// some of them, and the timed stream (indices into `payloads`).
pub struct ServeJobs {
    pub payloads: Vec<Payload>,
    pub warm: Vec<usize>,
    pub stream: Vec<usize>,
}

/// Suite blocks per `serve_fsm` pass: each block sends every Table I
/// machine shape once, so a pass holds 24 × 31 distinct machines.
const FSM_BLOCKS: usize = 24;
/// Distinct machines in the `serve_repeat` pool.
const REPEAT_POOL: usize = 16;
/// Jobs in one timed `serve_repeat` pass.
const REPEAT_STREAM: usize = 4096;
/// Zipf exponent of the `serve_repeat` draws.
const REPEAT_ZIPF_S: f64 = 1.0;
/// Large-tier instances per `encode_large` pass, by symbol-count band
/// (inclusive bounds): 144 in all. Per-job latency has two modes: the
/// 33–64-symbol instances take tens of ms, while `n <= 32` (the only
/// sizes within the SAT member's `nv <= 5` guard) and `n > 64` take
/// hundreds. With the tier's own mix (16 % / 59 % / 25 %) the median job
/// sat at the edge of the fast mode and moved by half between seeds, so
/// the fast mode gets three quarters of the pass and each slow mode an
/// eighth.
const LARGE_BANDS: [(usize, usize, usize); 8] = [
    (24, 32, 18),
    (33, 40, 27),
    (41, 48, 27),
    (49, 56, 27),
    (57, 64, 27),
    (65, 85, 6),
    (86, 106, 6),
    (107, 128, 6),
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn machine(info: &picola_fsm::BenchmarkInfo, seed: u64, mv: bool) -> Payload {
    let mut spec = FsmSpec::new(info.name, info.states, info.inputs, info.outputs);
    spec.max_rows = info.rows;
    spec.max_tested_bits = info.tested_bits;
    spec.seed = seed;
    let fsm = generate_fsm(&spec);
    let (kind, text) = if mv {
        (JobKind::EncodeMvPla, write_mv_pla(&symbolic_cover(&fsm).on))
    } else {
        (JobKind::EncodeKiss, write_kiss(&fsm))
    };
    Payload {
        kind,
        text,
        states: info.states,
    }
}

/// `serve_fsm`: distinct machines shaped like the Table I suite
/// (6–48 states; `scf` is left out, see NOTES.md). Every fourth job is
/// sent as an `.mv` PLA.
pub fn serve_fsm(seed: u64) -> ServeJobs {
    let suite: Vec<_> = BENCHMARKS
        .iter()
        .filter(|b| (6..=48).contains(&b.states))
        .collect();
    let mut rng = Rng(seed ^ 0x5e7e_f5f0);
    let mut payloads = Vec::with_capacity(FSM_BLOCKS * suite.len());
    for _ in 0..FSM_BLOCKS {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let mv = payloads.len() % 4 == 3;
            payloads.push(machine(suite[i], rng.next(), mv));
        }
    }
    let stream = (0..payloads.len()).collect();
    ServeJobs {
        payloads,
        warm: Vec::new(),
        stream,
    }
}

/// `serve_repeat`: Zipf-skewed draws from a small pool of small machines
/// (6–11 states). Small machines keep extraction cheap, so the daemon's own
/// path and the store read are a visible share of each job.
///
/// The pool and each machine's popularity rank are the same for every
/// seed; the seed sets the order of arrivals. Under a Zipf law one machine
/// takes about 30 % of the traffic, so a seeded pool let that one machine
/// decide every figure (NOTES.md gives the measured spread).
pub fn serve_repeat(seed: u64) -> ServeJobs {
    let small: Vec<_> = BENCHMARKS
        .iter()
        .filter(|b| (6..=11).contains(&b.states))
        .collect();
    let payloads: Vec<Payload> = (0..REPEAT_POOL)
        .map(|i| machine(small[i % small.len()], splitmix64(i as u64), i % 4 == 3))
        .collect();
    // Item r has popularity rank r + 1 and a share proportional to
    // (r + 1)^-s; the stream takes the exact quantiles of that law.
    let weights: Vec<f64> = (1..=REPEAT_POOL)
        .map(|r| (r as f64).powf(-REPEAT_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut stream: Vec<usize> = (0..REPEAT_STREAM)
        .map(|i| {
            let u = (i as f64 + 0.5) / REPEAT_STREAM as f64 * total;
            let mut acc = 0.0;
            weights
                .iter()
                .position(|w| {
                    acc += w;
                    u < acc
                })
                .unwrap_or(REPEAT_POOL - 1)
        })
        .collect();
    Rng(seed ^ 0x0e9e_a7ed).shuffle(&mut stream);
    ServeJobs {
        payloads,
        warm: (0..REPEAT_POOL).collect(),
        stream,
    }
}

/// `encode_large`: large-tier constraint sets, taken in generation order
/// until every symbol-count band has its quota.
pub fn encode_large(seed: u64) -> Vec<Instance> {
    let mut left: Vec<usize> = LARGE_BANDS.iter().map(|b| b.2).collect();
    let mut out = Vec::new();
    // The corpus seeds instance i with `master + i + 1`, so neighbouring
    // master seeds share instances; hashing the seed keeps runs apart.
    for inst in generate_iter(100_000, splitmix64(seed ^ 0x1a29_e000), Tier::Large) {
        if let Some(b) = LARGE_BANDS
            .iter()
            .position(|&(lo, hi, _)| (lo..=hi).contains(&inst.n))
        {
            if left[b] > 0 {
                left[b] -= 1;
                out.push(inst);
            }
        }
        if left.iter().all(|&l| l == 0) {
            break;
        }
    }
    out
}

/// A fixed tiny instance: the in-process analogue of the daemon's ping,
/// answered once per engine set-up.
pub fn probe_instance() -> (usize, Vec<GroupConstraint>) {
    use picola_constraints::SymbolSet;
    let n = 8;
    let groups: [&[usize]; 3] = [&[0, 1, 2, 3], &[4, 5], &[1, 6]];
    let cs = groups
        .iter()
        .map(|g| GroupConstraint::new(SymbolSet::from_members(n, g.iter().copied())))
        .collect();
    (n, cs)
}

/// Folds one length-prefixed field into `h`, so ("ab", "c") and ("a", "bc")
/// digest differently.
pub fn feed(h: &mut Fnv64, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

/// What the inputs of one run are, recorded next to its results.
pub struct InputRecord {
    /// FNV-1a over the job list exactly as the program receives it.
    pub digest: String,
    pub jobs: usize,
    /// Distinct payloads (or instances) over jobs.
    pub distinct_share: f64,
    /// Jobs whose store key was already seen earlier in the pass, over
    /// jobs: the property the result store exploits.
    pub repeat_share: f64,
    /// State (or symbol) count → jobs.
    pub histogram: BTreeMap<usize, usize>,
}

pub fn serve_record(jobs: &ServeJobs, keys: &[u64]) -> InputRecord {
    let mut d = Fnv64::new();
    let mut histogram = BTreeMap::new();
    for &i in jobs.warm.iter().chain(&jobs.stream) {
        feed(&mut d, jobs.payloads[i].kind.name().as_bytes());
        feed(&mut d, jobs.payloads[i].text.as_bytes());
    }
    for &i in &jobs.stream {
        *histogram.entry(jobs.payloads[i].states).or_insert(0) += 1;
    }
    let mut seen: std::collections::HashSet<u64> = jobs.warm.iter().map(|&i| keys[i]).collect();
    let mut distinct_payloads = std::collections::HashSet::new();
    let mut repeats = 0usize;
    for &i in &jobs.stream {
        distinct_payloads.insert(i);
        if !seen.insert(keys[i]) {
            repeats += 1;
        }
    }
    let n = jobs.stream.len().max(1) as f64;
    InputRecord {
        digest: format!("{:016x}", d.finish()),
        jobs: jobs.stream.len(),
        distinct_share: distinct_payloads.len() as f64 / n,
        repeat_share: repeats as f64 / n,
        histogram,
    }
}

pub fn large_record(list: &[Instance]) -> InputRecord {
    let mut d = Fnv64::new();
    let mut histogram = BTreeMap::new();
    let mut keys = std::collections::HashSet::new();
    for inst in list {
        keys.insert(picola_core::store::job_key(inst.n, None, &inst.constraints).0);
        feed(&mut d, &(inst.n as u64).to_le_bytes());
        for c in &inst.constraints {
            let members: Vec<u8> = c
                .members()
                .iter()
                .flat_map(|s| (s as u32).to_le_bytes())
                .collect();
            feed(&mut d, &members);
        }
        *histogram.entry(inst.n / 8 * 8).or_insert(0) += 1;
    }
    let n = list.len().max(1) as f64;
    InputRecord {
        digest: format!("{:016x}", d.finish()),
        jobs: list.len(),
        distinct_share: keys.len() as f64 / n,
        repeat_share: 1.0 - keys.len() as f64 / n,
        histogram,
    }
}

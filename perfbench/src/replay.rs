//! In-process replays of a workload's job stream, in stream order, through
//! the public functions the daemon's `execute` calls (serve workloads) or
//! the portfolio path (`encode_large`). With spans enabled this is the
//! traced run; with spans disabled it is the untraced reference that
//! `trace.overhead_share` and `server.residual_ms` compare against.

use crate::check::Answer;
use crate::jobs::{Payload, ServeJobs};
use crate::spans::Spans;
use picola_bench::corpus::Instance;
use picola_constraints::{extract_constraints, GroupConstraint};
use picola_core::engine::{EngineConfig, EngineHandle, Job, JobOutput};
use picola_core::eval::{evaluate_encoding_cached, EvalContext, EvalOptions};
use picola_core::store::{job_key, key_for, ResultStore, StoredResult};
use picola_core::EncoderPortfolio;
use picola_fsm::{parse_kiss, symbolic_cover, SymbolicCover};
use picola_logic::obs::{SpanSnapshot, Trace};
use picola_logic::{parse_mv_pla, Budget, Cover, Domain};
use picola_server::json::Object;
use picola_server::{JobKind, JobRequest, JobResponse, Status};
use std::path::Path;
use std::time::{Duration, Instant};

/// The per-job budget every workload uses: large enough that no job of
/// these workloads degrades.
pub const JOB_BUDGET_MS: u64 = 30_000;

/// The daemon's MV-PLA route: the first multi-valued input variable is the
/// symbol set, and the cover goes through the same extraction as KISS2.
fn mvpla_constraints(dom: &Domain, cover: &Cover) -> Option<(usize, Vec<GroupConstraint>)> {
    let sv =
        (0..dom.num_vars()).find(|&v| dom.var(v).parts() > 2 && Some(v) != dom.output_var())?;
    let n = dom.var(sv).parts();
    let sc = SymbolicCover {
        domain: dom.clone(),
        on: cover.clone(),
        dc: Cover::empty(dom),
        num_states: n,
        num_inputs: sv,
        num_outputs: dom
            .output_var()
            .map_or(0, |ov| dom.var(ov).parts().saturating_sub(n)),
    };
    Some((n, extract_constraints(&sc)))
}

/// Parses a payload and extracts its constraints, each step in its own
/// span. `None` for a payload the daemon would reject.
fn constraints_in(sp: &mut Spans, p: &Payload) -> Option<(usize, Vec<GroupConstraint>)> {
    match p.kind {
        JobKind::EncodeKiss => {
            let (fsm, _) = sp.span("fsm.parse_kiss", |_| parse_kiss("job", &p.text).ok());
            let fsm = fsm?;
            let (sc, _) = sp.span("fsm.symbolic_cover", |_| symbolic_cover(&fsm));
            let (cs, _) = sp.span("constraints.extract", |_| extract_constraints(&sc));
            Some((fsm.num_states(), cs))
        }
        JobKind::EncodeMvPla => {
            let (parsed, _) = sp.span("logic.parse_mv_pla", |_| parse_mv_pla(&p.text).ok());
            let (dom, cover) = parsed?;
            sp.span("constraints.extract", |_| mvpla_constraints(&dom, &cover))
                .0
        }
        _ => None,
    }
}

/// Every payload's `(n, constraints)`, computed once for the answer checks.
pub fn all_constraints(jobs: &ServeJobs) -> Vec<(usize, Vec<GroupConstraint>)> {
    let mut sp = Spans::new(false);
    jobs.payloads
        .iter()
        .map(|p| constraints_in(&mut sp, p).unwrap_or((0, Vec::new())))
        .collect()
}

/// Store key of every payload (for the input record).
pub fn all_keys(cs: &[(usize, Vec<GroupConstraint>)]) -> Vec<u64> {
    cs.iter().map(|(n, c)| job_key(*n, None, c).0).collect()
}

/// Counters of one replay pass, all exact.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub constraints: u64,
    pub job_work: u64,
    pub refine_work: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_corrupt: u64,
    pub store_inserts: u64,
    pub store_insert_failures: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub wins: Vec<(String, u64)>,
}

pub struct ReplayOut {
    /// Wall time of each stream job, in stream order.
    pub job_wall: Vec<Duration>,
    pub answers: Vec<Option<Answer>>,
    pub counts: Counts,
    /// Member name → summed wall (encode_large only).
    pub member_wall: Vec<(String, Duration)>,
    pub winner_wall: Duration,
    pub wall: Duration,
}

fn response_frame(sp: &mut Spans, id: &str, body: Object, status: Status) -> Option<Answer> {
    sp.span("server.protocol", |_| {
        let frame = JobResponse::terminal(id, status, 0)
            .with_body(body)
            .to_frame();
        JobResponse::from_frame(&frame)
            .ok()
            .and_then(|r| Answer::from_body(&r.body))
    })
    .0
}

fn body_of(
    n: usize,
    nv: usize,
    codes: &[u32],
    cubes: usize,
    sat: usize,
    evaluated: usize,
) -> Object {
    let codes = codes
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    Object::new()
        .uint("n", n as u64)
        .uint("nv", nv as u64)
        .str("codes", codes)
        .uint("cubes", cubes as u64)
        .uint("satisfied", sat as u64)
        .uint("evaluated", evaluated as u64)
}

/// One daemon job in process: frame → parse → extract → store lookup →
/// engine → store insert → response frame.
fn serve_one(
    sp: &mut Spans,
    engine: &EngineHandle,
    store: &ResultStore,
    p: &Payload,
    id: &str,
    counts: &mut Counts,
) -> Option<Answer> {
    let (req, _) = sp.span("server.protocol", |_| {
        let r = crate::serve::request(id.to_owned(), p.kind, &p.text);
        JobRequest::from_frame(&r.to_frame()).ok()
    });
    req?;
    let (n, constraints) = constraints_in(sp, p)?;
    counts.constraints += constraints.len() as u64;
    let job = Job::Encode { n, constraints };
    let (hit, _) = sp.span("core.store.lookup", |_| {
        key_for(&job, None).map(|k| (k, store.lookup(k)))
    });
    let (key, stored) = hit?;
    if let Some(s) = stored {
        let body = body_of(n, s.nv, &s.codes, s.total_cubes, s.satisfied, s.evaluated);
        return response_frame(sp, id, body, Status::Ok);
    }
    let trace = sp.enabled().then(Trace::with_wall_clock);
    let mut budget = Budget::unlimited().deadline_in(Duration::from_millis(JOB_BUDGET_MS));
    if let Some(t) = &trace {
        budget = budget.with_recorder(t.recorder());
    }
    let (out, run_span) = sp.span("core.engine.run", |_| engine.run(&job, &budget));
    counts.job_work += budget.work_done();
    if let (Some(t), Some(run)) = (&trace, run_span) {
        let snap = t.snapshot();
        let start = sp.spans[run].start_ns;
        let mut end = start;
        for picola in snap.children.iter().filter(|c| c.name == "picola") {
            counts.refine_work += refine_work(picola);
            end = sp.place_picola(run, start, picola);
        }
        // `EngineHandle::run` runs the encoder, then
        // `evaluate_encoding_cached`: the rest of the run is `core.eval`.
        let run_end = sp.spans[run].end_ns;
        sp.derived("core.eval", run, end, run_end.saturating_sub(end));
    }
    let Ok(JobOutput::Encoded {
        encoding,
        evaluation,
        completion,
    }) = out
    else {
        return None;
    };
    if completion.is_complete() {
        let rec = StoredResult {
            nv: encoding.nv(),
            codes: encoding.codes().to_vec(),
            total_cubes: evaluation.total_cubes,
            satisfied: evaluation.satisfied,
            evaluated: evaluation.evaluated,
        };
        sp.span("core.store.insert", |_| store.insert(key, &rec));
    }
    let status = if completion.is_complete() {
        Status::Ok
    } else {
        Status::Degraded
    };
    let body = body_of(
        n,
        encoding.nv(),
        encoding.codes(),
        evaluation.total_cubes,
        evaluation.satisfied,
        evaluation.evaluated,
    );
    response_frame(sp, id, body, status).filter(|_| completion.is_complete())
}

fn refine_work(picola: &SpanSnapshot) -> u64 {
    picola
        .children
        .iter()
        .filter(|c| c.name == "refine")
        .map(SpanSnapshot::total_work)
        .sum()
}

/// Replays a serve workload: the warm pass (never traced), then the timed
/// stream, against a fresh engine and a fresh store under `store_dir`.
pub fn replay_serve(
    jobs: &ServeJobs,
    store_dir: &Path,
    traced: bool,
) -> std::io::Result<(ReplayOut, Spans)> {
    let engine = EngineHandle::new(EngineConfig::default());
    let store = ResultStore::open(store_dir)?;
    let mut counts = Counts::default();
    let mut quiet = Spans::new(false);
    for &i in &jobs.warm {
        serve_one(
            &mut quiet,
            &engine,
            &store,
            &jobs.payloads[i],
            &format!("w{i}"),
            &mut counts,
        );
    }
    let before = store.stats();
    let cache_before = engine.cache_stats();
    let mut counts = Counts::default();
    let mut sp = Spans::new(traced);
    let mut job_wall = Vec::with_capacity(jobs.stream.len());
    let mut answers = Vec::with_capacity(jobs.stream.len());
    let t0 = Instant::now();
    for (pos, &i) in jobs.stream.iter().enumerate() {
        sp.set_job(pos as u32);
        let t = Instant::now();
        let (a, _) = sp.span("job", |sp| {
            serve_one(
                sp,
                &engine,
                &store,
                &jobs.payloads[i],
                &format!("j{pos}"),
                &mut counts,
            )
        });
        job_wall.push(t.elapsed());
        answers.push(a);
    }
    let wall = t0.elapsed();
    let s = store.stats();
    let c = engine.cache_stats();
    counts.store_hits = s.hits - before.hits;
    counts.store_misses = s.misses - before.misses;
    counts.store_corrupt = s.corrupt - before.corrupt;
    counts.store_inserts = s.inserts - before.inserts;
    counts.store_insert_failures = s.insert_failures - before.insert_failures;
    counts.cache_hits = c.hits - cache_before.hits;
    counts.cache_misses = c.misses - cache_before.misses;
    let _ = std::fs::remove_dir_all(store_dir);
    Ok((
        ReplayOut {
            job_wall,
            answers,
            counts,
            member_wall: Vec::new(),
            winner_wall: Duration::ZERO,
            wall,
        },
        sp,
    ))
}

/// The portfolio path: race the members, then re-price the winner.
pub struct LargeEngine {
    pub portfolio: EncoderPortfolio,
    pub ctx: EvalContext,
}

/// Portfolio worker threads (the machine's two cores).
const PORTFOLIO_THREADS: usize = 2;
/// Seed of the standard portfolio's annealing member: fixed, so the
/// program's configuration never depends on the workload seed.
const PORTFOLIO_SEED: u64 = 0;

impl LargeEngine {
    pub fn new() -> LargeEngine {
        LargeEngine {
            portfolio: picola_baselines::standard_portfolio(PORTFOLIO_SEED)
                .with_threads(PORTFOLIO_THREADS),
            ctx: EvalContext::new(),
        }
    }

    /// Runs one instance; returns the answer (None when degraded or
    /// empty), the member outcomes' (name, wall), and the winner index.
    pub fn run(
        &mut self,
        sp: &mut Spans,
        n: usize,
        constraints: &[GroupConstraint],
        counts: &mut Counts,
    ) -> (Option<Answer>, Vec<(String, Duration)>, usize) {
        let trace = sp.enabled().then(Trace::with_wall_clock);
        let mut budget = Budget::unlimited().deadline_in(Duration::from_millis(JOB_BUDGET_MS));
        if let Some(t) = &trace {
            budget = budget.with_recorder(t.recorder());
        }
        let (out, run_span) = sp.span("core.portfolio.run", |_| {
            self.portfolio.run(n, constraints, &budget)
        });
        counts.job_work += budget.work_done();
        let Some(out) = out else {
            return (None, Vec::new(), 0);
        };
        let members: Vec<(String, Duration)> = out
            .members
            .iter()
            .map(|m| (m.name.clone(), m.wall))
            .collect();
        if let (Some(t), Some(run)) = (&trace, run_span) {
            let snap = t.snapshot();
            let obs_members: Vec<&SpanSnapshot> = snap
                .children
                .iter()
                .filter(|c| c.name == "portfolio")
                .flat_map(|p| p.children.iter())
                .collect();
            for m in &obs_members {
                for p in m.children.iter().filter(|c| c.name == "picola") {
                    counts.refine_work += refine_work(p);
                }
            }
            let walls: Vec<(String, u64)> = members
                .iter()
                .map(|(name, w)| {
                    (
                        name.clone(),
                        u64::try_from(w.as_nanos()).unwrap_or(u64::MAX),
                    )
                })
                .collect();
            sp.place_members(run, PORTFOLIO_THREADS, &walls, &obs_members);
        }
        let best = out.best();
        let ctx = &mut self.ctx;
        let (ev, _) = sp.span("core.eval", |_| {
            evaluate_encoding_cached(&best.encoding, constraints, &EvalOptions::default(), ctx)
        });
        let answer = out.completion.is_complete().then(|| Answer {
            n,
            nv: best.encoding.nv(),
            codes: best.encoding.codes().to_vec(),
            cubes: ev.total_cubes,
            satisfied: ev.satisfied,
            evaluated: ev.evaluated,
        });
        (answer, members, out.winner)
    }
}

/// Replays the `encode_large` pass on a fresh portfolio.
pub fn replay_large(list: &[Instance], traced: bool) -> (ReplayOut, Spans) {
    let mut engine = LargeEngine::new();
    let mut counts = Counts::default();
    let mut sp = Spans::new(traced);
    let mut job_wall = Vec::with_capacity(list.len());
    let mut answers = Vec::with_capacity(list.len());
    let mut member_wall: Vec<(String, Duration)> = Vec::new();
    let mut wins: Vec<(String, u64)> = Vec::new();
    let mut winner_wall = Duration::ZERO;
    let t0 = Instant::now();
    for (pos, inst) in list.iter().enumerate() {
        sp.set_job(pos as u32);
        let t = Instant::now();
        let ((a, members, winner), _) = sp.span("job", |sp| {
            engine.run(sp, inst.n, &inst.constraints, &mut counts)
        });
        job_wall.push(t.elapsed());
        answers.push(a);
        if member_wall.is_empty() {
            member_wall = members
                .iter()
                .map(|(n, _)| (n.clone(), Duration::ZERO))
                .collect();
            wins = members.iter().map(|(n, _)| (n.clone(), 0)).collect();
        }
        for (acc, (_, w)) in member_wall.iter_mut().zip(&members) {
            acc.1 += *w;
        }
        if let Some((_, w)) = members.get(winner) {
            winner_wall += *w;
            wins[winner].1 += 1;
        }
    }
    let wall = t0.elapsed();
    counts.cache_hits = engine.ctx.cache.hits();
    counts.cache_misses = engine.ctx.cache.misses();
    counts.wins = wins;
    (
        ReplayOut {
            job_wall,
            answers,
            counts,
            member_wall,
            winner_wall,
            wall,
        },
        sp,
    )
}

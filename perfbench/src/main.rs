//! End-to-end benchmark of PICOLA: the encoding daemon over loopback and
//! the in-process portfolio path, with a separate traced run that splits
//! the time by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_fsm --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! same job stream in process with spans and reports the per-layer
//! metrics. Every answer is checked; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Results,
//! the layer table and the spans are written under `perfbench/out/`.
//! See NOTES.md for the workloads and the measured baseline facts.

mod check;
mod jobs;
mod replay;
mod report;
mod serve;
mod spans;

use check::{Answer, Checker};
use jobs::{InputRecord, ServeJobs};
use replay::{Counts, LargeEngine, ReplayOut};
use report::{median, percentile, Metrics, Tally, Timing};
use serve::Outcome;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups measured per run at least, so `setup_s` is a median.
const MIN_SETUPS: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeFsm,
    ServeRepeat,
    EncodeLarge,
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?.to_owned();
    let workload = match name.as_str() {
        "serve_fsm" => Workload::ServeFsm,
        "serve_repeat" => Workload::ServeRepeat,
        "encode_large" => Workload::EncodeLarge,
        other => {
            return Err(format!(
                "unknown workload {other:?} (serve_fsm, serve_repeat, encode_large)"
            ))
        }
    };
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(3);
    }
    let result = match (args.workload, args.trace) {
        (Workload::EncodeLarge, false) => large_e2e(&args),
        (Workload::EncodeLarge, true) => large_traced(&args),
        (w, false) => serve_e2e(&args, &serve_jobs(w, args.seed), &out),
        (w, true) => serve_traced(&args, &serve_jobs(w, args.seed), &out),
    };
    match result {
        Ok(mut rep) => {
            report::check_determinism(&out, &args.name, args.seed, args.trace, &mut rep);
            report::finish(&out, &args.name, args.seed, args.trace, &rep);
            if rep.tally.is_correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn serve_jobs(w: Workload, seed: u64) -> ServeJobs {
    if w == Workload::ServeRepeat {
        jobs::serve_repeat(seed)
    } else {
        jobs::serve_fsm(seed)
    }
}

fn store_dir(out: &Path, tag: &str, i: usize) -> PathBuf {
    out.join(format!("store-{}-{tag}-{i}", std::process::id()))
}

/// Everything a run reports.
pub struct Report {
    pub metrics: Metrics,
    pub tally: Tally,
    pub input: InputRecord,
    /// Exact counts that must repeat on every run of one build.
    pub counts: Vec<(String, u64)>,
    pub rounds: usize,
    pub layers: Option<String>,
    pub spans: Option<String>,
    /// Further measured facts, printed and kept in the results file.
    pub notes: Vec<String>,
}

/// The answer checks shared by every round of a serve run.
struct ServeCheck<'a> {
    jobs: &'a ServeJobs,
    cs: Vec<(usize, Vec<picola_constraints::GroupConstraint>)>,
    checker: Checker,
    /// First answer seen per stream position (answers must not drift).
    expected: Vec<Option<Answer>>,
    /// First computed answer per payload (the warm pass computes them).
    computed: Vec<Option<Answer>>,
}

impl<'a> ServeCheck<'a> {
    fn new(jobs: &'a ServeJobs) -> ServeCheck<'a> {
        ServeCheck {
            cs: replay::all_constraints(jobs),
            checker: Checker::default(),
            expected: vec![None; jobs.stream.len()],
            computed: vec![None; jobs.payloads.len()],
            jobs,
        }
    }

    fn validate(&mut self, item: usize, a: &Answer) -> Result<(), String> {
        let (n, cs) = &self.cs[item];
        self.checker.check(item, *n, cs, a)
    }

    fn warm(&mut self, tally: &mut Tally, warm: &[Outcome]) {
        for (&i, o) in self.jobs.warm.iter().zip(warm) {
            tally.attempted += 1;
            match o {
                Outcome::Answered(a) => {
                    let r = self
                        .validate(i, a)
                        .and_then(|()| same(&mut self.computed[i], a, "first computed answer"));
                    if let Err(e) = r {
                        tally.fail(format!("warm payload {i}: {e}"));
                    }
                }
                Outcome::Failed(e) => tally.fail(format!("warm payload {i}: {e}")),
            }
        }
    }

    /// Checks the answer at stream position `pos`; returns its cubes.
    fn stream(&mut self, pos: usize, a: &Answer) -> Result<u64, String> {
        let item = self.jobs.stream[pos];
        self.validate(item, a)?;
        same(&mut self.expected[pos], a, "answer of an earlier round")?;
        if !self.jobs.warm.is_empty() {
            // Warm pass ran: this answer is a store hit and must be the
            // first computed answer, bit for bit.
            match &self.computed[item] {
                Some(c) if c == a => {}
                _ => {
                    return Err("store-hit answer differs from the first computed answer".to_owned())
                }
            }
        }
        Ok(a.cubes as u64)
    }
}

fn same(slot: &mut Option<Answer>, a: &Answer, what: &str) -> Result<(), String> {
    match slot {
        Some(prev) if prev != a => Err(format!("answer differs from the {what}")),
        Some(_) => Ok(()),
        None => {
            *slot = Some(a.clone());
            Ok(())
        }
    }
}

fn input_record(jobs: &ServeJobs, sc: &ServeCheck) -> InputRecord {
    jobs::serve_record(jobs, &replay::all_keys(&sc.cs))
}

fn serve_e2e(args: &Args, jobs: &ServeJobs, out: &Path) -> Result<Report, String> {
    let mut sc = ServeCheck::new(jobs);
    let input = input_record(jobs, &sc);
    let mut tally = Tally::default();
    let (mut setups, mut cubes, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    let mut timing = Timing::default();
    while timing.rounds() == 0 || timing.elapsed() < args.seconds {
        timing.start_round();
        let r = serve::round(jobs, &store_dir(out, "e2e", timing.rounds()))
            .map_err(|e| e.to_string())?;
        setups.push(r.setup);
        sc.warm(&mut tally, &r.warm);
        let (mut c, mut ok) = (0, 0);
        for (pos, (_, o)) in r.jobs.iter().enumerate() {
            tally.attempted += 1;
            match o {
                Outcome::Answered(a) => match sc.stream(pos, a) {
                    Ok(cubes) => {
                        c += cubes;
                        ok += 1;
                    }
                    Err(e) => tally.fail(format!("job {pos}: {e}")),
                },
                Outcome::Failed(e) => tally.fail(format!("job {pos}: {e}")),
            }
        }
        cubes.push(c);
        hits.push(r.stats.store_hits);
        timing.round(ok, r.wall, r.jobs.iter().map(|j| j.0));
    }
    while setups.len() < MIN_SETUPS {
        let dir = store_dir(out, "setup", setups.len());
        let (h, client, s) = serve::start(&dir).map_err(|e| e.to_string())?;
        drop(client);
        serve::stop(h, &dir);
        setups.push(s);
    }
    let cubes_total = same_every_round(&mut tally, "cubes_total", &cubes);
    let store_hits = same_every_round(&mut tally, "store hits", &hits);
    let extracted: u64 = jobs.stream.iter().map(|&i| sc.cs[i].1.len() as u64).sum();
    let metrics = e2e_metrics(&tally, &timing, cubes_total, &setups);
    Ok(Report {
        metrics,
        tally,
        input,
        counts: vec![
            ("cubes_total".to_owned(), cubes_total),
            ("constraints.extract.count".to_owned(), extracted),
            ("store_hits".to_owned(), store_hits),
        ],
        rounds: timing.rounds(),
        layers: None,
        spans: None,
        notes: timing_notes(&timing, true),
    })
}

/// The value every round agreed on; a disagreement is a failure.
fn same_every_round(tally: &mut Tally, what: &str, per_round: &[u64]) -> u64 {
    let first = per_round.first().copied().unwrap_or(0);
    if per_round.iter().any(|&v| v != first) {
        tally.fail(format!("{what} drifted across rounds: {per_round:?}"));
    }
    first
}

/// The end-to-end metrics. Throughput, p50 and p90 are medians of their
/// per-round values, so one noisy round does not move them.
fn e2e_metrics(tally: &Tally, timing: &Timing, cubes: u64, setups: &[Duration]) -> Metrics {
    let mut m = Metrics::default();
    m.push(
        "jobs_per_s",
        timing.median_per_round(|ok, wall, _, _| ok as f64 / wall),
        "1/s",
    );
    m.push(
        "latency_p50_ms",
        timing.median_per_round(|_, _, ms, _| percentile(ms, 0.50)),
        "ms",
    );
    m.push(
        "latency_p90_ms",
        timing.median_per_round(|_, _, ms, _| percentile(ms, 0.90)),
        "ms",
    );
    m.push("cubes_total", cubes as f64, "count");
    m.push(
        "ok_share",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    m.push(
        "setup_s",
        median(&setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>()),
        "s",
    );
    // Allocator arenas left by the portfolio's and the daemon's exited
    // threads only ever add to a round's peak, so the least per-round peak
    // is the memory one pass needs.
    let rss = timing.per_round(|_, _, _, rss| rss);
    m.push(
        "peak_rss_mb",
        rss.iter().copied().fold(f64::INFINITY, f64::min),
        "MB",
    );
    m
}

/// Per-round throughput, and for the daemon workloads the pooled p99: a
/// serve run leaves well over ten samples beyond it, while `encode_large`'s
/// 96 distinct instances do not, so p99 is no end-to-end metric there.
fn timing_notes(timing: &Timing, p99: bool) -> Vec<String> {
    let rates: Vec<String> = timing.per_round(|ok, wall, _, _| format!("{:.2}", ok as f64 / wall));
    let mut notes = vec![format!("per-round jobs_per_s: {}", rates.join(" "))];
    if p99 {
        let pooled = timing.pooled();
        notes.push(format!(
            "latency_p99_ms (pooled over {} jobs): {:.4}",
            pooled.len(),
            percentile(&pooled, 0.99)
        ));
    }
    notes
}

fn serve_traced(args: &Args, jobs: &ServeJobs, out: &Path) -> Result<Report, String> {
    let mut sc = ServeCheck::new(jobs);
    let input = input_record(jobs, &sc);
    let mut tally = Tally::default();
    let mut reps: Vec<Metrics> = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let (mut layers, mut dump) = (None, None);
    let t0 = Instant::now();
    while another_fits(reps.len(), t0.elapsed().as_secs_f64(), args.seconds) {
        let i = reps.len();
        let r = serve::round(jobs, &store_dir(out, "trace", i)).map_err(|e| e.to_string())?;
        sc.warm(&mut tally, &r.warm);
        for (pos, (_, o)) in r.jobs.iter().enumerate() {
            tally.attempted += 1;
            let res = match o {
                Outcome::Answered(a) => sc.stream(pos, a).map(|_| ()),
                Outcome::Failed(e) => Err(e.clone()),
            };
            if let Err(e) = res {
                tally.fail(format!("job {pos}: {e}"));
            }
        }
        let replay = |traced| {
            replay::replay_serve(jobs, &store_dir(out, "replay", i), traced)
                .map_err(|e| e.to_string())
        };
        let ((plain, _), (traced, sp)) = alternate(i, || replay(false), || replay(true))?;
        for rep in [&plain, &traced] {
            replay_answers(&mut tally, &mut sc.expected, rep);
        }
        let residual: Vec<f64> = r
            .jobs
            .iter()
            .zip(&plain.job_wall)
            .map(|((l, _), c)| (l.as_secs_f64() - c.as_secs_f64()) * 1e3)
            .collect();
        let (by_path, by_name) = spans::reduce(&sp.spans);
        let mut m = layer_metrics(&by_name, &traced, &plain);
        m.set("server.residual_ms", median(&residual));
        m.set("server.rejected", r.stats.rejected as f64);
        m.set("server.degraded", r.stats.degraded as f64);
        m.set("server.failed", r.stats.failed as f64);
        if layers.is_none() {
            layers = Some(spans::layer_table(&by_path));
            dump = Some(spans::dump(&sp.spans));
        }
        reps.push(m);
        counts.push(traced.counts);
    }
    let counts = same_counts(&mut tally, &counts);
    Ok(Report {
        metrics: Metrics::median_of(&reps),
        tally,
        input,
        counts,
        rounds: reps.len(),
        layers,
        spans: dump,
        notes: Vec::new(),
    })
}

/// Whether another traced repetition fits: judged by the mean repetition
/// so far, it would end no later than a quarter past `seconds`.
fn another_fits(reps: usize, elapsed: f64, seconds: f64) -> bool {
    reps == 0 || elapsed + elapsed / reps as f64 <= seconds * 1.25
}

/// Runs the untraced and the traced replay, alternating which goes first
/// on each repetition so neither side always pays for a cold start.
fn alternate<A, B>(
    rep: usize,
    plain: impl FnOnce() -> Result<A, String>,
    traced: impl FnOnce() -> Result<B, String>,
) -> Result<(A, B), String> {
    if rep.is_multiple_of(2) {
        let a = plain()?;
        Ok((a, traced()?))
    } else {
        let b = traced()?;
        Ok((plain()?, b))
    }
}

/// A replay must give the daemon's answers (it runs the same functions).
fn replay_answers(tally: &mut Tally, expected: &mut [Option<Answer>], rep: &ReplayOut) {
    for (pos, a) in rep.answers.iter().enumerate() {
        let r = match a {
            Some(a) => same(&mut expected[pos], a, "daemon's answer"),
            None => Err("replay produced no complete answer".to_owned()),
        };
        if let Err(e) = r {
            tally.fail(format!("replay job {pos}: {e}"));
        }
    }
}

fn same_counts(tally: &mut Tally, per_rep: &[Counts]) -> Vec<(String, u64)> {
    if per_rep.iter().any(|c| c != &per_rep[0]) {
        tally.fail("exact counts drifted across repetitions of the traced pass".to_owned());
    }
    let c = &per_rep[0];
    let mut v = vec![
        ("constraints.extract.count".to_owned(), c.constraints),
        ("core.job_work".to_owned(), c.job_work),
        ("core.picola.refine.work".to_owned(), c.refine_work),
        ("core.store.hits".to_owned(), c.store_hits),
        ("core.store.inserts".to_owned(), c.store_inserts),
    ];
    v.extend(
        c.wins
            .iter()
            .map(|(n, w)| (format!("core.portfolio.member.{n}.wins"), *w)),
    );
    v
}

/// Portfolio members of the standard line-up, in member order.
const MEMBERS: [&str; 6] = ["picola", "nova-ih", "anneal", "dicho", "natural", "sat"];

/// Per-layer metrics of one traced pass (the `server.*` daemon counters
/// are filled in by the caller).
fn layer_metrics(
    by_name: &std::collections::BTreeMap<String, spans::Row>,
    traced: &ReplayOut,
    plain: &ReplayOut,
) -> Metrics {
    let wall = |name: &str| by_name.get(name).map_or(0.0, |r| r.wall_ns as f64 / 1e6);
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let c = &traced.counts;
    let job_ms = wall("job");
    let extract_self = by_name
        .get("constraints.extract")
        .map_or(0.0, |r| r.self_ns as f64 / 1e6);
    let refine_ms = wall("core.picola.refine");
    let mut m = Metrics::default();
    m.push("server.residual_ms", 0.0, "ms");
    m.push("server.protocol.wall_ms", wall("server.protocol"), "ms");
    m.push("server.rejected", 0.0, "count");
    m.push("server.degraded", 0.0, "count");
    m.push("server.failed", 0.0, "count");
    m.push("fsm.parse_kiss.wall_ms", wall("fsm.parse_kiss"), "ms");
    m.push(
        "fsm.symbolic_cover.wall_ms",
        wall("fsm.symbolic_cover"),
        "ms",
    );
    m.push(
        "logic.parse_mv_pla.wall_ms",
        wall("logic.parse_mv_pla"),
        "ms",
    );
    m.push(
        "constraints.extract.wall_ms",
        wall("constraints.extract"),
        "ms",
    );
    m.push(
        "constraints.extract.share",
        if job_ms > 0.0 {
            extract_self / job_ms
        } else {
            0.0
        },
        "ratio",
    );
    m.push("constraints.extract.count", c.constraints as f64, "count");
    m.push("core.store.lookup.wall_ms", wall("core.store.lookup"), "ms");
    m.push(
        "core.store.hit_ratio",
        ratio(c.store_hits, c.store_misses),
        "ratio",
    );
    m.push("core.store.corrupt", c.store_corrupt as f64, "count");
    m.push("core.store.insert.wall_ms", wall("core.store.insert"), "ms");
    m.push("core.store.inserts", c.store_inserts as f64, "count");
    m.push(
        "core.store.insert_failures",
        c.store_insert_failures as f64,
        "count",
    );
    m.push("core.engine.run.wall_ms", wall("core.engine.run"), "ms");
    m.push("core.eval.wall_ms", wall("core.eval"), "ms");
    m.push("core.job_work", c.job_work as f64, "count");
    m.push(
        "logic.minimize_cache.hit_ratio",
        ratio(c.cache_hits, c.cache_misses),
        "ratio",
    );
    m.push(
        "core.picola.column.wall_ms",
        wall("core.picola.column"),
        "ms",
    );
    m.push("core.picola.refine.wall_ms", refine_ms, "ms");
    m.push("core.picola.refine.work", c.refine_work as f64, "count");
    let per_kwork = if c.refine_work > 0 {
        refine_ms / (c.refine_work as f64 / 1e3)
    } else {
        0.0
    };
    m.push("core.picola.refine.ms_per_kwork", per_kwork, "ms/kwork");
    let mut member_total = 0.0;
    for name in MEMBERS {
        let w = traced
            .member_wall
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, d)| d.as_secs_f64() * 1e3);
        let wins = c
            .wins
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, w)| *w);
        member_total += w;
        m.push(&format!("core.portfolio.member.{name}.wall_ms"), w, "ms");
        m.push(
            &format!("core.portfolio.member.{name}.wins"),
            wins as f64,
            "count",
        );
    }
    let useful = if member_total > 0.0 {
        traced.winner_wall.as_secs_f64() * 1e3 / member_total
    } else {
        0.0
    };
    m.push("core.portfolio.useful_share", useful, "ratio");
    m.push(
        "trace.overhead_share",
        traced.wall.as_secs_f64() / plain.wall.as_secs_f64().max(1e-9),
        "ratio",
    );
    m
}

/// Checks one portfolio answer against its instance.
fn large_answer(
    tally: &mut Tally,
    checker: &mut Checker,
    expected: &mut Option<Answer>,
    item: usize,
    inst: (usize, &[picola_constraints::GroupConstraint]),
    a: Option<&Answer>,
) -> Option<u64> {
    let r = match a {
        Some(a) => checker
            .check(item, inst.0, inst.1, a)
            .and_then(|()| same(expected, a, "answer of an earlier round")),
        None => Err("portfolio degraded or returned nothing".to_owned()),
    };
    match (r, a) {
        (Ok(()), Some(a)) => Some(a.cubes as u64),
        (Err(e), _) => {
            tally.fail(format!("instance {item}: {e}"));
            None
        }
        (Ok(()), None) => None,
    }
}

fn large_e2e(args: &Args) -> Result<Report, String> {
    let list = jobs::encode_large(args.seed);
    let input = jobs::large_record(&list);
    let (probe_n, probe_cs) = jobs::probe_instance();
    let mut checker = Checker::default();
    let mut expected: Vec<Option<Answer>> = vec![None; list.len() + 1];
    let mut tally = Tally::default();
    let (mut setups, mut cubes, mut wins) = (Vec::new(), Vec::new(), Vec::new());
    let mut timing = Timing::default();
    let mut sp = Spans::new(false);
    while timing.rounds() == 0 || timing.elapsed() < args.seconds || setups.len() < MIN_SETUPS {
        let measure = timing.rounds() == 0 || timing.elapsed() < args.seconds;
        if measure {
            timing.start_round();
        }
        let t0 = Instant::now();
        let mut engine = LargeEngine::new();
        let mut counts = Counts::default();
        let (probe, _, _) = engine.run(&mut sp, probe_n, &probe_cs, &mut counts);
        setups.push(t0.elapsed());
        let item = list.len();
        large_answer(
            &mut tally,
            &mut checker,
            &mut expected[item],
            item,
            (probe_n, &probe_cs),
            probe.as_ref(),
        );
        if !measure {
            continue;
        }
        let (mut c, mut ok, mut w) = (0, 0, vec![0u64; MEMBERS.len()]);
        let mut lat = Vec::with_capacity(list.len());
        let t1 = Instant::now();
        for (pos, inst) in list.iter().enumerate() {
            tally.attempted += 1;
            let t = Instant::now();
            let (a, members, winner) = engine.run(&mut sp, inst.n, &inst.constraints, &mut counts);
            lat.push(t.elapsed());
            if let Some(cb) = large_answer(
                &mut tally,
                &mut checker,
                &mut expected[pos],
                pos,
                (inst.n, &inst.constraints),
                a.as_ref(),
            ) {
                c += cb;
                ok += 1;
            }
            if let Some(slot) = members
                .get(winner)
                .and_then(|(n, _)| MEMBERS.iter().position(|m| m == n))
            {
                w[slot] += 1;
            }
        }
        timing.round(ok, t1.elapsed(), lat);
        cubes.push(c);
        wins.push(w);
    }
    let cubes_total = same_every_round(&mut tally, "cubes_total", &cubes);
    if wins.iter().any(|w| w != &wins[0]) {
        tally.fail(format!("portfolio wins drifted across rounds: {wins:?}"));
    }
    let metrics = e2e_metrics(&tally, &timing, cubes_total, &setups);
    let mut counts = vec![("cubes_total".to_owned(), cubes_total)];
    counts.extend(
        MEMBERS
            .iter()
            .zip(&wins[0])
            .map(|(n, w)| (format!("core.portfolio.member.{n}.wins"), *w)),
    );
    let notes = timing_notes(&timing, false);
    Ok(Report {
        metrics,
        tally,
        input,
        counts,
        rounds: timing.rounds(),
        layers: None,
        spans: None,
        notes,
    })
}

fn large_traced(args: &Args) -> Result<Report, String> {
    let list = jobs::encode_large(args.seed);
    let input = jobs::large_record(&list);
    let mut checker = Checker::default();
    let mut expected: Vec<Option<Answer>> = vec![None; list.len()];
    let mut tally = Tally::default();
    let mut reps: Vec<Metrics> = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let (mut layers, mut dump) = (None, None);
    let t0 = Instant::now();
    while another_fits(reps.len(), t0.elapsed().as_secs_f64(), args.seconds) {
        let ((plain, _), (traced, sp)) = alternate(
            reps.len(),
            || Ok(replay::replay_large(&list, false)),
            || Ok(replay::replay_large(&list, true)),
        )?;
        for rep in [&plain, &traced] {
            for (pos, inst) in list.iter().enumerate() {
                tally.attempted += 1;
                large_answer(
                    &mut tally,
                    &mut checker,
                    &mut expected[pos],
                    pos,
                    (inst.n, &inst.constraints),
                    rep.answers[pos].as_ref(),
                );
            }
        }
        let (by_path, by_name) = spans::reduce(&sp.spans);
        reps.push(layer_metrics(&by_name, &traced, &plain));
        if layers.is_none() {
            layers = Some(spans::layer_table(&by_path));
            dump = Some(spans::dump(&sp.spans));
        }
        counts.push(traced.counts);
    }
    let counts = same_counts(&mut tally, &counts);
    Ok(Report {
        metrics: Metrics::median_of(&reps),
        tally,
        input,
        counts,
        rounds: reps.len(),
        layers,
        spans: dump,
        notes: Vec::new(),
    })
}

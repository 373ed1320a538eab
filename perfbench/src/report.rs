//! Statistics, the result files, the cross-run determinism record, and the
//! final JSON line.

use crate::Report;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Named metrics in a fixed order, each with its unit.
#[derive(Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((
            name.to_owned(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }

    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(m) = self.0.iter_mut().find(|m| m.0 == name) {
            m.1 = if value.is_finite() { value } else { 0.0 };
        }
    }

    /// The per-name median over repetitions (all share one layout).
    pub fn median_of(reps: &[Metrics]) -> Metrics {
        let mut out = reps[0].clone();
        for (i, m) in out.0.iter_mut().enumerate() {
            m.1 = median(&reps.iter().map(|r| r.0[i].1).collect::<Vec<_>>());
        }
        out
    }
}

/// Jobs attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    /// Failures of the benchmark's own checks that are not jobs (drift).
    pub broken: bool,
}

impl Tally {
    /// Records a failed job (or a failed check, which fails the run too).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(reason);
        }
    }

    pub fn is_correct(&self) -> bool {
        self.failed == 0 && !self.broken
    }
}

/// The timed passes, one entry per round: answered jobs, wall seconds,
/// each job's latency in ms, and the round's peak RSS in MB.
#[derive(Default)]
pub struct Timing(Vec<(u64, f64, Vec<f64>, f64)>);

impl Timing {
    /// Resets the kernel's peak-RSS mark, so the next round's peak is its
    /// own. Where the reset is unsupported the mark stays the process peak.
    pub fn start_round(&self) {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    pub fn round(
        &mut self,
        ok: u64,
        wall: Duration,
        latencies: impl IntoIterator<Item = Duration>,
    ) {
        let ms = latencies
            .into_iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        self.0.push((ok, wall.as_secs_f64(), ms, peak_rss_mb()));
    }

    pub fn rounds(&self) -> usize {
        self.0.len()
    }

    /// Timed seconds so far.
    pub fn elapsed(&self) -> f64 {
        self.0.iter().map(|r| r.1).sum()
    }

    pub fn per_round<T>(&self, f: impl Fn(u64, f64, &[f64], f64) -> T) -> Vec<T> {
        self.0
            .iter()
            .map(|(ok, wall, ms, rss)| f(*ok, *wall, ms, *rss))
            .collect()
    }

    pub fn median_per_round(&self, f: impl Fn(u64, f64, &[f64], f64) -> f64) -> f64 {
        median(&self.per_round(f))
    }

    pub fn pooled(&self) -> Vec<f64> {
        self.0.iter().flat_map(|r| r.2.iter().copied()).collect()
    }
}

/// Linear interpolation between order statistics (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Peak resident set of this process (`VmHWM`) since start or the last
/// reset, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(n, v, u)| format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(n), json_str(u)))
            .collect();
    format!("{{{}}}", body.join(","))
}

/// Exact counts must repeat on every run of one build with the same
/// workload, seed and mode. The record is keyed by a digest of this
/// executable, so a rebuilt program starts a fresh record.
pub fn check_determinism(out: &Path, workload: &str, seed: u64, trace: bool, rep: &mut Report) {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| picola_logic::binio::fnv1a64(&bytes));
    let dir = out.join("counts");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!(
        "{workload}-s{seed}-t{}-{exe:016x}.txt",
        u8::from(trace)
    ));
    let now: String = rep
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(before) if before != now => {
            rep.tally.broken = true;
            rep.tally.reasons.push(format!(
                "exact counts drifted from an earlier run of this build ({}):\nbefore:\n{before}now:\n{now}",
                path.display()
            ));
        }
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::write(&path, &now);
        }
    }
}

/// Prints the metrics and the input record, writes the result files, and
/// prints the final JSON line.
pub fn finish(out: &Path, workload: &str, seed: u64, trace: bool, rep: &Report) {
    let stem = format!("{workload}-s{seed}-t{}", u8::from(trace));
    let i = &rep.input;
    let hist: Vec<String> = i
        .histogram
        .iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect();
    println!(
        "# workload {workload}  seed {seed}  trace {}  rounds {}",
        u8::from(trace),
        rep.rounds
    );
    println!(
        "# input digest {}  jobs/pass {}  distinct_share {:.4}  repeat_share {:.4}",
        i.digest, i.jobs, i.distinct_share, i.repeat_share
    );
    println!("# size histogram {}", hist.join(" "));
    for (k, v) in &rep.counts {
        println!("# exact {k} = {v}");
    }
    for (n, v, u) in &rep.metrics.0 {
        println!("{n:<44} {v:>14.4} {u}");
    }
    println!(
        "# fail_share {:.6} ({} of {} jobs failed)",
        rep.tally.failed as f64 / rep.tally.attempted.max(1) as f64,
        rep.tally.failed,
        rep.tally.attempted
    );
    for n in &rep.notes {
        println!("# {n}");
    }
    for r in &rep.tally.reasons {
        println!("# FAILED: {r}");
    }
    let mut files = Vec::new();
    if let Some(t) = &rep.layers {
        println!("# layer table (self time, first traced pass):");
        for line in t.lines().take(16) {
            println!("#   {line}");
        }
        let p = out.join(format!("{workload}-s{seed}.layers.tsv"));
        let _ = std::fs::write(&p, t);
        files.push(p);
    }
    if let Some(s) = &rep.spans {
        let p = out.join(format!("{workload}-s{seed}.spans.jsonl"));
        let _ = std::fs::write(&p, s);
        files.push(p);
    }
    let counts: Vec<String> = rep
        .counts
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let hist: Vec<String> = i
        .histogram
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let reasons: Vec<String> = rep.tally.reasons.iter().map(|r| json_str(r)).collect();
    let filesj: Vec<String> = files
        .iter()
        .map(|p| json_str(&p.to_string_lossy()))
        .collect();
    let notes: Vec<String> = rep.notes.iter().map(|n| json_str(n)).collect();
    let results = format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"rounds\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
\"input\":{{\"digest\":{},\"jobs\":{},\"distinct_share\":{},\"repeat_share\":{},\"histogram\":{{{}}}}},\
\"exact_counts\":{{{}}},\"metrics\":{},\"notes\":[{}],\"failures\":[{}],\"files\":[{}]}}\n",
        json_str(workload),
        rep.rounds,
        rep.tally.is_correct(),
        rep.tally.attempted,
        rep.tally.failed,
        json_str(&i.digest),
        i.jobs,
        i.distinct_share,
        i.repeat_share,
        hist.join(","),
        counts.join(","),
        metrics_json(&rep.metrics),
        notes.join(","),
        reasons.join(","),
        filesj.join(",")
    );
    let _ = std::fs::write(out.join(format!("{stem}.json")), results);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        rep.tally.is_correct(),
        rep.tally.attempted.max(1),
        rep.tally.failed,
        metrics_json(&rep.metrics)
    );
}

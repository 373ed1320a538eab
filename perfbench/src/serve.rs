//! Driving `picola serve` over loopback: a fresh daemon per round, two
//! `Client` connections in a closed loop, client-observed latency per job.

use crate::check::Answer;
use crate::jobs::ServeJobs;
use crate::replay::JOB_BUDGET_MS;
use picola_server::{
    Client, JobKind, JobRequest, RetryPolicy, Server, ServerConfig, ServerHandle, ServerStats,
    Status,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon worker threads and client connections (the machine's two cores).
const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// What one job of the timed stream got back.
pub enum Outcome {
    Answered(Answer),
    /// Degraded, errored, rejected after retries, or lost; with the reason.
    Failed(String),
}

pub struct Round {
    pub setup: Duration,
    pub wall: Duration,
    /// Per stream position: latency and outcome.
    pub jobs: Vec<(Duration, Outcome)>,
    /// Warm-pass answers, per warm position.
    pub warm: Vec<Outcome>,
    pub stats: ServerStats,
}

/// An encode request carrying the workloads' per-job budget.
pub fn request(id: String, kind: JobKind, payload: &str) -> JobRequest {
    let mut r = JobRequest::new(id, kind, payload);
    r.budget_ms = Some(JOB_BUDGET_MS);
    r
}

fn submit(client: &mut Client, req: &JobRequest) -> Outcome {
    match client.submit_with_retry(req, &RetryPolicy::default()) {
        Ok(o) if o.response.status == Some(Status::Ok) => match Answer::from_body(&o.response.body)
        {
            Some(a) => Outcome::Answered(a),
            None => Outcome::Failed("ok response without a readable result".to_owned()),
        },
        Ok(o) => Outcome::Failed(format!(
            "status {:?}: {}",
            o.response.status,
            o.response
                .body
                .get_str("error")
                .or(o.response.body.get_str("degraded_reason"))
                .unwrap_or("")
        )),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Starts a daemon with a fresh store and waits for its first answered
/// ping; returns the handle, a connected client, and the set-up time.
pub fn start(store_dir: &Path) -> std::io::Result<(ServerHandle, Client, Duration)> {
    let t0 = Instant::now();
    let handle = Server::start(ServerConfig {
        workers: WORKERS,
        max_budget_ms: JOB_BUDGET_MS,
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })?;
    let mut client = Client::new(handle.addr().to_string());
    let ping = JobRequest::new("ping", JobKind::Ping, "");
    match client.submit_with_retry(&ping, &RetryPolicy::default()) {
        Ok(o) if o.response.status == Some(Status::Ok) => Ok((handle, client, t0.elapsed())),
        other => {
            handle.shutdown();
            Err(std::io::Error::other(format!(
                "daemon did not answer its first ping: {other:?}"
            )))
        }
    }
}

/// Stops a daemon and removes its store.
pub fn stop(handle: ServerHandle, store_dir: &Path) -> ServerStats {
    let stats = handle.shutdown();
    let _ = std::fs::remove_dir_all(store_dir);
    stats
}

/// One round: fresh daemon, untimed warm pass, timed closed-loop stream.
pub fn round(jobs: &ServeJobs, store_dir: &Path) -> std::io::Result<Round> {
    let (handle, mut warm_client, setup) = start(store_dir)?;
    let warm = jobs
        .warm
        .iter()
        .map(|&i| {
            let p = &jobs.payloads[i];
            submit(&mut warm_client, &request(format!("w{i}"), p.kind, &p.text))
        })
        .collect();
    drop(warm_client);
    let requests: Vec<JobRequest> = jobs
        .stream
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            request(
                format!("j{pos}"),
                jobs.payloads[i].kind,
                &jobs.payloads[i].text,
            )
        })
        .collect();
    let addr = handle.addr().to_string();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Duration, Outcome)>> =
        Mutex::new(Vec::with_capacity(requests.len()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut client = Client::new(addr.clone());
                let mut mine = Vec::new();
                loop {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(pos) else { break };
                    let t = Instant::now();
                    let out = submit(&mut client, req);
                    mine.push((pos, t.elapsed(), out));
                }
                done.lock()
                    .expect("a client thread panicked while holding the results")
                    .extend(mine);
            });
        }
    });
    let wall = t0.elapsed();
    let stats = stop(handle, store_dir);
    let mut done = done
        .into_inner()
        .expect("a client thread panicked while holding the results");
    done.sort_by_key(|d| d.0);
    Ok(Round {
        setup,
        wall,
        jobs: done.into_iter().map(|(_, l, o)| (l, o)).collect(),
        warm,
        stats,
    })
}

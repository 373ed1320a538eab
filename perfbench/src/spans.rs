//! The benchmark's own span recorder and its reduction to self time per
//! layer.
//!
//! Spans are opened around calls into the program's public functions and
//! kept in memory. A few spans are *derived*: their durations come from
//! the program's `obs` wall-clock tree or from `MemberOutcome::wall`, and
//! their intervals are laid out inside the parent in the order the
//! program runs them (see `place_picola` and `place_members`).

use picola_logic::obs::SpanSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
    pub derived: bool,
}

/// An in-memory span list. A disabled recorder records nothing, so the
/// untraced replay runs the same code with only an `Instant` per job.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span index (`None` when disabled).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(self), None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job: self.job,
            derived: false,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        (out, Some(idx))
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Records a derived span of `dur_ns` from `start_ns`, clipped to
    /// `parent`.
    pub fn derived(&mut self, name: &str, parent: usize, start_ns: u64, dur_ns: u64) -> usize {
        let end = (start_ns + dur_ns).min(self.spans[parent].end_ns);
        let job = self.spans[parent].job;
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: start_ns.min(end),
            end_ns: end,
            parent: Some(parent),
            job,
            derived: true,
        });
        self.spans.len() - 1
    }

    /// Lays a PICOLA `obs` span (`picola` → `column.*`, `refine`) out under
    /// `parent` from `start_ns`: columns run first, back to back, then
    /// refine. Returns the end of the `picola` interval.
    pub fn place_picola(&mut self, parent: usize, start_ns: u64, picola: &SpanSnapshot) -> u64 {
        let wall = picola.wall_ns.unwrap_or(0);
        let p = self.derived("core.picola", parent, start_ns, wall);
        let mut t = start_ns;
        for child in &picola.children {
            let name = if child.name.starts_with("column.") {
                "core.picola.column"
            } else if child.name == "refine" {
                "core.picola.refine"
            } else {
                continue;
            };
            let d = child.wall_ns.unwrap_or(0);
            self.derived(name, p, t, d);
            t += d;
        }
        self.spans[p].end_ns
    }

    /// Lays portfolio members out under `parent` the way the portfolio
    /// schedules them: `threads` workers each take the next member in
    /// member order when they free up.
    pub fn place_members(
        &mut self,
        parent: usize,
        threads: usize,
        members: &[(String, u64)],
        obs_members: &[&SpanSnapshot],
    ) {
        let start = self.spans[parent].start_ns;
        let mut free = vec![start; threads.clamp(1, members.len().max(1))];
        for (i, (name, wall)) in members.iter().enumerate() {
            let w = (0..free.len()).min_by_key(|&w| free[w]).unwrap_or(0);
            let s = free[w];
            free[w] += wall;
            let m = self.derived(&format!("core.portfolio.member.{name}"), parent, s, *wall);
            // The picola member runs one `picola` pass per cost model.
            let mut t = s;
            for p in obs_members
                .get(i)
                .into_iter()
                .flat_map(|snap| &snap.children)
            {
                if p.name == "picola" {
                    t = self.place_picola(m, t, p);
                }
            }
        }
    }
}

/// One row of the layer table.
#[derive(Default, Clone)]
pub struct Row {
    pub calls: u64,
    pub wall_ns: u64,
    pub self_ns: u64,
}

/// Reduces spans to rows keyed by span path (`job/core.engine.run/...`)
/// and by span name. Self time is a span's duration minus the part of
/// it that the union of its children's intervals covers.
pub fn reduce(spans: &[Span]) -> (BTreeMap<String, Row>, BTreeMap<String, Row>) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut by_path: BTreeMap<String, Row> = BTreeMap::new();
    let mut by_name: BTreeMap<String, Row> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents are always recorded before their children.
        let path = match s.parent {
            Some(p) => format!("{}/{}", paths[p], s.name),
            None => s.name.clone(),
        };
        paths.push(path.clone());
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let own = dur.saturating_sub(covered);
        for (map, key) in [(&mut by_path, path), (&mut by_name, s.name.clone())] {
            let row = map.entry(key).or_default();
            row.calls += 1;
            row.wall_ns += dur;
            row.self_ns += own;
        }
    }
    (by_path, by_name)
}

/// The layer table as tab-separated text: path, calls, wall, self, share
/// of self time in the total wall of the root spans.
pub fn layer_table(by_path: &BTreeMap<String, Row>) -> String {
    let total: u64 = by_path
        .iter()
        .filter(|(k, _)| !k.contains('/'))
        .map(|(_, r)| r.wall_ns)
        .sum();
    let mut rows: Vec<_> = by_path.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = String::from("path\tcalls\twall_ms\tself_ms\tself_share\n");
    for (path, r) in rows {
        let _ = writeln!(
            out,
            "{path}\t{}\t{:.3}\t{:.3}\t{:.4}",
            r.calls,
            r.wall_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.self_ns as f64 / total.max(1) as f64
        );
    }
    out
}

/// The spans as JSON lines.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{},\"derived\":{}}}",
            s.name, s.start_ns, s.end_ns, s.job, s.derived
        );
    }
    out
}

//! Content-addressed on-disk store of minimized encoding results.
//!
//! Repeated bench/CI/daemon runs re-minimize the same instances from
//! scratch; this store makes the second run nearly free. The key is the
//! FNV-1a digest of the *canonical job bytes* (symbol count, optional code
//! length override, and the sorted member list of every constraint — see
//! [`canonical_job_bytes`]), so two textually different descriptions of
//! the same job share one entry; the value is a compact binary
//! [`StoredResult`] record (DESIGN.md §18 has the byte-layout tables).
//!
//! Durability discipline:
//!
//! - **Atomic inserts** — records are written to a unique tmpfile in the
//!   store directory and `rename`d into place, so readers never observe a
//!   half-written entry and concurrent writers race benignly (both write
//!   identical bytes for the same key; either rename wins).
//! - **Corruption-tolerant reads** — a missing file is a miss; a
//!   truncated, garbled, or semantically invalid record (codes that fail
//!   [`Encoding::new`]) is an *honest counted miss*: the caller recomputes
//!   and overwrites, and [`StoreStats::corrupt`] records the event. The
//!   store never invents results and never panics on hostile bytes.
//! - **Only complete results** — callers must not insert degraded
//!   (budget-exhausted) outputs; [`StoredResult::from_output`] enforces
//!   this by returning `None` for them. A warm lookup therefore always
//!   reproduces what an unbounded in-memory run would have produced.
//! - **Chaos-reachable I/O** — every lookup and insert passes the
//!   `store.io` trigger point ([`picola_logic::chaos`]); a firing lookup
//!   degrades to a counted miss and a firing insert is skipped, modeling
//!   a failing disk without inventing data.

use crate::engine::{Job, JobOutput};
use picola_constraints::{min_code_length, Encoding, GroupConstraint};
use picola_logic::binio::{ByteReader, ByteWriter, Fnv64};
use picola_logic::chaos;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Record-kind tag of canonical job bytes (digest input, never persisted).
pub const KIND_JOB: u8 = 1;
/// Record-kind tag of a stored result record.
pub const KIND_RESULT: u8 = 2;

/// Upper bound accepted for symbol counts / constraint counts when
/// decoding store records — far above anything the encoders accept, low
/// enough that corrupt counts cannot drive huge allocations.
const MAX_DECODE_COUNT: u64 = 1 << 24;

/// Content address of one encode job: the FNV-1a digest of its canonical
/// bytes. Displayed and used on disk as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey(pub u64);

impl StoreKey {
    /// The on-disk file name of this key.
    #[must_use]
    pub fn file_name(self) -> String {
        format!("{:016x}.rec", self.0)
    }
}

/// Canonical binary form of an encode job: versioned header, `n`, the
/// `nv` override (0 = none, else `nv + 1`), then each constraint as a
/// sorted, length-prefixed member list. Constraint *order* is preserved —
/// evaluation reports per-constraint costs positionally — but member
/// order inside a constraint is normalized.
#[must_use]
pub fn canonical_job_bytes(
    n: usize,
    nv_override: Option<usize>,
    constraints: &[GroupConstraint],
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16 + constraints.len() * 8);
    w.header(KIND_JOB);
    w.varint(n as u64);
    w.varint(nv_override.map_or(0, |nv| nv as u64 + 1));
    w.varint(constraints.len() as u64);
    let mut members: Vec<u64> = Vec::new();
    for c in constraints {
        members.clear();
        members.extend(c.members().iter().map(|m| m as u64));
        members.sort_unstable();
        w.varint(members.len() as u64);
        for &m in &members {
            w.varint(m);
        }
    }
    w.into_bytes()
}

/// The content address of an encode job under `nv_override`.
#[must_use]
pub fn job_key(n: usize, nv_override: Option<usize>, constraints: &[GroupConstraint]) -> StoreKey {
    let bytes = canonical_job_bytes(n, nv_override, constraints);
    let mut h = Fnv64::new();
    h.update(&bytes);
    StoreKey(h.finish())
}

/// The content address of a [`Job`], or `None` for job kinds the store
/// does not cache (evaluation jobs are already nearly free through the
/// minimize memo).
#[must_use]
pub fn key_for(job: &Job, nv_override: Option<usize>) -> Option<StoreKey> {
    match job {
        Job::Encode { n, constraints } => Some(job_key(*n, nv_override, constraints)),
        Job::Evaluate { .. } => None,
    }
}

/// One minimized result as persisted: everything a warm path needs to
/// reproduce the cold answer bit-identically at the job-output surface
/// (codes plus the aggregate evaluation the daemon and bench report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredResult {
    /// Code length in bits.
    pub nv: usize,
    /// One code per symbol, distinct, each `< 1 << nv`.
    pub codes: Vec<u32>,
    /// Total minimized cube count across evaluated constraints.
    pub total_cubes: usize,
    /// Constraints embedded as faces.
    pub satisfied: usize,
    /// Constraints evaluated.
    pub evaluated: usize,
}

impl StoredResult {
    /// Captures a *complete* encode output; `None` when the output is
    /// degraded (never cached — budgets vary across runs) or not an
    /// encode result.
    #[must_use]
    pub fn from_output(output: &JobOutput) -> Option<StoredResult> {
        match output {
            JobOutput::Encoded {
                encoding,
                evaluation,
                completion,
            } if completion.is_complete() => Some(StoredResult {
                nv: encoding.nv(),
                codes: encoding.codes().to_vec(),
                total_cubes: evaluation.total_cubes,
                satisfied: evaluation.satisfied,
                evaluated: evaluation.evaluated,
            }),
            _ => None,
        }
    }

    /// Whether this record can be the answer to `job` keyed with
    /// `nv_override` (see [`key_for`]): one code per symbol, the code
    /// length the job asks for, and `satisfied <= evaluated <=` the job's
    /// constraint count. A content address is only a 64-bit digest, so a
    /// record that decodes cleanly may still belong to another job;
    /// [`StoredResult::from_bytes`] checks only what a record says of
    /// itself.
    #[must_use]
    pub fn answers(&self, job: &Job, nv_override: Option<usize>) -> bool {
        match job {
            Job::Encode { n, constraints } => {
                self.codes.len() == *n
                    && self.nv == nv_override.unwrap_or_else(|| min_code_length(*n))
                    && self.satisfied <= self.evaluated
                    && self.evaluated <= constraints.len()
            }
            Job::Evaluate { .. } => false,
        }
    }

    /// The stored encoding, re-validated (the decode path has already
    /// checked it, so this cannot fail for records produced by
    /// [`ResultStore::lookup`]).
    #[must_use]
    pub fn encoding(&self) -> Option<Encoding> {
        Encoding::new(self.nv, self.codes.clone()).ok()
    }

    /// Serializes the record (DESIGN.md §18).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(16 + self.codes.len() * 3);
        w.header(KIND_RESULT);
        w.varint(self.nv as u64);
        w.varint(self.codes.len() as u64);
        for &c in &self.codes {
            w.varint(u64::from(c));
        }
        w.varint(self.total_cubes as u64);
        w.varint(self.satisfied as u64);
        w.varint(self.evaluated as u64);
        w.into_bytes()
    }

    /// Decodes and *semantically validates* a record: structural errors,
    /// trailing bytes, out-of-range or duplicate codes all return `None`
    /// (the store treats that as a corrupt entry).
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<StoredResult> {
        let mut r = ByteReader::new(bytes);
        r.header(KIND_RESULT).ok()?;
        let nv = usize::try_from(r.varint_capped(64, "code length").ok()?).ok()?;
        let count = r.varint_capped(MAX_DECODE_COUNT, "code count").ok()?;
        let mut codes = Vec::with_capacity(usize::try_from(count).ok()?);
        for _ in 0..count {
            codes.push(u32::try_from(r.varint_capped(u64::from(u32::MAX), "code").ok()?).ok()?);
        }
        let total_cubes = usize::try_from(r.varint().ok()?).ok()?;
        let satisfied = usize::try_from(r.varint().ok()?).ok()?;
        let evaluated = usize::try_from(r.varint().ok()?).ok()?;
        r.finish().ok()?;
        // Semantic validation through the same gate the encoders use.
        Encoding::new(nv, codes.clone()).ok()?;
        Some(StoredResult {
            nv,
            codes,
            total_cubes,
            satisfied,
            evaluated,
        })
    }
}

/// Monotonic store counters, snapshot by [`ResultStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups with no usable entry (includes corrupt entries and
    /// injected I/O faults).
    pub misses: u64,
    /// Misses caused by an unreadable or invalid entry specifically.
    pub corrupt: u64,
    /// Records durably renamed into place.
    pub inserts: u64,
    /// Inserts skipped or failed (I/O error, injected fault, degraded
    /// result offered).
    pub insert_failures: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    inserts: AtomicU64,
    insert_failures: AtomicU64,
}

/// A content-addressed directory of [`StoredResult`] records, safe for
/// concurrent readers and writers in any number of processes.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    stats: StatsInner,
    tmp_seq: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            stats: StatsInner::default(),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks `key` up. A missing entry is a miss; an unreadable or
    /// invalid entry is a *corrupt* miss; an injected `store.io` fault is
    /// a plain miss (the disk "failed"). Never panics, never errors —
    /// the caller's fallback is always "recompute".
    pub fn lookup(&self, key: StoreKey) -> Option<StoredResult> {
        self.lookup_for(key, |_| true)
    }

    /// [`ResultStore::lookup`] for a caller that knows the job `key` was
    /// derived from: a record that decodes but fails `answers` (see
    /// [`StoredResult::answers`]) is counted and returned like any other
    /// corrupt entry.
    pub fn lookup_for(
        &self,
        key: StoreKey,
        answers: impl FnOnce(&StoredResult) -> bool,
    ) -> Option<StoredResult> {
        if chaos::should_fire("store.io") {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.dir.join(key.file_name());
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match StoredResult::from_bytes(&bytes).filter(answers) {
            Some(result) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            None => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `result` under `key` atomically (tmpfile + rename).
    /// Returns `true` when the record is durably in place. Failures —
    /// I/O errors, injected `store.io` faults — are counted and absorbed:
    /// a store that cannot write degrades the *next* run, never this one.
    pub fn insert(&self, key: StoreKey, result: &StoredResult) -> bool {
        if chaos::should_fire("store.io") {
            self.stats.insert_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp-{:016x}-{}-{seq}",
            key.0,
            std::process::id()
        ));
        let finish = self.dir.join(key.file_name());
        let written = fs::write(&tmp, result.to_bytes())
            .and_then(|()| fs::rename(&tmp, &finish))
            .is_ok();
        if written {
            self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
            self.stats.insert_failures.fetch_add(1, Ordering::Relaxed);
        }
        written
    }

    /// Inserts the result of `output` if (and only if) it is a complete
    /// encode output; degraded results are counted as insert failures so
    /// cache-poisoning attempts stay visible.
    pub fn insert_output(&self, key: StoreKey, output: &JobOutput) -> bool {
        match StoredResult::from_output(output) {
            Some(result) => self.insert(key, &result),
            None => {
                self.stats.insert_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// A snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            insert_failures: self.stats.insert_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use picola_constraints::SymbolSet;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "picola-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_result() -> StoredResult {
        StoredResult {
            nv: 3,
            codes: vec![0, 1, 2, 3, 4, 5],
            total_cubes: 7,
            satisfied: 2,
            evaluated: 3,
        }
    }

    #[test]
    fn records_round_trip() {
        let r = sample_result();
        let bytes = r.to_bytes();
        assert_eq!(StoredResult::from_bytes(&bytes), Some(r.clone()));
        assert_eq!(StoredResult::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    #[test]
    fn corrupt_records_decode_to_none() {
        let bytes = sample_result().to_bytes();
        for cut in 0..bytes.len() {
            assert!(StoredResult::from_bytes(&bytes[..cut]).is_none());
        }
        // Duplicate codes fail the semantic gate.
        let bad = StoredResult {
            codes: vec![1, 1, 2],
            ..sample_result()
        };
        assert!(StoredResult::from_bytes(&bad.to_bytes()).is_none());
        // Out-of-range code for nv.
        let bad = StoredResult {
            nv: 1,
            codes: vec![0, 5],
            ..sample_result()
        };
        assert!(StoredResult::from_bytes(&bad.to_bytes()).is_none());
    }

    #[test]
    fn canonical_bytes_normalize_member_order_only() {
        let n = 8;
        let a = [GroupConstraint::new(SymbolSet::from_members(n, [2, 5, 1]))];
        let b = [GroupConstraint::new(SymbolSet::from_members(n, [1, 2, 5]))];
        assert_eq!(job_key(n, None, &a), job_key(n, None, &b));
        assert_ne!(
            job_key(n, None, &a),
            job_key(n, Some(4), &a),
            "nv override is part of the address"
        );
        let c = [GroupConstraint::new(SymbolSet::from_members(n, [1, 2, 6]))];
        assert_ne!(job_key(n, None, &a), job_key(n, None, &c));
    }

    #[test]
    fn hit_miss_and_corrupt_paths_count_honestly() {
        let dir = tmp_dir("paths");
        let store = ResultStore::open(&dir).unwrap();
        let key = StoreKey(0xdead_beef);
        assert!(store.lookup(key).is_none(), "empty store misses");
        let r = sample_result();
        assert!(store.insert(key, &r));
        assert_eq!(store.lookup(key), Some(r));
        // Garble the entry on disk: the next lookup is a corrupt miss.
        fs::write(dir.join(key.file_name()), b"not a record").unwrap();
        assert!(store.lookup(key).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt, s.inserts), (1, 2, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_for_another_job_is_a_corrupt_miss() {
        let dir = tmp_dir("answers");
        let store = ResultStore::open(&dir).unwrap();
        let key = StoreKey(0xfeed);
        let r = sample_result(); // 6 codes, nv 3, 2 of 3 satisfied
        assert!(store.insert(key, &r));
        let job = |n: usize, m: usize| Job::Encode {
            n,
            constraints: (0..m)
                .map(|i| GroupConstraint::new(SymbolSet::from_members(n, [i, i + 1])))
                .collect(),
        };
        assert!(r.answers(&job(6, 3), None));
        assert!(!r.answers(&job(7, 3), None), "code count");
        assert!(!r.answers(&job(6, 3), Some(4)), "code length");
        assert!(!r.answers(&job(6, 2), None), "evaluated > constraints");
        let lying = StoredResult {
            satisfied: 4,
            ..sample_result()
        };
        assert!(!lying.answers(&job(6, 3), None), "satisfied > evaluated");
        assert_eq!(
            store.lookup_for(key, |x| x.answers(&job(6, 3), None)),
            Some(r)
        );
        assert!(store
            .lookup_for(key, |x| x.answers(&job(9, 3), None))
            .is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_store_faults_degrade_to_misses() {
        let dir = tmp_dir("chaos");
        let store = ResultStore::open(&dir).unwrap();
        let key = StoreKey(7);
        let r = sample_result();
        {
            let _guard = chaos::arm("store.io", 0);
            assert!(!store.insert(key, &r), "firing insert is skipped");
            assert!(store.lookup(key).is_none());
        }
        assert!(store.insert(key, &r), "disarmed store works again");
        assert_eq!(store.lookup(key), Some(r));
        let s = store.stats();
        assert_eq!(s.insert_failures, 1);
        assert!(s.misses >= 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

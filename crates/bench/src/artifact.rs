//! Compact binary artifact codecs for bench corpora and stream records.
//!
//! The huge tier moves thousands of instances and result records per run;
//! serialized as JSON they were the dominant I/O cost of the bench path.
//! These codecs put them in the `picola_logic::binio` wire format
//! (versioned self-describing header, LEB128 varints, length-prefixed
//! strings — byte layouts in DESIGN.md §18). Corpus instances also render
//! as deterministic JSON ([`instance_json`]) for debugging, and the decode
//! of a binary artifact re-encodes bit-identically (pinned by the test
//! suite across the standard and large tiers).
//!
//! Decoding never panics: hostile bytes yield structured
//! [`BinioError`]s, the same bar as the store records and the PR 1
//! parsers.

use crate::corpus::Instance;
use picola_constraints::{GroupConstraint, SymbolSet};
use picola_logic::binio::{BinioError, ByteReader, ByteWriter};

/// Record-kind tag of one corpus instance.
pub const KIND_INSTANCE: u8 = 3;
/// Record-kind tag of a stream-record batch (one bench run's results).
pub const KIND_STREAM: u8 = 4;

/// Caps on decoded counts — generous versus anything the generators
/// produce, tight enough that corrupt counts cannot drive allocations.
const MAX_SYMBOLS: u64 = 1 << 20;
const MAX_CONSTRAINTS: u64 = 1 << 20;
const MAX_RECORDS: u64 = 1 << 26;

/// One processed instance as the streaming pipeline records it: the full
/// result fingerprint (codes digest + aggregate evaluation) in a few
/// dozen bytes, instead of the multi-KB JSON row the small tiers emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRecord {
    /// Corpus index of the instance.
    pub index: u64,
    /// Content address of the job (see `picola_core::store::job_key`).
    pub key: u64,
    /// Symbol count.
    pub n: u64,
    /// Code length of the produced encoding.
    pub nv: u64,
    /// FNV-1a digest of the code words (little-endian `u32`s, in symbol
    /// order) — result identity without carrying the codes themselves.
    pub codes_digest: u64,
    /// Total minimized cube count.
    pub total_cubes: u64,
    /// Constraints embedded as faces.
    pub satisfied: u64,
    /// Constraints evaluated.
    pub evaluated: u64,
    /// Whether the result came from the on-disk store.
    pub store_hit: bool,
    /// Whether the run completed within budget.
    pub complete: bool,
}

/// Serializes one instance (DESIGN.md §18). Constraint members are
/// written in ascending order — [`SymbolSet`] iteration order — which is
/// exactly what the generator's set semantics preserve, so decode →
/// re-encode is bit-identical.
#[must_use]
pub fn encode_instance(inst: &Instance) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32 + inst.constraints.len() * 8);
    w.header(KIND_INSTANCE);
    w.str(&inst.name);
    w.varint(inst.n as u64);
    w.varint(inst.seed);
    w.varint(inst.nv_override.map_or(0, |nv| nv as u64 + 1));
    w.varint(inst.constraints.len() as u64);
    for c in inst.constraints.iter() {
        let members: Vec<u64> = c.members().iter().map(|m| m as u64).collect();
        w.varint(members.len() as u64);
        for &m in &members {
            w.varint(m);
        }
    }
    w.into_bytes()
}

/// Decodes one instance, validating counts, member ranges, and that no
/// trailing bytes follow.
///
/// # Errors
///
/// Structural corruption (truncation, bad header, oversized counts) or
/// semantic corruption (members outside `0..n`).
pub fn decode_instance(bytes: &[u8]) -> Result<Instance, BinioError> {
    let mut r = ByteReader::new(bytes);
    r.header(KIND_INSTANCE)?;
    let name = r.str()?.to_owned();
    let n_at = r.position();
    let n = usize_field(r.varint_capped(MAX_SYMBOLS, "symbol count")?, n_at)?;
    let seed = r.varint()?;
    let nv_at = r.position();
    let nv_raw = r.varint_capped(65, "nv override")?;
    let nv_override = if nv_raw == 0 {
        None
    } else {
        Some(usize_field(nv_raw - 1, nv_at)?)
    };
    let count = r.varint_capped(MAX_CONSTRAINTS, "constraint count")?;
    let mut constraints = Vec::with_capacity(usize_field(count, r.position())?);
    for _ in 0..count {
        let size = r.varint_capped(MAX_SYMBOLS, "member count")?;
        let mut members = Vec::with_capacity(usize_field(size, r.position())?);
        for _ in 0..size {
            let at = r.position();
            let m = r.varint()?;
            if m >= n as u64 {
                return Err(BinioError {
                    offset: at,
                    message: format!("member {m} outside the {n}-symbol universe"),
                });
            }
            members.push(usize_field(m, at)?);
        }
        constraints.push(GroupConstraint::new(SymbolSet::from_members(n, members)));
    }
    r.finish()?;
    Ok(Instance {
        name,
        n,
        constraints,
        seed,
        nv_override,
    })
}

/// The deterministic JSON debug export of one instance — field-for-field
/// what the binary artifact carries, for human eyes and `jq`.
#[must_use]
pub fn instance_json(inst: &Instance) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"name\":\"{}\",\"n\":{},\"seed\":{},\"nv_override\":",
        inst.name, inst.n, inst.seed
    );
    match inst.nv_override {
        Some(nv) => {
            let _ = write!(s, "{nv}");
        }
        None => s.push_str("null"),
    }
    s.push_str(",\"constraints\":[");
    for (i, c) in inst.constraints.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, m) in c.members().iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{m}");
        }
        s.push(']');
    }
    s.push_str("]}");
    s
}

/// Serializes a batch of stream records as one artifact (DESIGN.md §18).
#[must_use]
pub fn encode_records(records: &[StreamRecord]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16 + records.len() * 24);
    w.header(KIND_STREAM);
    w.varint(records.len() as u64);
    for rec in records {
        w.varint(rec.index);
        w.varint(rec.key);
        w.varint(rec.n);
        w.varint(rec.nv);
        w.varint(rec.codes_digest);
        w.varint(rec.total_cubes);
        w.varint(rec.satisfied);
        w.varint(rec.evaluated);
        w.u8(u8::from(rec.store_hit) | (u8::from(rec.complete) << 1));
    }
    w.into_bytes()
}

/// Decodes a stream-record batch.
///
/// # Errors
///
/// Structural corruption; unknown flag bits are corruption too (a record
/// written by a future writer would carry a bumped format version, not
/// stray bits).
pub fn decode_records(bytes: &[u8]) -> Result<Vec<StreamRecord>, BinioError> {
    let mut r = ByteReader::new(bytes);
    r.header(KIND_STREAM)?;
    let count = r.varint_capped(MAX_RECORDS, "record count")?;
    let mut records = Vec::with_capacity(usize_field(count.min(1 << 16), r.position())?);
    for _ in 0..count {
        let index = r.varint()?;
        let key = r.varint()?;
        let n = r.varint()?;
        let nv = r.varint()?;
        let codes_digest = r.varint()?;
        let total_cubes = r.varint()?;
        let satisfied = r.varint()?;
        let evaluated = r.varint()?;
        let at = r.position();
        let flags = r.u8()?;
        if flags > 0b11 {
            return Err(BinioError {
                offset: at,
                message: format!("unknown flag bits 0b{flags:b}"),
            });
        }
        records.push(StreamRecord {
            index,
            key,
            n,
            nv,
            codes_digest,
            total_cubes,
            satisfied,
            evaluated,
            store_hit: flags & 1 != 0,
            complete: flags & 2 != 0,
        });
    }
    r.finish()?;
    Ok(records)
}

fn usize_field(v: u64, offset: usize) -> Result<usize, BinioError> {
    usize::try_from(v).map_err(|_| BinioError {
        offset,
        message: format!("value {v} does not fit usize"),
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::corpus::{generate_iter, Tier};

    #[test]
    fn instances_round_trip_bit_identically_on_small_tiers() {
        for tier in [Tier::Standard, Tier::Large] {
            for inst in generate_iter(6, 0xA11CE, tier) {
                let bytes = encode_instance(&inst);
                let back = decode_instance(&bytes).unwrap();
                assert_eq!(encode_instance(&back), bytes, "{}", inst.name);
                assert_eq!(instance_json(&back), instance_json(&inst));
            }
        }
    }

    #[test]
    fn instance_truncations_and_flips_never_panic() {
        let inst = generate_iter(1, 3, Tier::Standard).next().unwrap();
        let bytes = encode_instance(&inst);
        for cut in 0..bytes.len() {
            assert!(decode_instance(&bytes[..cut]).is_err());
        }
        for i in 0..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[i] ^= 0x41;
            let _ = decode_instance(&garbled); // must not panic
        }
    }

    #[test]
    fn record_batches_round_trip() {
        let records = vec![
            StreamRecord {
                index: 0,
                key: u64::MAX,
                n: 9,
                nv: 4,
                codes_digest: 0xabc,
                total_cubes: 7,
                satisfied: 2,
                evaluated: 3,
                store_hit: true,
                complete: true,
            },
            StreamRecord {
                index: 1,
                key: 0,
                n: 6,
                nv: 3,
                codes_digest: 1,
                total_cubes: 4,
                satisfied: 3,
                evaluated: 3,
                store_hit: false,
                complete: false,
            },
        ];
        let bytes = encode_records(&records);
        assert_eq!(decode_records(&bytes).unwrap(), records);
        assert!(decode_records(&bytes[..bytes.len() - 1]).is_err());
    }
}

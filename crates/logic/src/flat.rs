//! Flat, allocation-free cover kernels.
//!
//! The legacy pipeline represents a cover as `Vec<Cube>` with every cube
//! owning its own `Vec<u64>`; each ESPRESSO pass then clones, sorts, and
//! rebuilds those vectors, so steady-state minimization is dominated by
//! allocator traffic. This module provides a flat alternative:
//!
//! * [`FlatCover`] — one contiguous `Vec<u64>` with a fixed word stride per
//!   cube, plus word-parallel kernels ([`cube_and_into`], [`cube_contains`],
//!   [`cube_distance`], [`cube_consensus_into`], [`cube_cofactor_into`])
//!   that write into caller-owned scratch. These work for any domain.
//! * A flat ESPRESSO engine covering **every** domain, as a ladder of
//!   specializations over the cube's fixed word stride:
//!   - an inline single-word fast path for the common all-binary case
//!     (`2 · num_vars ≤ 64`): each cube is one `u64` and every kernel is a
//!     handful of bit tricks;
//!   - a generic multi-word engine for everything else (multi-valued
//!     variables, > 64 total parts), where each cube is a `&[u64]` chunk of
//!     stride `words()`. The stride is threaded through a zero-sized
//!     `Stride` type parameter, so the 1/2/4-word instantiations compile
//!     to register-blocked straight-line kernels and only wider domains pay
//!     a counted loop.
//!
//!   Both run the full ESPRESSO loop (expand / reduce / irredundant /
//!   essentials / last-gasp, with the unate-recursive tautology and
//!   complement underneath) over plain word slices drawn from a
//!   [`MinimizeScratch`] pool; after warm-up the steady state performs no
//!   per-cube heap allocation.
//!
//! Every engine rung is an exact mirror of the legacy `Vec<Cube>` code:
//! same cube orderings (stable sorts on the same keys), same branch
//! variables, same budget ticks and [`crate::obs`] counters.
//! [`flat_espresso_bounded`] is therefore bit-identical to
//! [`crate::espresso_bounded`] on *all* domains — the differential property
//! tests in `tests/prop_flat_cover.rs` enforce exactly that. There is no
//! silent fallback: the legacy driver survives only as the independent
//! oracle those suites compare against ([`obs::Counter::LegacyFallback`] is
//! the tripwire proving nothing re-routes to it).

use crate::budget::{Budget, Completion};
use crate::cover::Cover;
use crate::cube::Cube;
use crate::domain::Domain;
use crate::espresso::MinimizeOptions;
use crate::obs;
use crate::simd::{self, AlignedWords, Kern, KernelBackend, ScalarKern};

// ---------------------------------------------------------------------------
// Generic flat layer: FlatDomain, FlatCover, word-parallel kernels
// ---------------------------------------------------------------------------

/// Precomputed per-variable word/mask layout of a [`Domain`], flattened so
/// the word-parallel kernels never consult the `Domain` object (or allocate)
/// per operation.
#[derive(Debug, Clone)]
pub struct FlatDomain {
    words: usize,
    num_vars: usize,
    total_parts: usize,
    full: Vec<u64>,
    /// Per variable: (first word index, start offset into `masks`, number of
    /// words the variable's parts span).
    var_spans: Vec<(usize, usize, usize)>,
    /// Concatenated per-word bit masks for each variable's parts.
    masks: Vec<u64>,
    /// Per variable: global index of its first part.
    offsets: Vec<usize>,
    /// Per variable: number of parts.
    parts: Vec<usize>,
    /// Per word: the low bit of every two-part variable lying inside that
    /// word, so [`cube_distance`] counts all of them with one
    /// shift, mask and popcount per word.
    pair_lo: Vec<u64>,
    /// The variables `pair_lo` does not cover (more or fewer than two
    /// parts, or two parts straddling a word boundary).
    other_vars: Vec<usize>,
}

impl FlatDomain {
    /// Flattens `dom` into word/mask form.
    pub fn new(dom: &Domain) -> FlatDomain {
        let words = dom.words();
        let full = dom.full_words().to_vec();
        let mut var_spans = Vec::with_capacity(dom.num_vars());
        let mut masks = Vec::new();
        let mut offsets = Vec::with_capacity(dom.num_vars());
        let mut parts = Vec::with_capacity(dom.num_vars());
        let mut pair_lo = vec![0u64; words];
        let mut other_vars = Vec::new();
        for v in 0..dom.num_vars() {
            let var = dom.var(v);
            let offset = var.offset();
            let last = offset + var.parts() - 1;
            let first_word = offset / 64;
            let last_word = last / 64;
            let start = masks.len();
            for w in first_word..=last_word {
                let mut m = 0u64;
                for p in var.part_range() {
                    if p / 64 == w {
                        m |= 1u64 << (p % 64);
                    }
                }
                masks.push(m);
            }
            if var.parts() == 2 && first_word == last_word {
                pair_lo[first_word] |= 1u64 << (offset % 64);
            } else {
                other_vars.push(v);
            }
            var_spans.push((first_word, start, last_word - first_word + 1));
            offsets.push(offset);
            parts.push(var.parts());
        }
        FlatDomain {
            words,
            num_vars: dom.num_vars(),
            total_parts: dom.total_parts(),
            full,
            var_spans,
            masks,
            offsets,
            parts,
            pair_lo,
            other_vars,
        }
    }

    /// Word stride of a cube in this domain.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of parts across all variables.
    pub fn total_parts(&self) -> usize {
        self.total_parts
    }

    /// The full (universe) cube as a word slice.
    pub fn full(&self) -> &[u64] {
        &self.full
    }

    /// Whether variable `v`'s literal is empty in the *meet* of `a` and `b`
    /// (both given as word slices).
    pub(crate) fn meet_var_empty(&self, a: &[u64], b: &[u64], v: usize) -> bool {
        let (first, start, span) = self.var_spans[v];
        for k in 0..span {
            if a[first + k] & b[first + k] & self.masks[start + k] != 0 {
                return false;
            }
        }
        true
    }

    /// Whether every variable's literal is non-empty in the *materialized*
    /// meet `m` — the wide kernels compute `a ∧ b` once with a vector AND
    /// and then run this single-operand walk instead of the double-indexed
    /// [`FlatDomain::meet_var_empty`] sweep.
    pub(crate) fn meet_all_vars_nonempty(&self, m: &[u64]) -> bool {
        (0..self.num_vars).all(|v| {
            let (first, start, span) = self.var_spans[v];
            (0..span).any(|k| m[first + k] & self.masks[start + k] != 0)
        })
    }

    /// Number of variables whose literal is empty in the materialized meet
    /// `m` — the wide-kernel counterpart of [`cube_distance`].
    pub(crate) fn meet_empty_vars(&self, m: &[u64]) -> usize {
        (0..self.num_vars)
            .filter(|&v| {
                let (first, start, span) = self.var_spans[v];
                (0..span).all(|k| m[first + k] & self.masks[start + k] == 0)
            })
            .count()
    }

    /// A copy of this layout with the cube stride padded up to `words`
    /// trailing zero words. The variable spans and masks are untouched, so
    /// every masked operation ignores the padding, and the padded words of
    /// `full` are zero, so the cofactor body `(x | !p) & full` keeps them
    /// zero too — cubes that start zero-padded stay zero-padded through the
    /// whole engine. Used by the Wide backend to lift awkward strides onto
    /// a monomorphized power-of-two rung.
    pub(crate) fn padded_to(&self, words: usize) -> FlatDomain {
        debug_assert!(words >= self.words);
        let mut fd = self.clone();
        fd.full.resize(words, 0);
        fd.words = words;
        fd
    }
}

/// Whether the word-slice cube `c` is valid in `fd` (every variable literal
/// non-empty).
pub fn cube_is_valid(fd: &FlatDomain, c: &[u64]) -> bool {
    (0..fd.num_vars).all(|v| {
        let (first, start, span) = fd.var_spans[v];
        (0..span).any(|k| c[first + k] & fd.masks[start + k] != 0)
    })
}

/// Word-parallel meet: `out = a ∧ b`. All slices must share the domain's
/// stride.
pub fn cube_and_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x & y;
    }
}

/// Whether cube `a` contains (covers) cube `b`: every part of `b` is a part
/// of `a`.
pub fn cube_contains(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| y & !x == 0)
}

/// Number of variables whose literal is empty in the meet of `a` and `b` —
/// the classic cube distance. Every two-part variable inside one word is
/// counted by word-parallel bit arithmetic: at a pair's low bit,
/// `!(m | m >> 1)` is set exactly when both of its parts are absent from
/// the meet `m`; only the other variables take the per-variable walk.
pub fn cube_distance(fd: &FlatDomain, a: &[u64], b: &[u64]) -> usize {
    let pairs: u32 = a
        .iter()
        .zip(b)
        .zip(&fd.pair_lo)
        .map(|((&x, &y), &lo)| {
            let m = x & y;
            (!(m | m >> 1) & lo).count_ones()
        })
        .sum();
    pairs as usize
        + fd.other_vars
            .iter()
            .filter(|&&v| fd.meet_var_empty(a, b, v))
            .count()
}

/// Consensus of `a` and `b` into `out`. Returns `false` (leaving `out`
/// unspecified) when the distance is not exactly 1.
pub fn cube_consensus_into(fd: &FlatDomain, a: &[u64], b: &[u64], out: &mut [u64]) -> bool {
    let mut conflict = None;
    for v in 0..fd.num_vars {
        if fd.meet_var_empty(a, b, v) {
            if conflict.is_some() {
                return false;
            }
            conflict = Some(v);
        }
    }
    let Some(v) = conflict else {
        return false;
    };
    cube_and_into(a, b, out);
    let (first, start, span) = fd.var_spans[v];
    for k in 0..span {
        out[first + k] |= (a[first + k] | b[first + k]) & fd.masks[start + k];
    }
    true
}

/// Cofactor of `a` with respect to `p` into `out`. Returns `false` (leaving
/// `out` unspecified) when `a` and `p` do not intersect.
pub fn cube_cofactor_into(fd: &FlatDomain, a: &[u64], p: &[u64], out: &mut [u64]) -> bool {
    for v in 0..fd.num_vars {
        if fd.meet_var_empty(a, p, v) {
            return false;
        }
    }
    for (k, o) in out.iter_mut().enumerate() {
        *o = (a[k] | !p[k]) & fd.full[k];
    }
    true
}

/// A cover stored as one contiguous word buffer with a fixed stride per
/// cube. Pushing reuses the tail of the single allocation; iteration yields
/// word slices with no per-cube indirection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatCover {
    stride: usize,
    /// 64-byte-aligned backing store (see [`AlignedWords`]): wide loads
    /// from the buffer head never straddle a cache line.
    words: AlignedWords,
}

impl FlatCover {
    /// An empty flat cover with the given word stride (`stride ≥ 1`).
    pub fn new(stride: usize) -> FlatCover {
        FlatCover {
            stride: stride.max(1),
            words: AlignedWords::new(),
        }
    }

    /// Flattens an existing [`Cover`].
    pub fn from_cover(cover: &Cover) -> FlatCover {
        let stride = cover.domain().words();
        let mut fc = FlatCover::new(stride);
        for c in cover.iter() {
            fc.words.extend_from_slice(c.words());
        }
        fc
    }

    /// Rebuilds a [`Cover`] over `dom` (which must have this stride).
    /// Invalid cubes are dropped, mirroring [`Cover::from_cubes`].
    pub fn to_cover(&self, dom: &Domain) -> Cover {
        Cover::from_cubes(
            dom,
            self.iter().map(|w| Cube::from_raw_words(w.to_vec())),
        )
    }

    /// Word stride per cube.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Whether the cover has no cubes.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The `i`-th cube as a word slice.
    pub fn cube(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Mutable view of the `i`-th cube.
    pub fn cube_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Appends a cube (a word slice of exactly `stride` words; bits above
    /// the domain's total parts must be zero).
    pub fn push(&mut self, cube: &[u64]) {
        debug_assert_eq!(cube.len(), self.stride);
        self.words.extend_from_slice(cube);
    }

    /// Removes all cubes, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Iterates cubes as word slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> {
        self.words.chunks_exact(self.stride)
    }
}

// ---------------------------------------------------------------------------
// Scratch pool
// ---------------------------------------------------------------------------

/// Reusable scratch for the flat minimization engine.
///
/// Holds a pool of word buffers plus the flag/order buffers the expand and
/// irredundant passes need. After the first minimization warms the pool,
/// subsequent calls perform no heap allocation. One scratch must not be
/// shared across threads; every long-lived consumer (the evaluation cache,
/// the ENC baseline) owns its own.
#[derive(Debug, Default)]
pub struct MinimizeScratch {
    free: Vec<AlignedWords>,
    pairs: Vec<(usize, usize)>,
    flags: Vec<bool>,
    /// EXPAND's blocking-set distances (one per off cube) and part column
    /// counts (one per part).
    dist: Vec<u32>,
    cols: Vec<u32>,
    /// The last multi-word domain layout, cached so back-to-back
    /// minimizations over one domain (the common shape: a search loop
    /// re-pricing covers) rebuild nothing. Keyed by the `Domain` handle;
    /// the comparison is an `Arc` pointer check in the hot case.
    layout: Option<(Domain, FlatDomain)>,
}

impl MinimizeScratch {
    /// A fresh (cold) scratch pool.
    pub fn new() -> MinimizeScratch {
        MinimizeScratch::default()
    }

    /// Takes a cleared word buffer from the pool (allocating only when the
    /// pool is empty). Buffers are [`AlignedWords`], so every pooled
    /// allocation honors the 64-byte alignment contract.
    pub(crate) fn take(&mut self) -> AlignedWords {
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => AlignedWords::new(),
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub(crate) fn give(&mut self, v: AlignedWords) {
        self.free.push(v);
    }

    /// Takes the cached [`FlatDomain`] for `dom` (building it on a cold or
    /// mismatched cache). Pair with [`MinimizeScratch::put_layout`].
    fn take_layout(&mut self, dom: &Domain) -> FlatDomain {
        match self.layout.take() {
            Some((d, fd)) if d == *dom => fd,
            _ => FlatDomain::new(dom),
        }
    }

    /// Stores the layout back for the next minimization over `dom`.
    fn put_layout(&mut self, dom: &Domain, fd: FlatDomain) {
        self.layout = Some((dom.clone(), fd));
    }
}

// ---------------------------------------------------------------------------
// Single-word binary engine
// ---------------------------------------------------------------------------

const EVENS: u64 = 0x5555_5555_5555_5555;

/// Context for the single-word all-binary fast path: `nv` binary variables,
/// variable `v` occupying bits `2v` (value 0) and `2v + 1` (value 1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinCtx {
    nv: usize,
    full: u64,
    evens: u64,
}

impl BinCtx {
    /// Builds the context for an eligible domain (see [`flat_eligible`]).
    pub(crate) fn new(dom: &Domain) -> BinCtx {
        debug_assert!(flat_eligible(dom));
        let full = dom.full_words()[0];
        BinCtx {
            nv: dom.num_vars(),
            full,
            evens: EVENS & full,
        }
    }
}

/// Whether `dom` is handled by the single-word binary engine: at least one
/// variable, every variable two-valued, and all parts within one word.
pub fn flat_eligible(dom: &Domain) -> bool {
    dom.num_vars() >= 1
        && dom.words() == 1
        && (0..dom.num_vars()).all(|v| dom.var(v).parts() == 2)
}

#[inline]
fn valid_w(ctx: BinCtx, c: u64) -> bool {
    (c | c >> 1) & ctx.evens == ctx.evens
}

#[inline]
fn covers_w(a: u64, b: u64) -> bool {
    b & !a == 0
}

#[inline]
fn dist_w(ctx: BinCtx, a: u64, b: u64) -> u32 {
    let m = a & b;
    (ctx.evens & !(m | m >> 1)).count_ones()
}

/// Consensus at distance exactly 1 (checked by the caller via [`dist_w`]).
#[inline]
fn consensus_w(ctx: BinCtx, a: u64, b: u64) -> u64 {
    let m = a & b;
    let cm = ctx.evens & !(m | m >> 1);
    debug_assert_eq!(cm.count_ones(), 1);
    let vbit = cm.trailing_zeros();
    m | ((a | b) & (3u64 << vbit))
}

/// The cube asserting part `p` (0 or 1) of variable `v` and nothing else:
/// full everywhere except the opposite part of `v` is cleared.
#[inline]
fn part_cube_w(ctx: BinCtx, v: usize, p: usize) -> u64 {
    ctx.full & !(1u64 << (2 * v + (1 - p)))
}

#[inline]
fn cofactor_w(ctx: BinCtx, a: u64, p: u64) -> Option<u64> {
    if !valid_w(ctx, a & p) {
        return None;
    }
    Some((a | !p) & ctx.full)
}

#[inline]
fn literal_cost_one_w(ctx: BinCtx, c: u64) -> usize {
    ctx.nv - (c & (c >> 1) & ctx.evens).count_ones() as usize
}

fn cost_w(ctx: BinCtx, f: &[u64]) -> (usize, usize) {
    (
        f.len(),
        f.iter().map(|&c| literal_cost_one_w(ctx, c)).sum(),
    )
}

// --- stable sorts ---------------------------------------------------------
//
// `slice::sort_by_key` is stable but allocates for slices longer than 20.
// These insertion sorts produce the identical permutation for the same key
// (stable: an element only moves past strictly-"greater" predecessors) with
// no allocation. Cover sizes in this pipeline are small enough that the
// quadratic worst case never dominates the kernels themselves.

fn insertion_sort_by(v: &mut [u64], mut before: impl FnMut(u64, u64) -> bool) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && before(x, v[j - 1]) {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// Descending part count (mirrors `sort_by_key(Reverse(part_count))`).
fn sort_desc_parts(v: &mut [u64]) {
    insertion_sort_by(v, |a, b| a.count_ones() > b.count_ones());
}

/// Ascending part count.
fn sort_asc_parts(v: &mut [u64]) {
    insertion_sort_by(v, |a, b| a.count_ones() < b.count_ones());
}

/// Expand's part order: descending weight, ties by ascending part index —
/// a strict total order, so any sort gives the identical sequence.
fn sort_expand_order(v: &mut [(usize, usize)]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && (x.1 > v[j - 1].1 || (x.1 == v[j - 1].1 && x.0 < v[j - 1].0)) {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

// --- single-cube-containment / scc ---------------------------------------

/// In-place single-cube containment, mirroring [`Cover::scc`]: stable sort
/// by descending part count, then drop any cube covered by an earlier kept
/// cube. For single-word cubes the fold-OR signature *is* the cube, so the
/// legacy prefilter (`sig & !ksig != 0`) is exact and the subsequent
/// `covers` check always succeeds when reached — the counters still mirror
/// the legacy accounting.
fn scc_w(cubes: &mut AlignedWords) {
    sort_desc_parts(cubes);
    let mut pairs = 0u64;
    let mut prefilter_rejects = 0u64;
    let mut kept = 0usize;
    'outer: for i in 0..cubes.len() {
        let c = cubes[i];
        for &k in &cubes[..kept] {
            pairs += 1;
            if c & !k != 0 {
                prefilter_rejects += 1;
                continue;
            }
            // signature == cube here, so the kept cube covers c
            continue 'outer;
        }
        cubes[kept] = c;
        kept += 1;
    }
    cubes.truncate(kept);
    obs::count(obs::Counter::SccPairs, pairs);
    obs::count(obs::Counter::SccPrefilterRejects, prefilter_rejects);
}

// --- unate-recursive paradigm: tautology and complement -------------------

/// Most binate variable, mirroring the legacy selection: highest count of
/// cubes with a non-full literal; on ties the legacy `parts < best_parts`
/// tie-break never fires for all-binary domains, so first-wins on equal
/// counts.
fn most_binate_w(ctx: BinCtx, cubes: &[u64]) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for v in 0..ctx.nv {
        let mask = 3u64 << (2 * v);
        let count = cubes.iter().filter(|&&c| c & mask != mask).count();
        if count == 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some((bc, _)) => count > bc,
        };
        if better {
            best = Some((count, v));
        }
    }
    best.map(|(_, v)| v)
}

fn taut_rec_w(ctx: BinCtx, cubes: &[u64], scratch: &mut MinimizeScratch) -> bool {
    if cubes.contains(&ctx.full) {
        return true;
    }
    if cubes.is_empty() {
        return false;
    }
    let mut acc = 0u64;
    let mut covers_all_parts = false;
    for &c in cubes {
        acc |= c;
        if acc == ctx.full {
            covers_all_parts = true;
            break;
        }
    }
    if !covers_all_parts {
        return false;
    }
    let Some(v) = most_binate_w(ctx, cubes) else {
        return false;
    };
    let mut branch = scratch.take();
    let mut taut = true;
    for p in 0..2 {
        let pc = part_cube_w(ctx, v, p);
        branch.clear();
        for &c in cubes {
            if let Some(cf) = cofactor_w(ctx, c, pc) {
                branch.push(cf);
            }
        }
        if !taut_rec_w(ctx, &branch, scratch) {
            taut = false;
            break;
        }
    }
    scratch.give(branch);
    taut
}

/// Complement of a single cube: one cube per non-full variable, in variable
/// order (mirrors the legacy `cube_complement`; for binary domains the
/// result cubes are always valid).
fn cube_complement_w(ctx: BinCtx, c: u64, out: &mut AlignedWords) {
    for v in 0..ctx.nv {
        let mask = 3u64 << (2 * v);
        if c & mask == mask {
            continue;
        }
        out.push(ctx.full & !(c & mask));
    }
}

/// Recursive complement, mirroring the legacy `compl_rec`: branch on the
/// most binate variable, lift cubes common to both branch complements, and
/// finish with an scc pass (counters fire, as in the legacy
/// `Cover::from_cubes` + `scc` epilogue).
fn compl_rec_w(ctx: BinCtx, cubes: &[u64], out: &mut AlignedWords, scratch: &mut MinimizeScratch) {
    debug_assert!(out.is_empty());
    if cubes.is_empty() {
        out.push(ctx.full);
        return;
    }
    if cubes.contains(&ctx.full) {
        return;
    }
    if cubes.len() == 1 {
        cube_complement_w(ctx, cubes[0], out);
        return;
    }
    let Some(v) = most_binate_w(ctx, cubes) else {
        return;
    };
    let mut branch = scratch.take();
    let mut r0 = scratch.take();
    let mut r1 = scratch.take();
    for p in 0..2 {
        let pc = part_cube_w(ctx, v, p);
        branch.clear();
        for &c in cubes {
            if let Some(cf) = cofactor_w(ctx, c, pc) {
                branch.push(cf);
            }
        }
        let target = if p == 0 { &mut r0 } else { &mut r1 };
        compl_rec_w(ctx, &branch, target, scratch);
    }
    scratch.give(branch);
    let mut lifted = scratch.take();
    for &c in r0.iter() {
        if r1.contains(&c) {
            lifted.push(c);
        }
    }
    for (p, branch_out) in [(0usize, &r0), (1usize, &r1)] {
        let pc = part_cube_w(ctx, v, p);
        for &c in branch_out.iter() {
            if lifted.contains(&c) {
                continue;
            }
            let r = c & pc;
            if valid_w(ctx, r) {
                out.push(r);
            }
        }
    }
    out.extend_from_slice(&lifted);
    scc_w(out);
    scratch.give(lifted);
    scratch.give(r1);
    scratch.give(r0);
}

/// Whether the cover `f` covers the single cube `c` (tautology of the
/// cofactor), mirroring the legacy `cover_covers_cube`.
fn cover_covers_cube_w(ctx: BinCtx, f: &[u64], c: u64, scratch: &mut MinimizeScratch) -> bool {
    let mut g = scratch.take();
    for &x in f {
        if let Some(cf) = cofactor_w(ctx, x, c) {
            g.push(cf);
        }
    }
    let taut = taut_rec_w(ctx, &g, scratch);
    scratch.give(g);
    taut
}

// --- espresso passes ------------------------------------------------------

fn expand_w(ctx: BinCtx, f: &mut AlignedWords, off: &[u64], scratch: &mut MinimizeScratch) {
    sort_asc_parts(f);
    let n = f.len();
    let mut covered = std::mem::take(&mut scratch.flags);
    covered.clear();
    covered.resize(n, false);
    let mut order = std::mem::take(&mut scratch.pairs);
    let mut result = scratch.take();
    for i in 0..n {
        if covered[i] {
            continue;
        }
        let mut c = f[i];
        order.clear();
        for p in 0..2 * ctx.nv {
            if c >> p & 1 != 0 {
                continue;
            }
            let bit = 1u64 << p;
            let w = (0..n)
                .filter(|&j| j != i && !covered[j] && f[j] & bit != 0)
                .count();
            order.push((p, w));
        }
        sort_expand_order(&mut order);
        for &(p, _) in order.iter() {
            let candidate = c | (1u64 << p);
            if off.iter().all(|&o| !valid_w(ctx, candidate & o)) {
                c = candidate;
            }
        }
        for j in 0..n {
            if j != i && !covered[j] && covers_w(c, f[j]) {
                covered[j] = true;
            }
        }
        result.push(c);
    }
    std::mem::swap(f, &mut result);
    scratch.give(result);
    scratch.pairs = order;
    scratch.flags = covered;
}

fn reduce_w(ctx: BinCtx, f: &mut AlignedWords, dc: &[u64], scratch: &mut MinimizeScratch) {
    sort_desc_parts(f);
    let mut rest = scratch.take();
    let mut g = scratch.take();
    let mut h = scratch.take();
    for i in 0..f.len() {
        let c = f[i];
        if c == 0 {
            // legacy: the complement of the (empty) cofactored rest is the
            // universe with no scc pass, and the re-reduced cube stays
            // invalid — counter-identical shortcut.
            continue;
        }
        rest.clear();
        for (j, &x) in f.iter().enumerate() {
            if j != i && x != 0 {
                rest.push(x);
            }
        }
        rest.extend_from_slice(dc);
        g.clear();
        for &x in rest.iter() {
            if let Some(cf) = cofactor_w(ctx, x, c) {
                g.push(cf);
            }
        }
        h.clear();
        compl_rec_w(ctx, &g, &mut h, scratch);
        if h.is_empty() {
            f[i] = 0;
        } else {
            let sc = h.iter().fold(0u64, |acc, &x| acc | x);
            let r = c & sc;
            f[i] = if valid_w(ctx, r) { r } else { 0 };
        }
    }
    f.retain(|&c| c != 0);
    scratch.give(h);
    scratch.give(g);
    scratch.give(rest);
}

fn irredundant_w(ctx: BinCtx, f: &mut AlignedWords, dc: &[u64], scratch: &mut MinimizeScratch) {
    sort_desc_parts(f);
    let n = f.len();
    let mut keep = std::mem::take(&mut scratch.flags);
    keep.clear();
    keep.resize(n, true);
    let mut rest = scratch.take();
    for i in (0..n).rev() {
        rest.clear();
        for j in 0..n {
            if j != i && keep[j] {
                rest.push(f[j]);
            }
        }
        rest.extend_from_slice(dc);
        if cover_covers_cube_w(ctx, &rest, f[i], scratch) {
            keep[i] = false;
        }
    }
    let mut w = 0usize;
    for i in 0..n {
        if keep[i] {
            f[w] = f[i];
            w += 1;
        }
    }
    f.truncate(w);
    scratch.give(rest);
    scratch.flags = keep;
}

fn essentials_w(
    ctx: BinCtx,
    f: &[u64],
    dc: &[u64],
    out: &mut AlignedWords,
    scratch: &mut MinimizeScratch,
) {
    let mut h = scratch.take();
    let mut hc = scratch.take();
    for i in 0..f.len() {
        let c = f[i];
        h.clear();
        for (j, &g) in f.iter().enumerate() {
            if j == i {
                continue;
            }
            match dist_w(ctx, g, c) {
                0 => h.push(g),
                1 => h.push(consensus_w(ctx, g, c)),
                _ => {}
            }
        }
        for &g in dc {
            match dist_w(ctx, g, c) {
                0 => h.push(g),
                1 => h.push(consensus_w(ctx, g, c)),
                _ => {}
            }
        }
        hc.clear();
        for &x in h.iter() {
            if let Some(cf) = cofactor_w(ctx, x, c) {
                hc.push(cf);
            }
        }
        if !taut_rec_w(ctx, &hc, scratch) {
            out.push(c);
        }
    }
    scratch.give(hc);
    scratch.give(h);
}

/// Last-gasp pass; replaces `f` and returns `true` when it found a strictly
/// cheaper cover (mirrors the legacy `last_gasp`).
fn gasp_w(
    ctx: BinCtx,
    f: &mut AlignedWords,
    dc: &[u64],
    off: &[u64],
    scratch: &mut MinimizeScratch,
) -> bool {
    if f.len() < 2 {
        return false;
    }
    let mut reduced = scratch.take();
    let mut rest = scratch.take();
    let mut g = scratch.take();
    let mut h = scratch.take();
    for i in 0..f.len() {
        let c = f[i];
        rest.clear();
        for (j, &x) in f.iter().enumerate() {
            if j != i {
                rest.push(x);
            }
        }
        rest.extend_from_slice(dc);
        g.clear();
        for &x in rest.iter() {
            if let Some(cf) = cofactor_w(ctx, x, c) {
                g.push(cf);
            }
        }
        h.clear();
        compl_rec_w(ctx, &g, &mut h, scratch);
        if h.is_empty() {
            continue; // fully redundant: maximally reduced away
        }
        let sc = h.iter().fold(0u64, |acc, &x| acc | x);
        let r = c & sc;
        if valid_w(ctx, r) {
            reduced.push(r);
        }
    }
    scratch.give(h);
    scratch.give(g);
    scratch.give(rest);
    if reduced.is_empty() {
        scratch.give(reduced);
        return false;
    }
    let mut expanded = scratch.take();
    expanded.extend_from_slice(&reduced);
    expand_w(ctx, &mut expanded, off, scratch);
    let mut useful = scratch.take();
    for &p in expanded.iter() {
        if reduced.iter().filter(|&&r| covers_w(p, r)).count() >= 2 {
            useful.push(p);
        }
    }
    scratch.give(expanded);
    if useful.is_empty() {
        scratch.give(useful);
        scratch.give(reduced);
        return false;
    }
    let mut candidate = scratch.take();
    candidate.extend_from_slice(f);
    candidate.extend_from_slice(&useful);
    irredundant_w(ctx, &mut candidate, dc, scratch);
    let better = cost_w(ctx, &candidate) < cost_w(ctx, f);
    if better {
        std::mem::swap(f, &mut candidate);
    }
    scratch.give(candidate);
    scratch.give(useful);
    scratch.give(reduced);
    better
}

/// Whether `f` covers every cube of `g`.
fn contains_all_w(ctx: BinCtx, f: &[u64], g: &[u64], scratch: &mut MinimizeScratch) -> bool {
    g.iter()
        .all(|&c| cover_covers_cube_w(ctx, f, c, scratch))
}

/// Debug helper mirroring the legacy `implements` invariant: `on ⊆ f ⊆
/// on ∪ dc`.
fn implements_w(
    ctx: BinCtx,
    f: &[u64],
    on: &[u64],
    dc: &[u64],
    scratch: &mut MinimizeScratch,
) -> bool {
    let mut upper = scratch.take();
    upper.extend_from_slice(on);
    upper.extend_from_slice(dc);
    let ok = contains_all_w(ctx, f, on, scratch) && contains_all_w(ctx, &upper, f, scratch);
    scratch.give(upper);
    ok
}

// --- driver ---------------------------------------------------------------

/// The full ESPRESSO loop over single-word cube slices. Mirrors
/// [`crate::espresso_bounded`] pass for pass: same span (`"espresso"`),
/// same `espresso.iter` budget ticks, same counter increments, same cube
/// orderings. Returns the minimized cover as a pool buffer (the caller
/// should [`MinimizeScratch::give`] it back) plus the budget completion.
pub(crate) fn espresso_words(
    ctx: BinCtx,
    on: &[u64],
    dc: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (AlignedWords, Completion) {
    let span = obs::current_or(budget.recorder()).span("espresso");
    let _cur = obs::enter(span.recorder());

    if on.is_empty() {
        return (scratch.take(), budget.completion());
    }
    if !budget.tick("espresso.iter", 1) {
        // mirror the legacy degraded path: the on-set scc'd, nothing more
        let mut f = scratch.take();
        f.extend_from_slice(on);
        scc_w(&mut f);
        return (f, budget.completion());
    }

    let mut on_dc = scratch.take();
    on_dc.extend_from_slice(on);
    on_dc.extend_from_slice(dc);
    let mut off = scratch.take();
    compl_rec_w(ctx, &on_dc, &mut off, scratch);
    scratch.give(on_dc);
    if off.is_empty() {
        scratch.give(off);
        let mut f = scratch.take();
        f.push(ctx.full);
        return (f, budget.completion());
    }

    let mut f = scratch.take();
    f.extend_from_slice(on);
    scc_w(&mut f);
    obs::count(obs::Counter::ExpandCalls, 1);
    expand_w(ctx, &mut f, &off, scratch);
    obs::count(obs::Counter::IrredundantCalls, 1);
    irredundant_w(ctx, &mut f, dc, scratch);
    if opts.check_invariants {
        debug_assert!(
            implements_w(ctx, &f, on, dc, scratch),
            "flat espresso: invariant lost after initial expand/irredundant"
        );
    }

    let mut ess = scratch.take();
    let mut dc_aug = scratch.take();
    if opts.use_essentials {
        essentials_w(ctx, &f, dc, &mut ess, scratch);
        f.retain(|c| !ess.contains(c));
        dc_aug.extend_from_slice(dc);
        dc_aug.extend_from_slice(&ess);
    } else {
        dc_aug.extend_from_slice(dc);
    }
    scc_w(&mut dc_aug);

    let mut best = cost_w(ctx, &f);
    let mut iterations = 0usize;
    let mut candidate = scratch.take();
    'outer: loop {
        while iterations < opts.max_iterations {
            if !budget.tick("espresso.iter", 1) {
                break 'outer;
            }
            iterations += 1;
            obs::count(obs::Counter::EspressoIters, 1);
            if f.is_empty() {
                break 'outer;
            }
            candidate.clear();
            candidate.extend_from_slice(&f);
            obs::count(obs::Counter::ReduceCalls, 1);
            reduce_w(ctx, &mut candidate, &dc_aug, scratch);
            obs::count(obs::Counter::ExpandCalls, 1);
            expand_w(ctx, &mut candidate, &off, scratch);
            obs::count(obs::Counter::IrredundantCalls, 1);
            irredundant_w(ctx, &mut candidate, &dc_aug, scratch);
            let c = cost_w(ctx, &candidate);
            if c < best {
                best = c;
                std::mem::swap(&mut f, &mut candidate);
            } else {
                break;
            }
        }
        if !opts.use_last_gasp || iterations >= opts.max_iterations || budget.is_exhausted() {
            break;
        }
        if !gasp_w(ctx, &mut f, &dc_aug, &off, scratch) {
            break;
        }
        best = cost_w(ctx, &f);
    }
    let _ = best;

    f.extend_from_slice(&ess);
    scc_w(&mut f);
    if opts.check_invariants {
        debug_assert!(
            implements_w(ctx, &f, on, dc, scratch),
            "flat espresso: result does not implement the function"
        );
    }
    scratch.give(candidate);
    scratch.give(dc_aug);
    scratch.give(ess);
    scratch.give(off);
    (f, budget.completion())
}

// ---------------------------------------------------------------------------
// Generic multi-word engine
// ---------------------------------------------------------------------------
//
// The same ESPRESSO loop for every domain the single-word binary engine does
// not cover: multi-valued variables and/or more than 64 total parts. A cube
// is a `&[u64]` chunk of fixed stride `words()` inside pooled buffers; the
// stride is carried by the zero-sized `Stride` parameter below so the
// monomorphized 1/2/4-word engines see a compile-time constant (the word
// loops unroll into register-blocked straight-line code) while wider domains
// share one dynamic-stride instantiation. Every kernel mirrors its legacy
// `Vec<Cube>` counterpart exactly — orderings, branch variables, counters —
// so `flat_espresso_bounded` stays bit-identical to `espresso_bounded`.

/// Compile-time-or-dynamic word stride of a cube.
trait Stride: Copy {
    /// Words per cube. `FixedW` implementations return a constant the
    /// optimizer propagates into every kernel loop.
    fn w(self) -> usize;
}

/// A stride known at compile time (the register-blocked specializations).
#[derive(Clone, Copy)]
struct FixedW<const W: usize>;

impl<const W: usize> Stride for FixedW<W> {
    #[inline(always)]
    fn w(self) -> usize {
        W
    }
}

/// A stride known only at run time (the generic fallback loop).
#[derive(Clone, Copy)]
struct DynW(usize);

impl Stride for DynW {
    #[inline(always)]
    fn w(self) -> usize {
        self.0
    }
}

/// Total parts admitted by a cube chunk (no bits exist above the domain's
/// parts, so the raw popcount is the part count).
#[inline]
fn chunk_parts(c: &[u64]) -> usize {
    c.iter().map(|&x| x.count_ones() as usize).sum()
}

/// Calls `f` with the index of every part `c` admits, in ascending order.
#[inline]
fn for_each_part(c: &[u64], mut f: impl FnMut(usize)) {
    for (k, &word) in c.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(k * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Whether `c` appears verbatim in `list` (the chunk analogue of
/// `Vec::<Cube>::contains`, i.e. exact equality, as the legacy lift and
/// essential-removal steps use).
#[inline]
fn chunk_member(list: &[u64], c: &[u64], w: usize) -> bool {
    list.chunks_exact(w).any(|x| x == c)
}

/// Stable insertion sort over `w`-word chunks; `before(x, y)` must be a
/// strict "x sorts before y" so the permutation matches the legacy stable
/// `sort_by_key` on the same key. `tmp` holds the chunk in flight.
fn insertion_sort_chunks(
    v: &mut [u64],
    w: usize,
    tmp: &mut AlignedWords,
    mut before: impl FnMut(&[u64], &[u64]) -> bool,
) {
    let n = v.len() / w;
    tmp.clear();
    tmp.resize(w, 0);
    for i in 1..n {
        tmp.copy_from_slice(&v[i * w..(i + 1) * w]);
        let mut j = i;
        while j > 0 && before(tmp, &v[(j - 1) * w..j * w]) {
            v.copy_within((j - 1) * w..j * w, j * w);
            j -= 1;
        }
        v[j * w..(j + 1) * w].copy_from_slice(tmp);
    }
}

/// Drops every chunk of `v` that appears verbatim in `list`, preserving
/// order (the chunk analogue of `f.retain(|c| !list.contains(c))`).
fn retain_chunks_not_in(v: &mut AlignedWords, list: &[u64], w: usize) {
    let n = v.len() / w;
    let mut write = 0usize;
    for i in 0..n {
        if chunk_member(list, &v[i * w..(i + 1) * w], w) {
            continue;
        }
        v.copy_within(i * w..(i + 1) * w, write * w);
        write += 1;
    }
    v.truncate(write * w);
}

/// Context of the generic engine: the flattened domain, the stride carrier,
/// and the kernel backend carrier ([`Kern`]). Copy-cheap (two words plus two
/// zero-sized carriers), threaded by value through the passes; each
/// `Stride × Kern` pair monomorphizes its own straight-line engine.
#[derive(Clone, Copy)]
struct MvCtx<'d, S: Stride, K: Kern> {
    fd: &'d FlatDomain,
    s: S,
    k: K,
}

impl<S: Stride, K: Kern> MvCtx<'_, S, K> {
    #[inline(always)]
    fn w(&self) -> usize {
        self.s.w()
    }

    #[inline(always)]
    fn full(&self) -> &[u64] {
        &self.fd.full
    }

    #[inline]
    fn is_full(&self, c: &[u64]) -> bool {
        self.k.slices_eq(c, &self.fd.full)
    }

    #[inline]
    fn covers(&self, a: &[u64], b: &[u64]) -> bool {
        self.k.covers(&a[..self.w()], &b[..self.w()])
    }

    /// Whether the meet `a ∧ b` is a valid cube — the legacy
    /// `Cube::intersects` (distance 0). The scalar kernel never
    /// materializes the meet; the wide kernels AND once and run a
    /// single-operand emptiness walk — same boolean either way.
    #[inline]
    fn meet_valid(&self, a: &[u64], b: &[u64]) -> bool {
        self.k.meet_valid(self.fd, a, b)
    }

    #[inline]
    fn var_is_full(&self, c: &[u64], v: usize) -> bool {
        let (first, start, span) = self.fd.var_spans[v];
        (0..span).all(|k| {
            c[first + k] & self.fd.masks[start + k] == self.fd.masks[start + k]
        })
    }

    #[inline]
    fn literal_cost_one(&self, c: &[u64]) -> usize {
        (0..self.fd.num_vars)
            .filter(|&v| !self.var_is_full(c, v))
            .count()
    }

    fn cost(&self, f: &[u64]) -> (usize, usize) {
        let w = self.w();
        (
            f.len() / w,
            f.chunks_exact(w).map(|c| self.literal_cost_one(c)).sum(),
        )
    }

    /// Appends the general cofactor of every cube of `cubes` with respect to
    /// cube `p` (dropping non-intersecting cubes) — the legacy
    /// `cofactor_list` / `Cover::cofactor`.
    fn cofactor_all(&self, cubes: &[u64], p: &[u64], out: &mut AlignedWords) {
        let w = self.w();
        for x in cubes.chunks_exact(w) {
            if !self.meet_valid(x, p) {
                continue;
            }
            let base = out.len();
            out.resize(base + w, 0);
            self.k
                .cofactor_into(&mut out[base..base + w], x, p, &self.fd.full);
        }
    }

    /// Appends the cofactor of every cube with respect to the part cube
    /// `(v, p)`. For a *valid* cube `c` the general cofactor by a part cube
    /// collapses: it exists iff `c` admits part `p` (every other variable's
    /// meet is `c`'s own non-empty literal), and the result is `c` with
    /// variable `v` raised to full (`c ∨ ¬pc` leaves other variables
    /// untouched because `¬pc` is empty there). All tautology/complement
    /// recursion inputs are valid — covers hold only valid cubes and
    /// cofactors of valid cubes are valid — so this is exact.
    fn cofactor_all_by_part(&self, cubes: &[u64], v: usize, p: usize, out: &mut AlignedWords) {
        let w = self.w();
        let q = self.fd.offsets[v] + p;
        let (qw, qb) = (q / 64, 1u64 << (q % 64));
        let (first, start, span) = self.fd.var_spans[v];
        for c in cubes.chunks_exact(w) {
            debug_assert!(
                cube_is_valid(self.fd, c),
                "cofactor-by-part requires valid cubes"
            );
            if c[qw] & qb == 0 {
                continue;
            }
            let base = out.len();
            out.extend_from_slice(c);
            for k in 0..span {
                out[base + first + k] |= self.fd.masks[start + k];
            }
        }
    }

    /// Appends the consensus of `a` and `b` (caller guarantees distance
    /// exactly 1): the meet everywhere, the union in the one conflicting
    /// variable — the legacy `Cube::consensus`.
    fn push_consensus(&self, a: &[u64], b: &[u64], out: &mut AlignedWords) {
        let w = self.w();
        let base = out.len();
        out.resize(base + w, 0);
        self.k
            .and_into(&mut out[base..base + w], &a[..w], &b[..w]);
        for v in 0..self.fd.num_vars {
            if !self.fd.meet_var_empty(a, b, v) {
                continue;
            }
            let (first, start, span) = self.fd.var_spans[v];
            for k in 0..span {
                out[base + first + k] |=
                    (a[first + k] | b[first + k]) & self.fd.masks[start + k];
            }
            break;
        }
    }

    /// In-place single-cube containment, mirroring [`Cover::scc`]: stable
    /// sort by descending part count, fold-OR word signature prefilter, then
    /// the full per-word containment sweep — counter for counter the legacy
    /// accounting.
    fn scc(&self, cubes: &mut AlignedWords, scratch: &mut MinimizeScratch) {
        let w = self.w();
        let mut tmp = scratch.take();
        insertion_sort_chunks(cubes, w, &mut tmp, |a, b| chunk_parts(a) > chunk_parts(b));
        scratch.give(tmp);
        let mut sigs = scratch.take();
        let n = cubes.len() / w;
        let mut pairs = 0u64;
        let mut prefilter_rejects = 0u64;
        let mut kept = 0usize;
        'outer: for i in 0..n {
            let sig = self.k.fold_or(&cubes[i * w..(i + 1) * w]);
            // kept ≤ i, so the kept prefix and cube i are disjoint slices
            let (head, cur) = cubes.split_at(i * w);
            let cur = &cur[..w];
            for k in 0..kept {
                pairs += 1;
                if sig & !sigs[k] != 0 {
                    prefilter_rejects += 1;
                    continue;
                }
                if self.k.covers(&head[k * w..(k + 1) * w], cur) {
                    continue 'outer; // an earlier kept cube covers this one
                }
            }
            cubes.copy_within(i * w..(i + 1) * w, kept * w);
            sigs.push(sig);
            kept += 1;
        }
        cubes.truncate(kept * w);
        scratch.give(sigs);
        obs::count(obs::Counter::SccPairs, pairs);
        obs::count(obs::Counter::SccPrefilterRejects, prefilter_rejects);
    }

    /// Most binate variable, with the legacy tie-break: highest non-full
    /// count, then the *fewest* parts, then first wins.
    fn most_binate(&self, cubes: &[u64]) -> Option<usize> {
        let w = self.w();
        let mut best: Option<(usize, usize, usize)> = None; // (count, parts, var)
        for v in 0..self.fd.num_vars {
            let count = cubes
                .chunks_exact(w)
                .filter(|c| !self.var_is_full(c, v))
                .count();
            if count == 0 {
                continue;
            }
            let parts = self.fd.parts[v];
            let better = match best {
                None => true,
                Some((bc, bp, _)) => count > bc || (count == bc && parts < bp),
            };
            if better {
                best = Some((count, parts, v));
            }
        }
        best.map(|(_, _, v)| v)
    }

    fn taut_rec(&self, cubes: &[u64], scratch: &mut MinimizeScratch) -> bool {
        let w = self.w();
        if cubes.chunks_exact(w).any(|c| self.is_full(c)) {
            return true;
        }
        if cubes.is_empty() {
            return false;
        }
        let mut acc = scratch.take();
        acc.resize(w, 0);
        let mut union_full = false;
        for c in cubes.chunks_exact(w) {
            self.k.or_acc(&mut acc, c);
            if self.k.slices_eq(&acc, &self.fd.full) {
                union_full = true;
                break;
            }
        }
        scratch.give(acc);
        if !union_full {
            return false;
        }
        let Some(v) = self.most_binate(cubes) else {
            return false;
        };
        let mut branch = scratch.take();
        let mut taut = true;
        for p in 0..self.fd.parts[v] {
            branch.clear();
            self.cofactor_all_by_part(cubes, v, p, &mut branch);
            if !self.taut_rec(&branch, scratch) {
                taut = false;
                break;
            }
        }
        scratch.give(branch);
        taut
    }

    /// Complement of a single cube: one cube per non-full variable in
    /// variable order (full everywhere, the variable's admitted parts
    /// cleared). Always valid for a non-full variable, matching the legacy
    /// `is_valid` filter that never fires.
    fn cube_complement(&self, c: &[u64], out: &mut AlignedWords) {
        let w = self.w();
        for v in 0..self.fd.num_vars {
            if self.var_is_full(c, v) {
                continue;
            }
            let base = out.len();
            out.extend_from_slice(&self.fd.full);
            let (first, start, span) = self.fd.var_spans[v];
            for k in 0..span {
                out[base + first + k] &= !(c[first + k] & self.fd.masks[start + k]);
            }
            debug_assert!(cube_is_valid(self.fd, &out[base..base + w]));
        }
    }

    /// Recursive complement, mirroring the legacy `compl_rec`: branch on the
    /// most binate variable, lift cubes common (verbatim) to every branch
    /// complement, narrow the rest back to their branch part, and finish
    /// with an scc pass (base cases return before scc, as in the legacy
    /// code, so no counters fire for them).
    fn compl_rec(&self, cubes: &[u64], out: &mut AlignedWords, scratch: &mut MinimizeScratch) {
        debug_assert!(out.is_empty());
        let w = self.w();
        if cubes.is_empty() {
            out.extend_from_slice(&self.fd.full);
            return;
        }
        if cubes.chunks_exact(w).any(|c| self.is_full(c)) {
            return;
        }
        if cubes.len() == w {
            self.cube_complement(cubes, out);
            return;
        }
        let Some(v) = self.most_binate(cubes) else {
            return; // every cube full everywhere: complement is empty
        };
        let parts = self.fd.parts[v];
        let mut branch = scratch.take();
        let mut results: Vec<AlignedWords> = Vec::with_capacity(parts);
        for p in 0..parts {
            branch.clear();
            self.cofactor_all_by_part(cubes, v, p, &mut branch);
            let mut r = scratch.take();
            self.compl_rec(&branch, &mut r, scratch);
            results.push(r);
        }
        scratch.give(branch);
        let mut lifted = scratch.take();
        if let [first, rest @ ..] = results.as_slice() {
            for c in first.chunks_exact(w) {
                if rest.iter().all(|b| chunk_member(b, c, w)) {
                    lifted.extend_from_slice(c);
                }
            }
        }
        let (qfirst, qstart, qspan) = self.fd.var_spans[v];
        for (p, branch_out) in results.iter().enumerate() {
            let q = self.fd.offsets[v] + p;
            let (qw, qb) = (q / 64, 1u64 << (q % 64));
            for c in branch_out.chunks_exact(w) {
                if chunk_member(&lifted, c, w) {
                    continue;
                }
                // r = c ∧ part_cube(v, p): variable v narrowed to {p}, every
                // other variable untouched. Branch complements hold only
                // valid cubes, so r is valid exactly when c admits part p
                // (the legacy validity filter).
                if c[qw] & qb == 0 {
                    continue;
                }
                let base = out.len();
                out.extend_from_slice(c);
                for k in 0..qspan {
                    out[base + qfirst + k] &= !self.fd.masks[qstart + k];
                }
                out[base + qw] |= qb;
            }
        }
        out.extend_from_slice(&lifted);
        self.scc(out, scratch);
        scratch.give(lifted);
        for r in results {
            scratch.give(r);
        }
    }

    /// Whether the cover `f` covers the single cube `c` (tautology of the
    /// cofactor), mirroring the legacy `cover_covers_cube`.
    fn cover_covers_cube(&self, f: &[u64], c: &[u64], scratch: &mut MinimizeScratch) -> bool {
        let mut g = scratch.take();
        self.cofactor_all(f, c, &mut g);
        let taut = self.taut_rec(&g, scratch);
        scratch.give(g);
        taut
    }

    /// ORs the parts `o` admits in variable `v` into the blocking mask.
    #[inline]
    fn block_var(&self, forbidden: &mut [u64], o: &[u64], v: usize) {
        let (first, start, span) = self.fd.var_spans[v];
        for k in 0..span {
            forbidden[first + k] |= o[first + k] & self.fd.masks[start + k];
        }
    }

    /// Blocking-set set-up for one expanded cube (ESPRESSO-MV's blocking
    /// matrix, in incremental form): `dist[j]` is the distance from `cand`
    /// to off cube `j`, and `forbidden` collects, over every distance-1 off
    /// cube, its parts in the one variable where the meet is empty. A free
    /// part `p` can then be raised without meeting the off-set exactly when
    /// `p ∉ forbidden`. Returns `false` when `cand` already meets some off
    /// cube (distance 0): every raise is then illegal, and `dist` is left
    /// partial.
    fn blocking_setup(
        &self,
        off: &[u64],
        cand: &[u64],
        dist: &mut Vec<u32>,
        forbidden: &mut AlignedWords,
    ) -> bool {
        forbidden.clear();
        forbidden.resize(self.w(), 0);
        dist.clear();
        for o in off.chunks_exact(self.w()) {
            let d = cube_distance(self.fd, cand, o);
            match d {
                0 => return false,
                1 => {
                    if let Some(u) =
                        (0..self.fd.num_vars).find(|&u| self.fd.meet_var_empty(cand, o, u))
                    {
                        self.block_var(forbidden, o, u);
                    }
                }
                _ => {}
            }
            dist.push(d as u32);
        }
        true
    }

    /// Raises part `p` (of variable `v`, legal: `p ∉ forbidden`) in `cand`
    /// and updates the blocking set: every off cube that admits `p` and
    /// whose meet with `cand` was empty in `v` comes one variable closer;
    /// one reaching distance 1 blocks its remaining conflicting variable.
    /// Distance-1 cubes admitting `p` cannot conflict in `v` (that would
    /// have forbidden `p`), so only distances ≥ 2 move, and none reach 0.
    fn raise(
        &self,
        off: &[u64],
        cand: &mut [u64],
        (p, v): (usize, usize),
        dist: &mut [u32],
        forbidden: &mut [u64],
    ) {
        let (pw, pb) = (p / 64, 1u64 << (p % 64));
        for (o, d) in off.chunks_exact(self.w()).zip(dist.iter_mut()) {
            if *d < 2 || o[pw] & pb == 0 || !self.fd.meet_var_empty(cand, o, v) {
                continue;
            }
            *d -= 1;
            if *d == 1 {
                // `cand` still lacks `p`, so `v` is the one variable that
                // changes: the conflict left is the other empty one.
                if let Some(u) =
                    (0..self.fd.num_vars).find(|&u| u != v && self.fd.meet_var_empty(cand, o, u))
                {
                    self.block_var(forbidden, o, u);
                }
            }
        }
        cand[pw] |= pb;
    }

    /// EXPAND, mirroring the legacy `expand` decision for decision: cubes in
    /// ascending part order, free parts tried by descending weight (the
    /// number of uncovered cubes admitting the part), a part kept exactly
    /// when the grown cube still meets no off cube. Legality is the O(1)
    /// blocking-set test of [`MvCtx::blocking_setup`], maintained across
    /// accepted raises by [`MvCtx::raise`] — one off-set scan per accepted
    /// part instead of one per tried part. Weights come from per-part
    /// column counts over the uncovered cubes, decremented as cubes become
    /// covered (`f[i]` lacks every part it tries, so its own column entry
    /// is already excluded).
    fn expand(&self, f: &mut AlignedWords, off: &[u64], scratch: &mut MinimizeScratch) {
        let w = self.w();
        let mut tmp = scratch.take();
        insertion_sort_chunks(f, w, &mut tmp, |a, b| chunk_parts(a) < chunk_parts(b));
        let n = f.len() / w;
        let mut covered = std::mem::take(&mut scratch.flags);
        covered.clear();
        covered.resize(n, false);
        let mut order = std::mem::take(&mut scratch.pairs);
        let mut result = scratch.take();
        let mut cand = tmp; // reuse the sort buffer for the growing cube
        let mut cols = std::mem::take(&mut scratch.cols);
        cols.clear();
        cols.resize(self.fd.total_parts, 0);
        for c in f.chunks_exact(w) {
            for_each_part(c, |p| cols[p] += 1);
        }
        let mut dist = std::mem::take(&mut scratch.dist);
        let mut forbidden = scratch.take();
        for i in 0..n {
            if covered[i] {
                continue;
            }
            cand.clear();
            cand.extend_from_slice(&f[i * w..(i + 1) * w]);
            if self.blocking_setup(off, &cand, &mut dist, &mut forbidden) {
                order.clear();
                for p in 0..self.fd.total_parts {
                    if cand[p / 64] >> (p % 64) & 1 == 0 {
                        order.push((p, cols[p] as usize));
                    }
                }
                sort_expand_order(&mut order);
                for &(p, _) in order.iter() {
                    if forbidden[p / 64] >> (p % 64) & 1 != 0 {
                        continue;
                    }
                    let v = self.fd.offsets.partition_point(|&o| o <= p) - 1;
                    self.raise(off, &mut cand, (p, v), &mut dist, &mut forbidden);
                }
            }
            for j in 0..n {
                let cj = &f[j * w..(j + 1) * w];
                if j != i && !covered[j] && self.covers(&cand, cj) {
                    covered[j] = true;
                    for_each_part(cj, |p| cols[p] -= 1);
                }
            }
            result.extend_from_slice(&cand);
        }
        std::mem::swap(f, &mut result);
        scratch.give(result);
        scratch.give(cand);
        scratch.give(forbidden);
        scratch.cols = cols;
        scratch.dist = dist;
        scratch.pairs = order;
        scratch.flags = covered;
    }

    fn reduce(&self, f: &mut AlignedWords, dc: &[u64], scratch: &mut MinimizeScratch) {
        let w = self.w();
        let mut tmp = scratch.take();
        insertion_sort_chunks(f, w, &mut tmp, |a, b| chunk_parts(a) > chunk_parts(b));
        let n = f.len() / w;
        let mut c = tmp; // reuse: copy of the cube under reduction
        let mut rest = scratch.take();
        let mut g = scratch.take();
        let mut h = scratch.take();
        for i in 0..n {
            c.clear();
            c.extend_from_slice(&f[i * w..(i + 1) * w]);
            if self.k.is_zero(&c) {
                // legacy: the complement of the (empty) cofactored rest is
                // the universe with no scc pass, and the re-reduced cube
                // stays invalid — counter-identical shortcut.
                continue;
            }
            rest.clear();
            for j in 0..n {
                if j == i {
                    continue;
                }
                let chunk = &f[j * w..(j + 1) * w];
                if chunk.iter().any(|&x| x != 0) {
                    rest.extend_from_slice(chunk);
                }
            }
            rest.extend_from_slice(dc);
            g.clear();
            self.cofactor_all(&rest, &c, &mut g);
            h.clear();
            self.compl_rec(&g, &mut h, scratch);
            let fi = &mut f[i * w..(i + 1) * w];
            fi.fill(0);
            for chunk in h.chunks_exact(w) {
                self.k.or_acc(fi, chunk);
            }
            for k in 0..w {
                fi[k] &= c[k];
            }
            // h empty (fully redundant cube) or an invalid shrink both mark
            // the slot empty, as in the legacy supercube/is_valid match.
            if !cube_is_valid(self.fd, fi) {
                fi.fill(0);
            }
        }
        let mut write = 0usize;
        for i in 0..n {
            if f[i * w..(i + 1) * w].iter().any(|&x| x != 0) {
                f.copy_within(i * w..(i + 1) * w, write * w);
                write += 1;
            }
        }
        f.truncate(write * w);
        scratch.give(h);
        scratch.give(g);
        scratch.give(rest);
        scratch.give(c);
    }

    fn irredundant(&self, f: &mut AlignedWords, dc: &[u64], scratch: &mut MinimizeScratch) {
        let w = self.w();
        let mut tmp = scratch.take();
        insertion_sort_chunks(f, w, &mut tmp, |a, b| chunk_parts(a) > chunk_parts(b));
        scratch.give(tmp);
        let n = f.len() / w;
        let mut keep = std::mem::take(&mut scratch.flags);
        keep.clear();
        keep.resize(n, true);
        let mut rest = scratch.take();
        for i in (0..n).rev() {
            rest.clear();
            for j in 0..n {
                if j != i && keep[j] {
                    rest.extend_from_slice(&f[j * w..(j + 1) * w]);
                }
            }
            rest.extend_from_slice(dc);
            if self.cover_covers_cube(&rest, &f[i * w..(i + 1) * w], scratch) {
                keep[i] = false;
            }
        }
        let mut write = 0usize;
        for (i, &kept) in keep.iter().enumerate() {
            if kept {
                f.copy_within(i * w..(i + 1) * w, write * w);
                write += 1;
            }
        }
        f.truncate(write * w);
        scratch.give(rest);
        scratch.flags = keep;
    }

    fn essentials(
        &self,
        f: &[u64],
        dc: &[u64],
        out: &mut AlignedWords,
        scratch: &mut MinimizeScratch,
    ) {
        let w = self.w();
        let mut h = scratch.take();
        let mut hc = scratch.take();
        let n = f.len() / w;
        for i in 0..n {
            let c = &f[i * w..(i + 1) * w];
            h.clear();
            for j in 0..n {
                if j == i {
                    continue;
                }
                let g = &f[j * w..(j + 1) * w];
                match self.k.distance(self.fd, g, c) {
                    0 => h.extend_from_slice(g),
                    1 => self.push_consensus(g, c, &mut h),
                    _ => {}
                }
            }
            for g in dc.chunks_exact(w) {
                match self.k.distance(self.fd, g, c) {
                    0 => h.extend_from_slice(g),
                    1 => self.push_consensus(g, c, &mut h),
                    _ => {}
                }
            }
            hc.clear();
            self.cofactor_all(&h, c, &mut hc);
            if !self.taut_rec(&hc, scratch) {
                out.extend_from_slice(c);
            }
        }
        scratch.give(hc);
        scratch.give(h);
    }

    /// Last-gasp pass; replaces `f` and returns `true` when it found a
    /// strictly cheaper cover (mirrors the legacy `last_gasp`).
    fn gasp(
        &self,
        f: &mut AlignedWords,
        dc: &[u64],
        off: &[u64],
        scratch: &mut MinimizeScratch,
    ) -> bool {
        let w = self.w();
        let n = f.len() / w;
        if n < 2 {
            return false;
        }
        let mut reduced = scratch.take();
        let mut rest = scratch.take();
        let mut g = scratch.take();
        let mut h = scratch.take();
        for i in 0..n {
            let c = &f[i * w..(i + 1) * w];
            rest.clear();
            for j in 0..n {
                if j != i {
                    rest.extend_from_slice(&f[j * w..(j + 1) * w]);
                }
            }
            rest.extend_from_slice(dc);
            g.clear();
            self.cofactor_all(&rest, c, &mut g);
            h.clear();
            self.compl_rec(&g, &mut h, scratch);
            if h.is_empty() {
                continue; // fully redundant: maximally reduced away
            }
            let base = reduced.len();
            reduced.resize(base + w, 0);
            for chunk in h.chunks_exact(w) {
                self.k.or_acc(&mut reduced[base..base + w], chunk);
            }
            for k in 0..w {
                reduced[base + k] &= c[k];
            }
            if !cube_is_valid(self.fd, &reduced[base..base + w]) {
                reduced.truncate(base);
            }
        }
        scratch.give(h);
        scratch.give(g);
        scratch.give(rest);
        if reduced.is_empty() {
            scratch.give(reduced);
            return false;
        }
        let mut expanded = scratch.take();
        expanded.extend_from_slice(&reduced);
        self.expand(&mut expanded, off, scratch);
        let mut useful = scratch.take();
        for p in expanded.chunks_exact(w) {
            if reduced
                .chunks_exact(w)
                .filter(|r| self.covers(p, r))
                .count()
                >= 2
            {
                useful.extend_from_slice(p);
            }
        }
        scratch.give(expanded);
        if useful.is_empty() {
            scratch.give(useful);
            scratch.give(reduced);
            return false;
        }
        let mut candidate = scratch.take();
        candidate.extend_from_slice(f);
        candidate.extend_from_slice(&useful);
        self.irredundant(&mut candidate, dc, scratch);
        let better = self.cost(&candidate) < self.cost(f);
        if better {
            std::mem::swap(f, &mut candidate);
        }
        scratch.give(candidate);
        scratch.give(useful);
        scratch.give(reduced);
        better
    }

    /// Whether `f` covers every cube of `g`.
    fn contains_all(&self, f: &[u64], g: &[u64], scratch: &mut MinimizeScratch) -> bool {
        g.chunks_exact(self.w())
            .all(|c| self.cover_covers_cube(f, c, scratch))
    }

    /// Debug helper mirroring the legacy `implements` invariant:
    /// `on ⊆ f ⊆ on ∪ dc`.
    fn implements(
        &self,
        f: &[u64],
        on: &[u64],
        dc: &[u64],
        scratch: &mut MinimizeScratch,
    ) -> bool {
        let mut upper = scratch.take();
        upper.extend_from_slice(on);
        upper.extend_from_slice(dc);
        let ok =
            self.contains_all(f, on, scratch) && self.contains_all(&upper, f, scratch);
        scratch.give(upper);
        ok
    }
}

/// The full ESPRESSO loop over fixed-stride multi-word cube chunks — the
/// generic-rung counterpart of [`espresso_words`], mirroring
/// [`crate::espresso_bounded`] pass for pass: same span (`"espresso"`),
/// same `espresso.iter` budget ticks, same counter increments, same cube
/// orderings. Returns the minimized cover as a pool buffer (the caller
/// should [`MinimizeScratch::give`] it back) plus the budget completion.
fn espresso_chunks<S: Stride, K: Kern>(
    ctx: MvCtx<'_, S, K>,
    on: &[u64],
    dc: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (AlignedWords, Completion) {
    let span = obs::current_or(budget.recorder()).span("espresso");
    let _cur = obs::enter(span.recorder());

    if on.is_empty() {
        return (scratch.take(), budget.completion());
    }
    if !budget.tick("espresso.iter", 1) {
        // mirror the legacy degraded path: the on-set scc'd, nothing more
        let mut f = scratch.take();
        f.extend_from_slice(on);
        ctx.scc(&mut f, scratch);
        return (f, budget.completion());
    }

    let mut on_dc = scratch.take();
    on_dc.extend_from_slice(on);
    on_dc.extend_from_slice(dc);
    let mut off = scratch.take();
    ctx.compl_rec(&on_dc, &mut off, scratch);
    scratch.give(on_dc);
    if off.is_empty() {
        scratch.give(off);
        let mut f = scratch.take();
        f.extend_from_slice(ctx.full());
        return (f, budget.completion());
    }

    let mut f = scratch.take();
    f.extend_from_slice(on);
    ctx.scc(&mut f, scratch);
    obs::count(obs::Counter::ExpandCalls, 1);
    ctx.expand(&mut f, &off, scratch);
    obs::count(obs::Counter::IrredundantCalls, 1);
    ctx.irredundant(&mut f, dc, scratch);
    if opts.check_invariants {
        debug_assert!(
            ctx.implements(&f, on, dc, scratch),
            "flat espresso: invariant lost after initial expand/irredundant"
        );
    }

    let mut ess = scratch.take();
    let mut dc_aug = scratch.take();
    if opts.use_essentials {
        ctx.essentials(&f, dc, &mut ess, scratch);
        retain_chunks_not_in(&mut f, &ess, ctx.w());
        dc_aug.extend_from_slice(dc);
        dc_aug.extend_from_slice(&ess);
    } else {
        dc_aug.extend_from_slice(dc);
    }
    ctx.scc(&mut dc_aug, scratch);

    let mut best = ctx.cost(&f);
    let mut iterations = 0usize;
    let mut candidate = scratch.take();
    'outer: loop {
        while iterations < opts.max_iterations {
            if !budget.tick("espresso.iter", 1) {
                break 'outer;
            }
            iterations += 1;
            obs::count(obs::Counter::EspressoIters, 1);
            if f.is_empty() {
                break 'outer;
            }
            candidate.clear();
            candidate.extend_from_slice(&f);
            obs::count(obs::Counter::ReduceCalls, 1);
            ctx.reduce(&mut candidate, &dc_aug, scratch);
            obs::count(obs::Counter::ExpandCalls, 1);
            ctx.expand(&mut candidate, &off, scratch);
            obs::count(obs::Counter::IrredundantCalls, 1);
            ctx.irredundant(&mut candidate, &dc_aug, scratch);
            let c = ctx.cost(&candidate);
            if c < best {
                best = c;
                std::mem::swap(&mut f, &mut candidate);
            } else {
                break;
            }
        }
        if !opts.use_last_gasp || iterations >= opts.max_iterations || budget.is_exhausted() {
            break;
        }
        if !ctx.gasp(&mut f, &dc_aug, &off, scratch) {
            break;
        }
        best = ctx.cost(&f);
    }
    let _ = best;

    f.extend_from_slice(&ess);
    ctx.scc(&mut f, scratch);
    if opts.check_invariants {
        debug_assert!(
            ctx.implements(&f, on, dc, scratch),
            "flat espresso: result does not implement the function"
        );
    }
    scratch.give(candidate);
    scratch.give(dc_aug);
    scratch.give(ess);
    scratch.give(off);
    (f, budget.completion())
}

/// Runs the generic engine at the right stride rung for a fixed kernel
/// backend `k`: the 2/4-word register-blocked specializations, the
/// dynamic-stride fallback for wider domains. (The 1-word rung and the
/// inline binary engine never reach here — see [`run_words`].)
fn run_stride<K: Kern>(
    fd: &FlatDomain,
    k: K,
    on_w: &[u64],
    dc_w: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (AlignedWords, Completion) {
    match fd.words() {
        2 => espresso_chunks(MvCtx { fd, s: FixedW::<2>, k }, on_w, dc_w, opts, budget, scratch),
        4 => espresso_chunks(MvCtx { fd, s: FixedW::<4>, k }, on_w, dc_w, opts, budget, scratch),
        w => espresso_chunks(MvCtx { fd, s: DynW(w), k }, on_w, dc_w, opts, budget, scratch),
    }
}

/// [`run_stride`] with the Wide backend's kernels: AVX2 when the CPU has
/// it, the portable 4-lane fallback otherwise — bit-identical either way.
fn run_stride_wide(
    fd: &FlatDomain,
    on_w: &[u64],
    dc_w: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (AlignedWords, Completion) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_active() {
        return run_wide_kern(fd, simd::Avx2Kern, on_w, dc_w, opts, budget, scratch);
    }
    run_wide_kern(fd, simd::PortableKern, on_w, dc_w, opts, budget, scratch)
}

/// The Wide backend's rung selection for a concrete kernel. Three-word
/// domains are lifted to the monomorphized 4-word rung with a zero padding
/// word per cube — every kernel op becomes one straight-line 256-bit lane
/// instead of a runtime-length loop, and [`FlatDomain::padded_to`]
/// guarantees the padding never influences a result. The padding is
/// stripped again before returning, so callers only ever see the domain's
/// true stride.
fn run_wide_kern<K: Kern>(
    fd: &FlatDomain,
    k: K,
    on_w: &[u64],
    dc_w: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (AlignedWords, Completion) {
    if fd.words() == 3 {
        let pfd = fd.padded_to(4);
        let mut on_p = scratch.take();
        pad_stride(on_w, 3, 4, &mut on_p);
        let mut dc_p = scratch.take();
        pad_stride(dc_w, 3, 4, &mut dc_p);
        let (fp, completion) = run_stride(&pfd, k, &on_p, &dc_p, opts, budget, scratch);
        let mut f = scratch.take();
        unpad_stride(&fp, 4, 3, &mut f);
        scratch.give(fp);
        scratch.give(dc_p);
        scratch.give(on_p);
        return (f, completion);
    }
    run_stride(fd, k, on_w, dc_w, opts, budget, scratch)
}

/// Re-strides `src` (cubes of `from` words) into `out` at `to` words per
/// cube, zero-filling the new trailing words.
fn pad_stride(src: &[u64], from: usize, to: usize, out: &mut AlignedWords) {
    debug_assert!(out.is_empty() && from <= to);
    let cubes = src.len() / from;
    out.resize(cubes * to, 0);
    let dst = out.as_mut_slice();
    for (i, c) in src.chunks_exact(from).enumerate() {
        dst[i * to..i * to + from].copy_from_slice(c);
    }
}

/// Inverse of [`pad_stride`]: drops each cube's trailing padding words
/// (which the engine provably kept zero).
fn unpad_stride(src: &[u64], from: usize, to: usize, out: &mut AlignedWords) {
    debug_assert!(out.is_empty() && to <= from);
    for c in src.chunks_exact(from) {
        debug_assert!(c[to..].iter().all(|&x| x == 0), "padding word disturbed");
        out.extend_from_slice(&c[..to]);
    }
}

/// Routes a word-form minimization to the right engine rung: the inline
/// single-word binary engine where it applies, otherwise the generic engine
/// monomorphized for 1/2/4-word strides with a dynamic-stride fallback.
/// Total — every domain is handled; nothing routes back to the legacy
/// driver (the [`obs::Counter::LegacyFallback`] tripwire stays at zero).
///
/// Multi-word rungs (stride ≥ 2) additionally dispatch on the selected
/// [`KernelBackend`]; the single-word rungs are pure register code with
/// nothing to vectorize and always run the scalar kernels. Each dispatched
/// run bumps [`obs::Counter::KernelDispatches`] plus exactly one of
/// [`obs::Counter::KernelWideCalls`] / [`obs::Counter::KernelScalarCalls`]
/// — the conservation the kernel counter tests pin down. Backend choice is
/// invisible to results: covers, counters, budget ticks, and traces are
/// bit-identical (`tests/prop_simd_kernels.rs`).
fn run_words(
    dom: &Domain,
    on_w: &[u64],
    dc_w: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (AlignedWords, Completion) {
    if flat_eligible(dom) {
        return espresso_words(BinCtx::new(dom), on_w, dc_w, opts, budget, scratch);
    }
    let fd = scratch.take_layout(dom);
    let out = if fd.words() == 1 {
        let ctx = MvCtx { fd: &fd, s: FixedW::<1>, k: ScalarKern };
        espresso_chunks(ctx, on_w, dc_w, opts, budget, scratch)
    } else {
        // `count_scoped`, not `count`: the dispatch happens before the
        // engine opens its "espresso" span, so with no caller-entered span
        // the bump must fall back to the budget-attached recorder.
        let rec = budget.recorder();
        obs::count_scoped(rec, obs::Counter::KernelDispatches, 1);
        match simd::selected_backend() {
            KernelBackend::Wide => {
                obs::count_scoped(rec, obs::Counter::KernelWideCalls, 1);
                run_stride_wide(&fd, on_w, dc_w, opts, budget, scratch)
            }
            KernelBackend::Scalar => {
                obs::count_scoped(rec, obs::Counter::KernelScalarCalls, 1);
                run_stride(&fd, ScalarKern, on_w, dc_w, opts, budget, scratch)
            }
        }
    };
    scratch.put_layout(dom, fd);
    out
}

/// Minimized cube count of `(on, dc)` on the flat engine — the word-form
/// fast path behind [`crate::cache::MinimizeCache`], skipping the `Cover`
/// rebuild of [`flat_espresso_bounded`] since only the length is needed.
pub(crate) fn flat_minimized_len(on: &Cover, dc: &Cover, scratch: &mut MinimizeScratch) -> usize {
    let dom = on.domain();
    let mut on_w = scratch.take();
    cover_to_words(on, &mut on_w);
    let mut dc_w = scratch.take();
    cover_to_words(dc, &mut dc_w);
    let (f, _) = run_words(
        dom,
        &on_w,
        &dc_w,
        &MinimizeOptions::default(),
        &Budget::unlimited(),
        scratch,
    );
    let n = f.len() / dom.words();
    scratch.give(f);
    scratch.give(dc_w);
    scratch.give(on_w);
    n
}

/// Copies a cover's cubes into a flat word buffer of the domain's stride.
pub(crate) fn cover_to_words(cover: &Cover, out: &mut AlignedWords) {
    debug_assert!(out.is_empty());
    for c in cover.iter() {
        out.extend_from_slice(c.words());
    }
}

fn words_to_cover(dom: &Domain, words: &[u64]) -> Cover {
    Cover::from_cubes(
        dom,
        words
            .chunks_exact(dom.words())
            .map(|c| Cube::from_raw_words(c.to_vec())),
    )
}

/// Allocation-free ESPRESSO under a budget, on **every** domain. Eligible
/// all-binary domains (see [`flat_eligible`]) take the inline single-word
/// engine; everything else takes the generic multi-word engine at its
/// stride's specialization rung. Bit-identical to the legacy
/// [`crate::espresso_bounded`] in all cases — and never calls it.
pub fn flat_espresso_bounded(
    on: &Cover,
    dc: &Cover,
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (Cover, Completion) {
    let dom = on.domain();
    assert_eq!(dom, dc.domain(), "espresso: domain mismatch");
    let mut on_w = scratch.take();
    cover_to_words(on, &mut on_w);
    let mut dc_w = scratch.take();
    cover_to_words(dc, &mut dc_w);
    let (fw, completion) = run_words(dom, &on_w, &dc_w, opts, budget, scratch);
    let cover = words_to_cover(dom, &fw);
    scratch.give(fw);
    scratch.give(dc_w);
    scratch.give(on_w);
    (cover, completion)
}

/// [`flat_espresso_bounded`] with default options, an unlimited budget, and
/// a one-shot scratch — the flat counterpart of [`crate::espresso`].
pub fn flat_espresso(on: &Cover, dc: &Cover) -> Cover {
    flat_espresso_with(on, dc, &MinimizeOptions::default())
}

/// [`flat_espresso_bounded`] with an unlimited budget and a one-shot
/// scratch — the flat counterpart of [`crate::espresso_with`].
pub fn flat_espresso_with(on: &Cover, dc: &Cover, opts: &MinimizeOptions) -> Cover {
    let mut scratch = MinimizeScratch::new();
    flat_espresso_bounded(on, dc, opts, &Budget::unlimited(), &mut scratch).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Cover;
    use crate::cube::Cube;
    use crate::domain::Domain;
    use crate::espresso::espresso;

    fn cover_from_codes(dom: &Domain, nv: usize, codes: &[u32]) -> Cover {
        let mut c = Cover::empty(dom);
        for &code in codes {
            let mut cube = Cube::full(dom);
            for v in 0..nv {
                cube.restrict_binary(dom, v, code >> v & 1 != 0);
            }
            c.push(cube);
        }
        c
    }

    #[test]
    fn eligibility_requires_all_binary_single_word() {
        assert!(flat_eligible(&Domain::binary(1)));
        assert!(flat_eligible(&Domain::binary(32)));
        assert!(!flat_eligible(&Domain::binary(33)));
    }

    #[test]
    fn flat_matches_legacy_on_minterm_covers() {
        let dom = Domain::binary(4);
        let on = cover_from_codes(&dom, 4, &[0, 1, 2, 3, 8, 9]);
        let dc = cover_from_codes(&dom, 4, &[10, 11]);
        let legacy = espresso(&on, &dc);
        let flat = flat_espresso(&on, &dc);
        assert_eq!(legacy, flat);
    }

    #[test]
    fn flat_cover_roundtrips() {
        let dom = Domain::binary(3);
        let on = cover_from_codes(&dom, 3, &[0, 3, 5]);
        let fc = FlatCover::from_cover(&on);
        assert_eq!(fc.len(), 3);
        assert_eq!(fc.stride(), 1);
        assert_eq!(fc.to_cover(&dom), on);
    }

    #[test]
    fn generic_kernels_match_cube_ops() {
        let dom = Domain::binary(3);
        let fd = FlatDomain::new(&dom);
        let mut a = Cube::full(&dom);
        a.restrict_binary(&dom, 0, true);
        let mut b = Cube::full(&dom);
        b.restrict_binary(&dom, 0, false);
        assert!(cube_is_valid(&fd, a.words()));
        assert_eq!(
            cube_distance(&fd, a.words(), b.words()),
            a.distance(&b, &dom)
        );
        let mut out = vec![0u64; fd.words()];
        assert!(cube_consensus_into(&fd, a.words(), b.words(), &mut out));
        let cons = a.consensus(&b, &dom).expect("distance 1");
        assert_eq!(out.as_slice(), cons.words());
    }

    #[test]
    fn empty_on_set_minimizes_to_empty() {
        let dom = Domain::binary(2);
        let on = Cover::empty(&dom);
        let dc = Cover::empty(&dom);
        assert!(flat_espresso(&on, &dc).is_empty());
    }

    #[test]
    fn universe_collapses_to_single_full_cube() {
        let dom = Domain::binary(2);
        let on = cover_from_codes(&dom, 2, &[0, 1, 2, 3]);
        let dc = Cover::empty(&dom);
        let flat = flat_espresso(&on, &dc);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat, espresso(&on, &dc));
    }

    #[test]
    fn distance_counts_pairs_straddling_and_inside_words() {
        // `a` sits on bits 63/64 (walked), `b` inside word 1 (bit trick).
        let dom = crate::domain::DomainBuilder::new()
            .multi("s", 63)
            .binary("a")
            .binary("b")
            .multi("t", 3)
            .build();
        let fd = FlatDomain::new(&dom);
        let mut cubes = Vec::new();
        for bits in 0..32u32 {
            let mut c = Cube::full(&dom);
            for (var, bit) in [(1, 0), (2, 2)] {
                match bits >> bit & 3 {
                    0 => c.restrict_binary(&dom, var, false),
                    1 => c.restrict_binary(&dom, var, true),
                    _ => {}
                }
            }
            if bits >> 4 & 1 != 0 {
                c.restrict(&dom, 0, 62);
                c.restrict(&dom, 3, 1);
            }
            cubes.push(c);
        }
        for a in &cubes {
            for b in &cubes {
                assert_eq!(
                    cube_distance(&fd, a.words(), b.words()),
                    a.distance(b, &dom)
                );
            }
        }
    }

    #[test]
    fn flat_matches_legacy_on_multi_valued_domain() {
        // 5 + 3 + 2 parts in one word, but multi-valued: generic 1-word rung.
        let dom = crate::domain::DomainBuilder::new()
            .multi("a", 5)
            .multi("b", 3)
            .binary("c")
            .build();
        assert!(!flat_eligible(&dom));
        let mut on = Cover::empty(&dom);
        for (a, b, c) in [(0, 0, false), (1, 0, false), (0, 1, false), (2, 2, true), (3, 2, true)]
        {
            let mut cube = Cube::full(&dom);
            cube.restrict(&dom, 0, a);
            cube.restrict(&dom, 1, b);
            cube.restrict_binary(&dom, 2, c);
            on.push(cube);
        }
        let mut dc = Cover::empty(&dom);
        let mut d0 = Cube::full(&dom);
        d0.restrict(&dom, 0, 4);
        dc.push(d0);
        assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
    }

    fn sparse_binary_cover(dom: &Domain, nv: usize, extra: usize) -> (Cover, Cover) {
        let mut on = Cover::empty(dom);
        for code in 0..6u32 {
            let mut cube = Cube::full(dom);
            for v in 0..3.min(nv) {
                cube.restrict_binary(dom, v, code >> v & 1 != 0);
            }
            cube.restrict_binary(dom, extra, code % 2 == 0);
            on.push(cube);
        }
        let mut dc = Cover::empty(dom);
        let mut d = Cube::full(dom);
        d.restrict_binary(dom, extra, true);
        d.restrict_binary(dom, 0, true);
        dc.push(d);
        (on, dc)
    }

    #[test]
    fn flat_matches_legacy_on_two_word_domain() {
        let dom = Domain::binary(33);
        assert_eq!(dom.words(), 2);
        let (on, dc) = sparse_binary_cover(&dom, 33, 32);
        assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
    }

    #[test]
    fn flat_matches_legacy_on_four_word_domain() {
        let dom = Domain::binary(100);
        assert_eq!(dom.words(), 4);
        let (on, dc) = sparse_binary_cover(&dom, 100, 99);
        assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
    }

    #[test]
    fn flat_matches_legacy_on_dynamic_stride_domain() {
        // 140 binary vars → 280 parts → 5 words: the DynW fallback rung.
        let dom = Domain::binary(140);
        assert_eq!(dom.words(), 5);
        let (on, dc) = sparse_binary_cover(&dom, 140, 139);
        assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
    }

    #[test]
    fn flat_matches_legacy_on_multi_word_multi_valued_domain() {
        // A 9-part state variable plus 60 binary vars: 129 parts, 3 words,
        // mixed part widths — the shape face-constraint extraction produces.
        let dom = crate::domain::DomainBuilder::new()
            .multi("s", 9)
            .binaries("x", 60)
            .build();
        assert_eq!(dom.words(), 3);
        let mut on = Cover::empty(&dom);
        for (s, x0) in [(0, false), (1, false), (2, true), (5, true), (8, false)] {
            let mut cube = Cube::full(&dom);
            cube.restrict(&dom, 0, s);
            cube.restrict_binary(&dom, 1, x0);
            cube.restrict_binary(&dom, 60, !x0);
            on.push(cube);
        }
        let mut dc = Cover::empty(&dom);
        let mut d = Cube::full(&dom);
        d.restrict(&dom, 0, 7);
        dc.push(d);
        assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
    }
}

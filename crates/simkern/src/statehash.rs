//! Deterministic state hashing (the runtime half of `dronelint`).
//!
//! Every simulated subsystem implements [`StateHash`], folding its
//! observable state into a [`StateHasher`]. The dual-run sanitizer
//! executes the same mission twice under one seed and compares the
//! per-tick hash vectors; any nondeterminism source — unordered map
//! iteration, a wall-clock read, unseeded randomness — shows up as a
//! hash divergence attributable to the first component and tick where
//! the runs split.
//!
//! The hasher is FNV-1a (64-bit): tiny, allocation-free, and — unlike
//! `std::collections::hash_map::DefaultHasher` — guaranteed stable
//! across Rust releases and processes, which is what makes hashes
//! comparable between runs and recordable in test expectations.
//!
//! Logs that only ever grow (a MAVProxy outbox, the ATT flight log)
//! live in an [`AppendLog`], which folds its items in time
//! proportional to what was appended since the last fold rather than
//! to the whole log, with the exact bytes a plain re-hash would fold.

use std::cell::Cell;
use std::rc::Rc;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental, stable 64-bit state hasher.
#[derive(Debug, Clone)]
pub struct StateHasher {
    state: u64,
}

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StateHasher { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `i64`.
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to 64 bits so 32- and 64-bit hosts
    /// hash identically.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Folds an `f64` by bit pattern. NaN payloads and signed zeros
    /// are distinguished deliberately: a run that produces `-0.0`
    /// where another produced `0.0` has diverged.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string with a length prefix (so `("ab", "c")` and
    /// `("a", "bc")` hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Derives a deterministic RNG substream seed from a root seed and a
/// `(stream, index)` coordinate — the pure FNV-1a fold the fleet
/// executor uses for per-flight kernel seeds (`stream` = wave,
/// `index` = global flight index). No hidden counters: replaying the
/// same coordinates replays the same seed, which is what lets flights
/// run on worker threads in any completion order and still boot
/// bit-identical kernels.
pub fn substream_seed(root: u64, stream: u64, index: usize) -> u64 {
    let mut h = StateHasher::new();
    h.write_u64(root);
    h.write_u64(stream);
    h.write_usize(index);
    h.finish()
}

/// A type whose deterministic-simulation-relevant state can be folded
/// into a [`StateHasher`].
///
/// Implementations must visit state in a *fixed* order (struct field
/// order, `BTreeMap` iteration order) and must cover every field that
/// influences future behavior. Caches are included on purpose: a
/// cache whose contents differ between same-seed runs is itself a
/// determinism bug even if reads happen to coincide.
pub trait StateHash {
    /// Folds this value's state into `h`.
    fn state_hash(&self, h: &mut StateHasher);

    /// Convenience: the value's standalone hash.
    fn hash_value(&self) -> u64 {
        let mut h = StateHasher::new();
        self.state_hash(&mut h);
        h.finish()
    }
}

/// An item of an [`AppendLog`]: it serialises the bytes its hash
/// folds, so the log can fold many items with one
/// [`StateHasher::write_bytes`] call.
pub trait LogItem {
    /// Appends this item's hashed bytes to `out`.
    fn write_log_bytes(&self, out: &mut Vec<u8>);
}

impl<T: LogItem + ?Sized> LogItem for Rc<T> {
    fn write_log_bytes(&self, out: &mut Vec<u8>) {
        (**self).write_log_bytes(out);
    }
}

/// An append-only log whose [`StateHash`] is incremental and exact.
///
/// The log keeps a start-state table over every item a fold has seen,
/// so a fold serialises only the items appended since the previous
/// one: for a fixed byte string `B` of `n` bytes, FNV-1a from any
/// start state `s` is `s·Pⁿ + D[s & 0xff]` (mod 2⁶⁴), because each
/// step's `s ^ b = s + d` with `d` depending only on the low byte of
/// `s`, and that low byte evolves independently of the upper bits.
/// Extending the table over the new bytes keeps it exact for the
/// whole log.
///
/// The memo is a cache, not state: it is never hashed, `Clone` copies
/// it, and [`AppendLog::take`] resets it. The log exposes no `&mut`
/// access to its items, so the memo cannot go stale.
pub struct AppendLog<T> {
    items: Vec<T>,
    memo: Cell<FoldMemo>,
}

/// The folded prefix of an [`AppendLog`]: FNV over its bytes from
/// start state `s` is `s·pow + table[s & 0xff]`.
#[derive(Clone)]
struct Prefix {
    /// Items covered.
    items: usize,
    /// `P` to the power of the prefix's byte count.
    pow: u64,
    table: [u64; 256],
}

impl Prefix {
    fn empty() -> Box<Prefix> {
        Box::new(Prefix {
            items: 0,
            pow: 1,
            table: [0; 256],
        })
    }

    fn apply(&self, state: u64) -> u64 {
        state
            .wrapping_mul(self.pow)
            .wrapping_add(self.table[usize::from(state.to_le_bytes()[0])])
    }

    /// Extends the table by `bytes`, running FNV-1a from all 256
    /// low-byte classes as independent lanes: 128 lanes at a time in
    /// AVX-512 registers when the CPU has them, eight otherwise. Both
    /// widths do the same wrapping arithmetic, so the table is
    /// bit-identical on every host.
    #[allow(unsafe_code)]
    fn extend(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: `extend_avx512` needs exactly the two CPU
            // features detected above.
            unsafe { self.extend_avx512(bytes) };
            return;
        }
        self.extend_lanes::<8>(bytes);
    }

    /// [`Prefix::extend_lanes`] at 128 lanes, compiled for AVX-512:
    /// `vpmullq` multiplies eight lanes at once and sixteen
    /// independent vectors hide its latency.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn extend_avx512(&mut self, bytes: &[u8]) {
        self.extend_lanes::<128>(bytes);
    }

    /// The table build, `N` lanes at a time.
    #[inline(always)]
    fn extend_lanes<const N: usize>(&mut self, bytes: &[u8]) {
        const { assert!(256 % N == 0) };
        // Lane `c` starts where the prefix leaves start state `c`.
        let mut lanes = [0u64; 256];
        for (c, (lane, d)) in (0u64..).zip(lanes.iter_mut().zip(&self.table)) {
            *lane = c.wrapping_mul(self.pow).wrapping_add(*d);
        }
        // `N` lanes held in registers across all of `bytes`: the
        // multiplies are independent, so this runs at multiplier
        // throughput rather than latency.
        for block in lanes.chunks_exact_mut(N) {
            let mut regs = [0u64; N];
            regs.copy_from_slice(block);
            for &b in bytes {
                let b = u64::from(b);
                for lane in &mut regs {
                    *lane = (*lane ^ b).wrapping_mul(FNV_PRIME);
                }
            }
            block.copy_from_slice(&regs);
        }
        let pow_n = bytes
            .iter()
            .fold(1u64, |pow, _| pow.wrapping_mul(FNV_PRIME));
        self.pow = self.pow.wrapping_mul(pow_n);
        for (c, (d, lane)) in (0u64..).zip(self.table.iter_mut().zip(&lanes)) {
            *d = lane.wrapping_sub(c.wrapping_mul(self.pow));
        }
    }
}

#[derive(Default)]
struct FoldMemo {
    /// None until the first fold of a non-empty log.
    prefix: Option<Box<Prefix>>,
    /// Serialised items appended since the last fold (reused between
    /// folds).
    scratch: Vec<u8>,
}

impl<T> AppendLog<T> {
    /// An empty log.
    pub fn new() -> Self {
        AppendLog {
            items: Vec::new(),
            memo: Cell::new(FoldMemo::default()),
        }
    }

    /// Appends one item.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Appends every item of `iter`, in order.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = T>) {
        self.items.extend(iter);
    }

    /// Removes and returns every item, resetting the memo.
    pub fn take(&mut self) -> Vec<T> {
        self.memo.take();
        std::mem::take(&mut self.items)
    }

    /// The items, oldest first.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The items as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T> Default for AppendLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Clone for AppendLog<T> {
    fn clone(&self) -> Self {
        let memo = self.memo.take();
        let copy = FoldMemo {
            prefix: memo.prefix.clone(),
            scratch: Vec::new(),
        };
        self.memo.set(memo);
        AppendLog {
            items: self.items.clone(),
            memo: Cell::new(copy),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AppendLog<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.items).finish()
    }
}

/// Folds the item count, then every item's bytes in order: the same
/// bytes as `write_usize(len)` followed by each item's
/// [`LogItem::write_log_bytes`].
impl<T: LogItem> StateHash for AppendLog<T> {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_usize(self.items.len());
        let mut memo = self.memo.take();
        let from = memo.prefix.as_ref().map_or(0, |p| p.items);
        if from < self.items.len() {
            memo.scratch.clear();
            for item in &self.items[from..] {
                item.write_log_bytes(&mut memo.scratch);
            }
            let prefix = memo.prefix.get_or_insert_with(Prefix::empty);
            prefix.extend(&memo.scratch);
            prefix.items = self.items.len();
        }
        if let Some(p) = &memo.prefix {
            h.state = p.apply(h.state);
        }
        self.memo.set(memo);
    }
}

impl StateHash for crate::time::SimTime {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u64(self.as_nanos());
    }
}

impl StateHash for crate::time::SimDuration {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u64(self.as_nanos());
    }
}

impl StateHash for crate::task::Pid {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u32(self.0);
    }
}

impl StateHash for crate::task::Euid {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u32(self.0);
    }
}

impl StateHash for crate::task::ContainerId {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u32(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A log item of arbitrary bytes.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl LogItem for Blob {
        fn write_log_bytes(&self, out: &mut Vec<u8>) {
            out.extend(&self.0);
        }
    }

    /// Item `i` of the stream seeded by `seed`: 0–11 pseudo-random
    /// bytes.
    fn blob(seed: u64, i: usize) -> Blob {
        let h = substream_seed(seed, 0xB10B, i);
        let len = usize::from(h.to_le_bytes()[7] % 12);
        Blob(
            h.to_le_bytes()
                .iter()
                .chain(&(!h).to_le_bytes())
                .copied()
                .take(len)
                .collect(),
        )
    }

    /// The plain re-hash the log's fold must equal.
    fn plain_fold(start: &StateHasher, items: &[Blob]) -> u64 {
        let mut h = start.clone();
        h.write_usize(items.len());
        for item in items {
            h.write_bytes(&item.0);
        }
        h.finish()
    }

    fn folded(start: &StateHasher, log: &AppendLog<Blob>) -> u64 {
        let mut h = start.clone();
        log.state_hash(&mut h);
        h.finish()
    }

    fn bought_items(log: &AppendLog<Blob>) -> usize {
        let memo = log.memo.take();
        let items = memo.prefix.as_ref().map_or(0, |p| p.items);
        log.memo.set(memo);
        items
    }

    // Random pushes, repeated folds, takes and clones: every fold,
    // from a random start state, equals a plain FNV re-hash of the
    // same items.
    proptest! {
        #[test]
        fn append_log_fold_equals_plain_rehash(
            seed in any::<u64>(),
            prefix in prop::collection::vec(any::<u8>(), 0..24),
            ops in prop::collection::vec((0u8..12, 0usize..48, any::<u64>()), 40..160),
        ) {
            let mut log = AppendLog::new();
            let mut model: Vec<Blob> = Vec::new();
            let mut next = 0usize;
            for (kind, n, salt) in ops {
                let mut start = StateHasher::new();
                start.write_bytes(&prefix);
                start.write_u64(salt);
                match kind {
                    // Append `n` items.
                    0..=5 => {
                        let items: Vec<Blob> = (next..next + n).map(|i| blob(seed, i)).collect();
                        next += n;
                        model.extend(items.iter().cloned());
                        if n % 2 == 0 {
                            log.extend(items);
                        } else {
                            for item in items {
                                log.push(item);
                            }
                        }
                    }
                    // Age the sealed segments by `n` extra folds.
                    6..=8 => {
                        for _ in 0..n {
                            prop_assert_eq!(folded(&start, &log), plain_fold(&start, &model));
                        }
                    }
                    // Drain, rarely.
                    9 if n < 8 => {
                        prop_assert_eq!(log.take(), std::mem::take(&mut model));
                        prop_assert_eq!(bought_items(&log), 0);
                    }
                    // Continue on a clone; the original must agree.
                    _ => {
                        let copy = log.clone();
                        prop_assert_eq!(folded(&start, &log), folded(&start, &copy));
                        log = copy;
                    }
                }
                prop_assert_eq!(log.len(), model.len());
                prop_assert_eq!(log.as_slice(), &model[..]);
                prop_assert_eq!(folded(&start, &log), plain_fold(&start, &model));
            }
        }
    }

    // The dispatching `extend` (128 lanes on an AVX-512 host) builds
    // the same table and power as the eight-lane fallback, from any
    // table over any bytes, so both widths stay tested on one host.
    proptest! {
        #[test]
        fn every_lane_width_builds_the_same_table(
            seed in any::<u64>(),
            pow in any::<u64>(),
            bytes in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            let mut narrow = Prefix::empty();
            narrow.pow = pow;
            for (i, d) in narrow.table.iter_mut().enumerate() {
                *d = substream_seed(seed, 0x7AB1E, i);
            }
            let mut dispatched = narrow.clone();
            narrow.extend_lanes::<8>(&bytes);
            dispatched.extend(&bytes);
            prop_assert_eq!(dispatched.pow, narrow.pow);
            prop_assert_eq!(&dispatched.table[..], &narrow.table[..]);
        }
    }

    #[test]
    fn every_fold_covers_the_whole_log_and_folds_identically() {
        let items: Vec<Blob> = (0..200).map(|i| blob(7, i)).collect();
        let mut log = AppendLog::new();
        let start = StateHasher::new();
        assert_eq!(folded(&start, &log), plain_fold(&start, &[]));
        assert_eq!(bought_items(&log), 0, "an empty log builds no table");
        // Uneven appends, some of them empty, each followed by a fold
        // or two: after every fold the table covers the whole log.
        let mut len = 0;
        for n in [1, 0, 63, 64, 2, 0, 70] {
            log.extend(items[len..len + n].iter().cloned());
            len += n;
            for _ in 0..2 {
                assert_eq!(folded(&start, &log), plain_fold(&start, &items[..len]));
                assert_eq!(bought_items(&log), len, "the memo covers every item");
            }
        }
        // The table folds from any start state, not only the one it
        // was built under.
        for salt in 0..300u64 {
            let mut h = StateHasher::new();
            h.write_u64(salt);
            assert_eq!(folded(&h, &log), plain_fold(&h, &items[..len]));
        }
        let copy = log.clone();
        assert_eq!(bought_items(&copy), len, "clone copies the memo");
        assert_eq!(folded(&start, &copy), plain_fold(&start, &items[..len]));
        log.take();
        assert_eq!(bought_items(&log), 0, "take resets the memo");
        assert_eq!(folded(&start, &log), plain_fold(&start, &[]));
        log.extend(items[..5].iter().cloned());
        assert_eq!(folded(&start, &log), plain_fold(&start, &items[..5]));
        assert_eq!(bought_items(&log), 5, "a drained log starts a new table");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        let mut h = StateHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(StateHasher::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let mut a = StateHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StateHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn substream_seeds_are_pure_and_distinct() {
        // Pure: same coordinates, same seed.
        assert_eq!(substream_seed(7, 1, 2), substream_seed(7, 1, 2));
        // Every coordinate perturbs the stream.
        let base = substream_seed(7, 1, 2);
        assert_ne!(base, substream_seed(8, 1, 2));
        assert_ne!(base, substream_seed(7, 2, 2));
        assert_ne!(base, substream_seed(7, 1, 3));
        // (stream, index) does not collide with (index, stream).
        assert_ne!(substream_seed(7, 1, 2), substream_seed(7, 2, 1));
    }

    #[test]
    fn f64_sign_of_zero_is_visible() {
        let mut a = StateHasher::new();
        a.write_f64(0.0);
        let mut b = StateHasher::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}

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
//! proportional to what was appended recently rather than to the
//! whole log, with the exact bytes a plain re-hash would fold.

use std::cell::Cell;
use std::collections::VecDeque;
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

/// Items per sealed segment of an [`AppendLog`].
pub const SEGMENT_ITEMS: usize = 64;

/// The fold of a sealed segment at which its start-state table is
/// built; earlier folds re-hash it the ordinary way ("rent, then
/// buy"). Building a table costs about this many ordinary re-hashes
/// of the segment (`cargo bench --bench fleet_throughput` reports
/// both costs), so no log pays more than about twice the cheaper of
/// the two strategies.
pub const RENT_FOLDS: u32 = 32;

/// An append-only log whose [`StateHash`] is incremental and exact.
///
/// Items are sealed into segments of [`SEGMENT_ITEMS`]. On its
/// [`RENT_FOLDS`]-th fold a sealed segment joins a start-state table,
/// after which hashing it costs O(1): for a fixed byte string
/// `B` of `n` bytes, FNV-1a from any start state `s` is
/// `s·Pⁿ + D[s & 0xff]` (mod 2⁶⁴), because each step's
/// `s ^ b = s + d` with `d` depending only on the low byte of `s`, and
/// that low byte evolves independently of the upper bits. Tables of
/// consecutive segments compose into one table for the whole bought
/// prefix.
///
/// The memo is a cache, not state: it is never hashed, `Clone` copies
/// it, and [`AppendLog::take`] resets it. The log exposes no `&mut`
/// access to its items, so the memo cannot go stale.
pub struct AppendLog<T> {
    items: Vec<T>,
    memo: Cell<FoldMemo>,
}

/// The bought prefix of an [`AppendLog`]: FNV over its bytes from
/// start state `s` is `s·pow + table[s & 0xff]`.
#[derive(Clone)]
struct Prefix {
    /// Items covered (a multiple of [`SEGMENT_ITEMS`]).
    items: usize,
    /// `P` to the power of the prefix's byte count.
    pow: u64,
    table: [u64; 256],
}

impl Prefix {
    fn apply(&self, state: u64) -> u64 {
        state
            .wrapping_mul(self.pow)
            .wrapping_add(self.table[usize::from(state.to_le_bytes()[0])])
    }

    /// Extends `prefix` (none = the empty prefix) by one segment's
    /// bytes, running FNV-1a from all 256 low-byte classes as
    /// independent lanes.
    fn extend(prefix: Option<Box<Prefix>>, bytes: &[u8]) -> Box<Prefix> {
        let mut p = prefix.unwrap_or_else(|| {
            Box::new(Prefix {
                items: 0,
                pow: 1,
                table: [0; 256],
            })
        });
        // Lane `c` starts where the prefix leaves start state `c`.
        let mut lanes = [0u64; 256];
        for (c, (lane, d)) in (0u64..).zip(lanes.iter_mut().zip(&p.table)) {
            *lane = c.wrapping_mul(p.pow).wrapping_add(*d);
        }
        // Eight lanes at a time, held in registers across the whole
        // segment: the multiplies are independent, so this runs at
        // multiplier throughput rather than latency.
        for block in lanes.chunks_exact_mut(8) {
            let mut regs = [0u64; 8];
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
        p.pow = p.pow.wrapping_mul(pow_n);
        for (c, (d, lane)) in (0u64..).zip(p.table.iter_mut().zip(&lanes)) {
            *d = lane.wrapping_sub(c.wrapping_mul(p.pow));
        }
        p.items += SEGMENT_ITEMS;
        p
    }
}

#[derive(Default)]
struct FoldMemo {
    prefix: Option<Box<Prefix>>,
    /// Folds seen so far by each sealed segment past the prefix,
    /// oldest first.
    rent: VecDeque<u32>,
    /// Serialised items past the prefix (reused between folds).
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
            rent: memo.rent.clone(),
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
        // Each sealed segment past the prefix pays one more fold of
        // rent; those that have paid in full join the prefix table,
        // oldest first.
        let bought = memo.prefix.as_ref().map_or(0, |p| p.items);
        let sealed = (self.items.len() - bought) / SEGMENT_ITEMS;
        memo.rent.resize(sealed, 0);
        for folds in &mut memo.rent {
            *folds += 1;
        }
        while memo.rent.front().is_some_and(|&folds| folds >= RENT_FOLDS) {
            let from = memo.prefix.as_ref().map_or(0, |p| p.items);
            memo.scratch.clear();
            for item in &self.items[from..from + SEGMENT_ITEMS] {
                item.write_log_bytes(&mut memo.scratch);
            }
            memo.prefix = Some(Prefix::extend(memo.prefix.take(), &memo.scratch));
            memo.rent.pop_front();
        }
        // The prefix folds through its table, the rest byte by byte.
        let from = match &memo.prefix {
            Some(p) => {
                h.state = p.apply(h.state);
                p.items
            }
            None => 0,
        };
        memo.scratch.clear();
        for item in &self.items[from..] {
            item.write_log_bytes(&mut memo.scratch);
        }
        h.write_bytes(&memo.scratch);
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

    #[test]
    fn rented_segments_are_bought_in_order_and_fold_identically() {
        let mut log = AppendLog::new();
        let items: Vec<Blob> = (0..3 * SEGMENT_ITEMS + 5).map(|i| blob(7, i)).collect();
        log.extend(items[..SEGMENT_ITEMS].iter().cloned());
        let start = StateHasher::new();
        for _ in 0..RENT_FOLDS - 1 {
            assert_eq!(
                folded(&start, &log),
                plain_fold(&start, &items[..SEGMENT_ITEMS])
            );
        }
        assert_eq!(bought_items(&log), 0, "still renting");
        log.extend(items[SEGMENT_ITEMS..].iter().cloned());
        folded(&start, &log);
        assert_eq!(
            bought_items(&log),
            SEGMENT_ITEMS,
            "the first segment paid its rent"
        );
        for _ in 0..RENT_FOLDS {
            assert_eq!(folded(&start, &log), plain_fold(&start, &items));
        }
        assert_eq!(
            bought_items(&log),
            3 * SEGMENT_ITEMS,
            "every sealed segment is bought"
        );
        // A bought prefix folds from any start state, not only the
        // one it was built under.
        for salt in 0..300u64 {
            let mut h = StateHasher::new();
            h.write_u64(salt);
            assert_eq!(folded(&h, &log), plain_fold(&h, &items));
        }
        let copy = log.clone();
        assert_eq!(
            bought_items(&copy),
            3 * SEGMENT_ITEMS,
            "clone copies the memo"
        );
        log.take();
        assert_eq!(bought_items(&log), 0, "take resets the memo");
        assert_eq!(folded(&start, &log), plain_fold(&start, &[]));
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

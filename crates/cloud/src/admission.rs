//! Batched order admission with backpressure.
//!
//! The PR 4 portal-down order queue, generalized into a first-class
//! control-plane stage: every submitted order lands in a per-tenant
//! FIFO **lane**, and a deterministic batch admitter releases up to
//! `admit_per_wave` orders per planning round, round-robin across
//! lanes so no tenant starves behind a chatty neighbour. When the
//! queue is full, enqueue returns a typed
//! [`AdmissionError::Backpressure`] carrying the earliest wave at
//! which a retry can be admitted, which the SDK surfaces to clients
//! (see `androne_sdk::Backpressure`).
//!
//! Determinism: lanes are a `BTreeMap` keyed by lane name, every item
//! carries a global monotonically increasing sequence number, and the
//! round-robin cursor is plain state — the admitted batch is a pure
//! function of the enqueue history. With no configured quota the
//! admitter drains everything in sequence order, which reproduces the
//! old single-`Vec` queue byte for byte.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Included, Unbounded};

use androne_sdk::Backpressure;

/// Admission-control knobs. The default (`unlimited`) keeps the
/// legacy behaviour: no capacity bound, drain-all each wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Orders admitted per wave; `None` drains the whole queue in
    /// sequence order.
    pub admit_per_wave: Option<usize>,
    /// Total queued orders allowed; `None` never backpressures.
    pub capacity: Option<usize>,
}

impl AdmissionConfig {
    /// No quota, no capacity bound — the legacy queue semantics.
    pub const fn unlimited() -> Self {
        AdmissionConfig {
            admit_per_wave: None,
            capacity: None,
        }
    }

    /// Bounded admission: at most `admit_per_wave` orders released
    /// per wave from a queue holding at most `capacity`.
    pub const fn batched(admit_per_wave: usize, capacity: usize) -> Self {
        AdmissionConfig {
            admit_per_wave: Some(admit_per_wave),
            capacity: Some(capacity),
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::unlimited()
    }
}

/// A typed admission rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity. `retry_wave` is the earliest wave at
    /// which the backlog can have drained enough for a retry to be
    /// accepted (a deterministic estimate from depth and quota);
    /// `depth` is the queue depth observed at rejection.
    Backpressure { retry_wave: u64, depth: usize },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Backpressure { retry_wave, depth } => write!(
                f,
                "admission backpressure: queue at depth {depth}, retry at wave {retry_wave}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl Backpressure for AdmissionError {
    fn retry_wave(&self) -> Option<u64> {
        match self {
            AdmissionError::Backpressure { retry_wave, .. } => Some(*retry_wave),
        }
    }
}

/// An item released by the admitter, with its lane and the global
/// sequence number it was enqueued under (FIFO evidence).
#[derive(Debug, Clone)]
pub struct Admitted<T> {
    pub lane: String,
    pub seq: u64,
    pub item: T,
}

/// The admission queue: per-lane FIFOs behind one global sequence.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    cfg: AdmissionConfig,
    /// Lane name → queued `(seq, item)`. Invariant: no empty lanes.
    lanes: BTreeMap<String, VecDeque<(u64, T)>>,
    next_seq: u64,
    /// The lane the round-robin admitter served last; the next batch
    /// starts strictly after it (wrapping).
    cursor: Option<String>,
    pending: usize,
    peak_depth: usize,
    enqueued_total: u64,
    admitted_total: u64,
    backpressure_total: u64,
}

impl<T> AdmissionQueue<T> {
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionQueue {
            cfg,
            lanes: BTreeMap::new(),
            next_seq: 0,
            cursor: None,
            pending: 0,
            peak_depth: 0,
            enqueued_total: 0,
            admitted_total: 0,
            backpressure_total: 0,
        }
    }

    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Enqueues `item` on `lane` at wave `wave`. Non-blocking: at
    /// capacity it returns [`AdmissionError::Backpressure`] with a
    /// deterministic earliest-retry wave instead of waiting. The
    /// rejected item rides back in the error so the caller can hold
    /// it for the retry without re-validating or re-building it.
    pub fn enqueue(&mut self, lane: &str, item: T, wave: u64) -> Result<u64, (AdmissionError, T)> {
        if self.room() == 0 {
            return Err((self.bounce(wave, 1), item));
        }
        Ok(self.enqueue_unbounded(lane.to_string(), item))
    }

    /// How many more submissions fit before the queue backpressures
    /// (`usize::MAX` without a capacity bound). A submission fits
    /// while this is nonzero; see [`Self::bounce`] for the rest.
    pub(crate) fn room(&self) -> usize {
        self.cfg
            .capacity
            .map_or(usize::MAX, |cap| cap.saturating_sub(self.pending))
    }

    /// Counts `n` submissions at `wave` bounced by a full queue and
    /// returns the backpressure each of them meets. A bounce leaves
    /// the depth unchanged, so every bounce after the first in a run
    /// of submissions meets the same error: `n` bounces at once are
    /// `n` single ones. Call it only when [`Self::room`] is zero.
    pub(crate) fn bounce(&mut self, wave: u64, n: u64) -> AdmissionError {
        debug_assert_eq!(self.room(), 0, "bounced with room in the queue");
        self.backpressure_total += n;
        // Waves needed to drain down to below capacity at the
        // configured quota; without a quota one heal-wave drains
        // everything.
        let per_wave = self.cfg.admit_per_wave.unwrap_or(self.pending).max(1);
        let waves_ahead = (self.pending / per_wave) as u64;
        AdmissionError::Backpressure {
            retry_wave: wave + 1 + waves_ahead,
            depth: self.pending,
        }
    }

    /// Appends without the capacity check — used after
    /// [`Self::room`] found room, and when migrating an existing
    /// backlog to a new config, where dropping queued orders would
    /// lose customer state. `lane` becomes the key of a new lane.
    pub(crate) fn enqueue_unbounded(&mut self, lane: String, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes.entry(lane).or_default().push_back((seq, item));
        self.pending += 1;
        self.enqueued_total += 1;
        if self.pending > self.peak_depth {
            self.peak_depth = self.pending;
        }
        seq
    }

    /// Releases this wave's batch. With no quota configured, drains
    /// every queued item in global sequence order (the legacy queue
    /// order). With a quota, serves lanes round-robin starting just
    /// past the cursor, one item per lane per rotation, until the
    /// quota or the queue is exhausted.
    pub fn admit(&mut self) -> Vec<Admitted<T>> {
        match self.cfg.admit_per_wave {
            None => self.drain_all(),
            Some(quota) => self.admit_round_robin(quota),
        }
    }

    fn drain_all(&mut self) -> Vec<Admitted<T>> {
        let mut out: Vec<Admitted<T>> = Vec::with_capacity(self.pending);
        for (lane, mut q) in std::mem::take(&mut self.lanes) {
            while let Some((seq, item)) = q.pop_front() {
                out.push(Admitted {
                    lane: lane.clone(),
                    seq,
                    item,
                });
            }
        }
        out.sort_by_key(|a| a.seq);
        self.admitted_total += out.len() as u64;
        self.pending = 0;
        out
    }

    /// Serving lanes in key order from just past the cursor, wrapping,
    /// one item per lane per rotation, means every rotation walks the
    /// same ranges: the lanes after the cursor, then the rest. Each
    /// range is walked in order; the lanes it drained then leave the
    /// map, their keys moving into the entries that emptied them.
    fn admit_round_robin(&mut self, quota: usize) -> Vec<Admitted<T>> {
        let want = quota.min(self.pending);
        let mut out: Vec<Admitted<T>> = Vec::with_capacity(want);
        let pivot = self.cursor.take();
        let (ranges, n) = match &pivot {
            Some(c) => ([(Excluded(c), Unbounded), (Unbounded, Included(c))], 2),
            None => ([(Unbounded, Unbounded); 2], 1),
        };
        let mut drained: Vec<usize> = Vec::new();
        while out.len() < want {
            let served = out.len();
            for &range in &ranges[..n] {
                drained.clear();
                for (lane, q) in self.lanes.range_mut::<String, _>(range) {
                    if out.len() == want {
                        break;
                    }
                    let Some((seq, item)) = q.pop_front() else {
                        continue;
                    };
                    let lane = if q.is_empty() {
                        drained.push(out.len());
                        String::new()
                    } else {
                        lane.clone()
                    };
                    out.push(Admitted { lane, seq, item });
                }
                // Only lanes drained just now are empty, and they come
                // out in the order they were served; the zip stops the
                // walk at the last of them.
                let keys = self.lanes.extract_if(range, |_, q| q.is_empty());
                for (&i, (lane, _)) in drained.iter().zip(keys) {
                    out[i].lane = lane;
                }
            }
            if out.len() == served {
                break;
            }
        }
        self.pending -= out.len();
        self.admitted_total += out.len() as u64;
        self.cursor = match out.last() {
            Some(a) => Some(a.lane.clone()),
            None => pivot,
        };
        out
    }

    /// Queued items across all lanes.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Queued items on one lane.
    pub fn lane_pending(&self, lane: &str) -> usize {
        self.lanes.get(lane).map_or(0, VecDeque::len)
    }

    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// High-water mark of the queue depth over this queue's life.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    pub fn enqueued_total(&self) -> u64 {
        self.enqueued_total
    }

    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    pub fn backpressure_total(&self) -> u64 {
        self.backpressure_total
    }

    /// All queued items in global sequence order (read-only view).
    pub fn iter_pending(&self) -> Vec<(&str, u64, &T)> {
        let mut out: Vec<(&str, u64, &T)> = self
            .lanes
            .iter()
            .flat_map(|(lane, q)| q.iter().map(move |(seq, item)| (lane.as_str(), *seq, item)))
            .collect();
        out.sort_by_key(|(_, seq, _)| *seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_names(batch: &[Admitted<u32>]) -> Vec<(String, u32)> {
        batch.iter().map(|a| (a.lane.clone(), a.item)).collect()
    }

    #[test]
    fn unlimited_drains_in_global_sequence_order() {
        let mut q = AdmissionQueue::new(AdmissionConfig::unlimited());
        q.enqueue("b", 1u32, 0).unwrap();
        q.enqueue("a", 2u32, 0).unwrap();
        q.enqueue("b", 3u32, 0).unwrap();
        let batch = q.admit();
        assert_eq!(
            drain_names(&batch),
            vec![("b".into(), 1), ("a".into(), 2), ("b".into(), 3)],
            "legacy queue order: enqueue order, not lane order"
        );
        assert!(q.is_empty());
        assert_eq!(q.admitted_total(), 3);
    }

    #[test]
    fn round_robin_serves_each_lane_before_repeats() {
        let mut q = AdmissionQueue::new(AdmissionConfig::batched(4, 100));
        // Lane a floods; lanes b and c each queue one.
        for i in 0..5u32 {
            q.enqueue("a", i, 0).unwrap();
        }
        q.enqueue("b", 100, 0).unwrap();
        q.enqueue("c", 200, 0).unwrap();
        let batch = q.admit();
        assert_eq!(
            drain_names(&batch),
            vec![
                ("a".into(), 0),
                ("b".into(), 100),
                ("c".into(), 200),
                ("a".into(), 1),
            ],
            "one per lane per rotation: the flooder cannot starve b/c"
        );
        // The cursor persists: the next wave resumes after lane a,
        // wrapping back to it (the only lane left) for its 3 items.
        let batch2 = q.admit();
        assert_eq!(
            drain_names(&batch2),
            vec![("a".into(), 2), ("a".into(), 3), ("a".into(), 4)]
        );
        assert_eq!(q.pending(), 0);
    }

    /// The per-order round-robin the one-pass admitter replaced: look
    /// up the next lane after the cursor, pop it, drop it once empty.
    fn reference_admit(
        lanes: &mut BTreeMap<String, VecDeque<(u64, u32)>>,
        cursor: &mut Option<String>,
        quota: usize,
    ) -> Vec<(String, u64, u32)> {
        let mut out = Vec::new();
        while out.len() < quota {
            let after = cursor.as_ref().and_then(|c| {
                let mut later = lanes.range::<String, _>((Excluded(c.clone()), Unbounded));
                later.next().map(|(k, _)| k.clone())
            });
            let Some(key) = after.or_else(|| lanes.keys().next().cloned()) else {
                break;
            };
            let q = lanes.get_mut(&key).unwrap();
            let (seq, item) = q.pop_front().unwrap();
            if q.is_empty() {
                lanes.remove(&key);
            }
            out.push((key.clone(), seq, item));
            *cursor = Some(key);
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn round_robin_matches_the_per_order_admitter(
            tape in proptest::collection::vec((0u8..2, 0usize..5, 0usize..6), 0..60)
        ) {
            let mut q = AdmissionQueue::new(AdmissionConfig::batched(1, usize::MAX));
            let (mut lanes, mut cursor, mut seq) = (BTreeMap::new(), None, 0u64);
            for (i, &(kind, lane, quota)) in tape.iter().enumerate() {
                let item = i as u32;
                match kind {
                    0 => {
                        let lane = format!("lane-{lane}");
                        q.enqueue(&lane, item, 0).unwrap();
                        lanes.entry(lane).or_insert_with(VecDeque::new).push_back((seq, item));
                        seq += 1;
                    }
                    _ => {
                        q.cfg.admit_per_wave = Some(quota);
                        let got: Vec<(String, u64, u32)> =
                            q.admit().into_iter().map(|a| (a.lane, a.seq, a.item)).collect();
                        let want = reference_admit(&mut lanes, &mut cursor, quota);
                        proptest::prop_assert_eq!(got, want);
                    }
                }
                let pending: usize = lanes.values().map(VecDeque::len).sum();
                proptest::prop_assert_eq!(q.pending(), pending);
                proptest::prop_assert_eq!(q.lanes.len(), lanes.len());
            }
        }
    }

    #[test]
    fn backpressure_reports_a_retry_wave_ahead_of_the_backlog() {
        let mut q = AdmissionQueue::new(AdmissionConfig::batched(2, 4));
        for i in 0..4u32 {
            q.enqueue("t", i, 3).unwrap();
        }
        let (err, bounced) = q.enqueue("t", 99, 3).unwrap_err();
        assert_eq!(bounced, 99, "the rejected item rides back to the caller");
        match err {
            AdmissionError::Backpressure { retry_wave, depth } => {
                assert_eq!(depth, 4);
                // depth 4 / quota 2 = 2 waves of draining after this one.
                assert_eq!(retry_wave, 3 + 1 + 2);
            }
        }
        assert_eq!(q.backpressure_total(), 1);
        assert_eq!(err.retry_wave(), Some(6));
    }

    #[test]
    fn peak_depth_tracks_high_water_mark() {
        let mut q = AdmissionQueue::new(AdmissionConfig::unlimited());
        q.enqueue("a", 1u32, 0).unwrap();
        q.enqueue("b", 2u32, 0).unwrap();
        assert_eq!(q.peak_depth(), 2);
        let _ = q.admit();
        assert_eq!(q.peak_depth(), 2, "peak survives the drain");
        q.enqueue("a", 3u32, 1).unwrap();
        assert_eq!(q.peak_depth(), 2);
    }

    #[test]
    fn iter_pending_is_sequence_ordered_without_draining() {
        let mut q = AdmissionQueue::new(AdmissionConfig::unlimited());
        q.enqueue("z", 10u32, 0).unwrap();
        q.enqueue("a", 20u32, 0).unwrap();
        let view: Vec<u32> = q.iter_pending().iter().map(|(_, _, v)| **v).collect();
        assert_eq!(view, vec![10, 20]);
        assert_eq!(q.pending(), 2, "read-only");
    }
}

//! The metrics registry: counters, gauges, and fixed-bucket
//! histograms that fold into one FNV digest.
//!
//! Everything here is keyed by `&'static str` and stored in
//! `BTreeMap`s, so iteration order — and therefore the digest — is a
//! pure function of what the simulation did. No wall-clock, no host
//! entropy: values come from sim time and sim state only, which is
//! what lets the dual-run sanitizer demand bit-identical metrics
//! from two runs of the same seed.

use std::collections::{BTreeMap, VecDeque};

use androne_simkern::StateHasher;

/// How many raw samples a histogram retains as its recent tail.
/// Sized for the black-box recorder: enough to reconstruct the last
/// seconds of Binder latency before an abnormal flight end, small
/// enough to never matter for memory.
pub const HISTOGRAM_TAIL_CAP: usize = 32;

/// A fixed-bucket histogram over `u64` samples (sim-nanoseconds,
/// byte counts, ...). Bucket bounds are `&'static` and part of the
/// metric's identity: the first `observe` pins them, and they never
/// reallocate or rebalance, so two runs bucket identically.
///
/// Alongside the buckets, the last [`HISTOGRAM_TAIL_CAP`] raw samples
/// are kept in a bounded ring — the black-box recorder folds this
/// tail into its snapshot so an abnormal end carries the exact final
/// latencies, not just their bucket shape. The tail is diagnostic
/// payload only and deliberately excluded from [`MetricsRegistry::digest`].
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: &'static [u64],
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
    recent: VecDeque<u64>,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            recent: VecDeque::new(),
        }
    }

    fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.recent.len() == HISTOGRAM_TAIL_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(v);
    }

    /// Absorbs `other`'s samples into this histogram: bucket counts,
    /// totals, and extrema fold additively; `other`'s recent tail is
    /// appended after this one's (bounded by [`HISTOGRAM_TAIL_CAP`]).
    /// Both histograms must share bucket bounds — mismatched bounds
    /// mean two different metrics were given one name, and the merge
    /// keeps `self` untouched rather than mixing incomparable shapes.
    fn merge_from(&mut self, other: &Histogram) {
        if self.bounds != other.bounds {
            return;
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &v in &other.recent {
            if self.recent.len() == HISTOGRAM_TAIL_CAP {
                self.recent.pop_front();
            }
            self.recent.push_back(v);
        }
    }

    /// The last samples observed, oldest first (at most
    /// [`HISTOGRAM_TAIL_CAP`]).
    pub fn recent(&self) -> impl Iterator<Item = u64> + '_ {
        self.recent.iter().copied()
    }

    /// Upper bounds of the finite buckets.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 before any sample.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 before any sample.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// sample (0.0 ..= 1.0). Samples in the overflow bucket report
    /// the observed max. Returns 0 before any sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

/// The registry: three namespaces (counters, gauges, histograms),
/// each an ordered map from static name to value.
///
/// Registries are mergeable ([`MetricsRegistry::merge_from`]) so
/// per-flight island registries can be folded into one fleet-level
/// registry at the wave barrier, and `Clone` so a worker thread can
/// hand its registry across the barrier by value.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Per-label counter families (`name` × owned label, e.g. a
    /// tenant). Kept in their own namespace so label-free runs hash
    /// and merge exactly as before the namespace existed.
    labeled_counters: BTreeMap<(&'static str, String), u64>,
    /// Per-label histogram families (`name` × owned label).
    labeled_histograms: BTreeMap<(&'static str, String), Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name` (creating it at 0).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Raises the gauge `name` to `v` if `v` exceeds its current
    /// value (creating it at `v`) — a high-water mark, e.g. peak
    /// admission-queue depth.
    pub fn gauge_max(&mut self, name: &'static str, v: f64) {
        let e = self.gauges.entry(name).or_insert(v);
        if v > *e {
            *e = v;
        }
    }

    /// Records `v` into the histogram `name`. The first call pins
    /// `bounds`; later calls reuse the pinned bounds (passing
    /// different bounds for the same name is a programming error and
    /// the first bounds win).
    pub fn observe(&mut self, name: &'static str, bounds: &'static [u64], v: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    /// Adds `n` to the `label`ed member of counter family `name`
    /// (creating it at 0). Labels are owned strings (tenant names,
    /// container ids) — dynamic data a `&'static str` key cannot
    /// carry.
    pub fn count_labeled(&mut self, name: &'static str, label: &str, n: u64) {
        match self.labeled_counters.get_mut(&(name, label.to_string())) {
            Some(v) => *v += n,
            None => {
                self.labeled_counters.insert((name, label.to_string()), n);
            }
        }
    }

    /// Records `v` into the `label`ed member of histogram family
    /// `name` (first call pins `bounds`, as for [`Self::observe`]).
    pub fn observe_labeled(
        &mut self,
        name: &'static str,
        label: &str,
        bounds: &'static [u64],
        v: u64,
    ) {
        match self.labeled_histograms.get_mut(&(name, label.to_string())) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(v);
                self.labeled_histograms.insert((name, label.to_string()), h);
            }
        }
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of the `label`ed member of counter family
    /// `name` (0 if never incremented).
    pub fn labeled_counter(&self, name: &'static str, label: &str) -> u64 {
        self.labeled_counters
            .get(&(name, label.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// All labeled counters, in (name, label) order.
    pub fn labeled_counters(&self) -> impl Iterator<Item = (&'static str, &str, u64)> + '_ {
        self.labeled_counters
            .iter()
            .map(|((name, label), &v)| (*name, label.as_str(), v))
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Absorbs `other` into this registry, deterministically:
    /// counters add, gauges take `other`'s value (last writer in
    /// merge order wins — callers merge in flight-index order, which
    /// reproduces the sequential executor's overwrite order), and
    /// histograms fold bucket-wise. Merging island registries in a
    /// fixed order therefore yields the same registry at any worker
    /// thread count.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (&name, &v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (&name, &v) in &other.gauges {
            self.gauges.insert(name, v);
        }
        for (&name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge_from(hist),
                None => {
                    self.histograms.insert(name, hist.clone());
                }
            }
        }
        for (key, &v) in &other.labeled_counters {
            match self.labeled_counters.get_mut(key) {
                Some(mine) => *mine += v,
                None => {
                    self.labeled_counters.insert(key.clone(), v);
                }
            }
        }
        for (key, hist) in &other.labeled_histograms {
            match self.labeled_histograms.get_mut(key) {
                Some(mine) => mine.merge_from(hist),
                None => {
                    self.labeled_histograms.insert(key.clone(), hist.clone());
                }
            }
        }
    }

    /// Folds every metric — names, values, histogram buckets — into
    /// one FNV-1a digest. Two runs of the same seed must agree on
    /// this bit-for-bit; any drift means a metric was fed from
    /// something the seed does not control.
    pub fn digest(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_usize(self.counters.len());
        for (name, v) in &self.counters {
            h.write_str(name);
            h.write_u64(*v);
        }
        h.write_usize(self.gauges.len());
        for (name, v) in &self.gauges {
            h.write_str(name);
            h.write_f64(*v);
        }
        h.write_usize(self.histograms.len());
        for (name, hist) in &self.histograms {
            h.write_str(name);
            h.write_usize(hist.bounds.len());
            for b in hist.bounds {
                h.write_u64(*b);
            }
            for c in &hist.counts {
                h.write_u64(*c);
            }
            h.write_u64(hist.total);
            h.write_u64(hist.sum);
        }
        // Labeled namespaces hash only when populated, so a run that
        // never labels a metric digests exactly as it did before the
        // namespaces existed (pinned fleet digests depend on this).
        if !self.labeled_counters.is_empty() {
            h.write_usize(self.labeled_counters.len());
            for ((name, label), v) in &self.labeled_counters {
                h.write_str(name);
                h.write_str(label);
                h.write_u64(*v);
            }
        }
        if !self.labeled_histograms.is_empty() {
            h.write_usize(self.labeled_histograms.len());
            for ((name, label), hist) in &self.labeled_histograms {
                h.write_str(name);
                h.write_str(label);
                h.write_usize(hist.bounds.len());
                for b in hist.bounds {
                    h.write_u64(*b);
                }
                for c in &hist.counts {
                    h.write_u64(*c);
                }
                h.write_u64(hist.total);
                h.write_u64(hist.sum);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[u64] = &[10, 100, 1_000];

    fn labeled_histogram<'a>(
        m: &'a MetricsRegistry,
        name: &'static str,
        label: &str,
    ) -> Option<&'a Histogram> {
        m.labeled_histograms.get(&(name, label.to_string()))
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.count("x", 2);
        m.count("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut m = MetricsRegistry::new();
        for v in [5, 10, 11, 100, 5_000] {
            m.observe("h", BOUNDS, v);
        }
        let h = m.histogram("h").expect("histogram exists");
        assert_eq!(h.bucket_counts(), &[2, 2, 0, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5_126);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 5_000);
    }

    #[test]
    fn quantile_returns_bucket_upper_bound() {
        let mut m = MetricsRegistry::new();
        for v in [1, 2, 3, 50, 5_000] {
            m.observe("h", BOUNDS, v);
        }
        let h = m.histogram("h").expect("histogram exists");
        assert_eq!(h.quantile(0.5), 10); // 3rd of 5 samples is in <=10
        assert_eq!(h.quantile(0.8), 100);
        assert_eq!(h.quantile(1.0), 5_000); // overflow reports max
        assert_eq!(h.quantile(0.0), 10);
    }

    #[test]
    fn digest_is_order_insensitive_for_same_content() {
        let mut a = MetricsRegistry::new();
        a.count("b", 1);
        a.count("a", 1);
        a.gauge_set("g", 2.5);
        let mut b = MetricsRegistry::new();
        b.count("a", 1);
        b.gauge_set("g", 2.5);
        b.count("b", 1);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_distinguishes_counter_from_gauge_namespaces() {
        let mut a = MetricsRegistry::new();
        a.count("x", 1);
        let mut b = MetricsRegistry::new();
        b.gauge_set("x", 1.0);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sees_histogram_shape() {
        let mut a = MetricsRegistry::new();
        a.observe("h", BOUNDS, 5);
        let mut b = MetricsRegistry::new();
        b.observe("h", BOUNDS, 50);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn merge_reproduces_the_sequential_registry() {
        // One registry fed sequentially...
        let mut seq = MetricsRegistry::new();
        seq.count("c", 2);
        seq.gauge_set("g", 1.0);
        seq.observe("h", BOUNDS, 5);
        seq.count("c", 3);
        seq.gauge_set("g", 2.0);
        seq.observe("h", BOUNDS, 5_000);
        // ...must digest identically to two island registries merged
        // in the same order.
        let mut a = MetricsRegistry::new();
        a.count("c", 2);
        a.gauge_set("g", 1.0);
        a.observe("h", BOUNDS, 5);
        let mut b = MetricsRegistry::new();
        b.count("c", 3);
        b.gauge_set("g", 2.0);
        b.observe("h", BOUNDS, 5_000);
        let mut merged = MetricsRegistry::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.digest(), seq.digest());
        assert_eq!(merged.counter("c"), 5);
        assert_eq!(merged.gauge("g"), Some(2.0));
        let h = merged.histogram("h").expect("merged histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 5_000);
    }

    #[test]
    fn merge_with_mismatched_bounds_keeps_self() {
        const OTHER_BOUNDS: &[u64] = &[7];
        let mut a = MetricsRegistry::new();
        a.observe("h", BOUNDS, 5);
        let mut b = MetricsRegistry::new();
        b.observe("h", OTHER_BOUNDS, 5);
        let before = a.histogram("h").map(|h| h.count());
        a.merge_from(&b);
        assert_eq!(a.histogram("h").map(|h| h.count()), before);
    }

    #[test]
    fn recent_tail_is_bounded_and_merge_appends() {
        let mut m = MetricsRegistry::new();
        for v in 0..(HISTOGRAM_TAIL_CAP as u64 + 5) {
            m.observe("h", BOUNDS, v);
        }
        let h = m.histogram("h").expect("histogram");
        let tail: Vec<u64> = h.recent().collect();
        assert_eq!(tail.len(), HISTOGRAM_TAIL_CAP);
        assert_eq!(tail[0], 5, "oldest samples evicted first");
        assert_eq!(*tail.last().unwrap(), HISTOGRAM_TAIL_CAP as u64 + 4);

        let mut other = MetricsRegistry::new();
        other.observe("h", BOUNDS, 999);
        m.merge_from(&other);
        let tail: Vec<u64> = m.histogram("h").expect("histogram").recent().collect();
        assert_eq!(*tail.last().unwrap(), 999, "merge appends the other tail");
        assert_eq!(tail.len(), HISTOGRAM_TAIL_CAP);
    }

    #[test]
    fn labeled_counters_accumulate_per_label() {
        let mut m = MetricsRegistry::new();
        m.count_labeled("binder.throttled", "ctr2", 1);
        m.count_labeled("binder.throttled", "ctr2", 2);
        m.count_labeled("binder.throttled", "ctr3", 5);
        assert_eq!(m.labeled_counter("binder.throttled", "ctr2"), 3);
        assert_eq!(m.labeled_counter("binder.throttled", "ctr3"), 5);
        assert_eq!(m.labeled_counter("binder.throttled", "ctr4"), 0);
        let all: Vec<_> = m.labeled_counters().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], ("binder.throttled", "ctr2", 3));
    }

    #[test]
    fn labeled_histograms_bucket_per_label() {
        let mut m = MetricsRegistry::new();
        m.observe_labeled("binder.latency_ns", "ctr2", BOUNDS, 5);
        m.observe_labeled("binder.latency_ns", "ctr2", BOUNDS, 5_000);
        m.observe_labeled("binder.latency_ns", "ctr3", BOUNDS, 50);
        let h2 = labeled_histogram(&m, "binder.latency_ns", "ctr2").expect("ctr2");
        assert_eq!(h2.count(), 2);
        assert_eq!(h2.max(), 5_000);
        let h3 = labeled_histogram(&m, "binder.latency_ns", "ctr3").expect("ctr3");
        assert_eq!(h3.count(), 1);
        assert!(labeled_histogram(&m, "binder.latency_ns", "ctr9").is_none());
    }

    #[test]
    fn unlabeled_registry_digests_as_before_labels_existed() {
        // The digest of a label-free registry must not change because
        // the labeled namespaces exist: the pinned fleet digests were
        // taken before labels were introduced.
        let mut a = MetricsRegistry::new();
        a.count("c", 1);
        a.observe("h", BOUNDS, 5);
        let base = a.digest();
        a.count_labeled("c.by_tenant", "ctr2", 1);
        assert_ne!(
            a.digest(),
            base,
            "labels must be digest-visible when present"
        );
    }

    #[test]
    fn merge_folds_labeled_namespaces() {
        let mut a = MetricsRegistry::new();
        a.count_labeled("t", "x", 2);
        a.observe_labeled("lh", "x", BOUNDS, 5);
        let mut b = MetricsRegistry::new();
        b.count_labeled("t", "x", 3);
        b.count_labeled("t", "y", 1);
        b.observe_labeled("lh", "x", BOUNDS, 50);
        a.merge_from(&b);
        assert_eq!(a.labeled_counter("t", "x"), 5);
        assert_eq!(a.labeled_counter("t", "y"), 1);
        assert_eq!(labeled_histogram(&a, "lh", "x").map(|h| h.count()), Some(2));
    }

    #[test]
    fn recent_tail_does_not_perturb_the_digest() {
        // Same buckets, different tails (two 5s vs a 5 and a 6 both
        // land in the <=10 bucket): the digest must not see the tail,
        // which is diagnostic payload, not aggregate state.
        let mut a = MetricsRegistry::new();
        a.observe("h", BOUNDS, 5);
        a.observe("h", BOUNDS, 5);
        let mut b = MetricsRegistry::new();
        b.observe("h", BOUNDS, 4);
        b.observe("h", BOUNDS, 6);
        assert_eq!(a.digest(), b.digest());
    }
}

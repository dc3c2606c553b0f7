//! The Virtual Drone Repository (VDR).
//!
//! Cloud storage for preconfigured and interrupted virtual drones
//! (paper Section 4): a virtual drone saved here — definition plus
//! container diff plus app saved-state — can be reinstated on any
//! compatible drone hardware for a later flight.
//!
//! Reinstating goes through a lease ([`VirtualDroneRepository::checkout`] /
//! [`VirtualDroneRepository::commit`] / [`VirtualDroneRepository::abandon`])
//! rather than a destructive `take`: a cloud-side fault between
//! removing the entry and re-storing it must not lose a customer's
//! virtual drone. A checked-out entry stays on the books (leased)
//! until the caller either commits the resume or abandons it back;
//! [`VirtualDroneRepository::commit_with_at`] commits by saving the
//! new state over the leased entry itself.
//!
//! Each shard is a name index over a slot table. `store` returns a
//! [`VdrHandle`] to the name's slot, and a caller that keeps it checks
//! out and commits without searching the index
//! ([`VirtualDroneRepository::checkout_at`],
//! [`VirtualDroneRepository::commit_with_at`]); the name-keyed methods
//! look the slot up and run the same slot operation.

use std::collections::BTreeMap;

use androne_container::ContainerArchive;
use androne_simkern::StateHasher;
use androne_vdc::VirtualDroneSpec;

/// A stored virtual drone.
#[derive(Debug, Clone)]
pub struct SavedVirtualDrone {
    /// Virtual drone name.
    pub name: String,
    /// Owning user account.
    pub owner: String,
    /// The JSON definition — always the *original* spec; resume
    /// progress is tracked by the bookkeeping fields below.
    pub spec: VirtualDroneSpec,
    /// The container archive (base layer ids + private diff).
    pub archive: ContainerArchive,
    /// Serialized app saved-state bundles.
    pub app_state: String,
    /// Why it was saved (completed / interrupted / preconfigured).
    pub reason: SaveReason,
    /// Joules left of the original allotment (resume bookkeeping).
    pub remaining_energy_j: f64,
    /// Seconds left of the original allotment (resume bookkeeping).
    pub remaining_time_s: f64,
    /// Waypoints of `spec` completed in prior flights; a resumed
    /// flight continues at this index.
    pub waypoints_completed: usize,
    /// Physical flights this virtual drone has flown on so far.
    pub flights_flown: u32,
}

impl SavedVirtualDrone {
    /// Whether any mission and allotment remain to resume.
    pub fn resumable(&self) -> bool {
        self.reason == SaveReason::Interrupted
            && self.waypoints_completed < self.spec.waypoints.len()
            && self.remaining_energy_j > 0.0
            && self.remaining_time_s > 0.0
    }

    /// The spec a resumed flight deploys with: the waypoints not yet
    /// completed, budgeted with the carried-over allotment. `None`
    /// when nothing remains to resume — per-flight billing against
    /// the truncated allotment telescopes, so summed bills across
    /// flights equal original allotment minus final remainder.
    pub fn resume_spec(&self) -> Option<VirtualDroneSpec> {
        if !self.resumable() {
            return None;
        }
        let mut spec = self.spec.clone();
        spec.waypoints = self.spec.waypoints[self.waypoints_completed..].to_vec();
        spec.energy_allotted = self.remaining_energy_j;
        spec.max_duration = self.remaining_time_s;
        Some(spec)
    }
}

/// Why a virtual drone landed in the VDR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveReason {
    /// Preconfigured for later use.
    Preconfigured,
    /// Flight ended normally; stored for reuse.
    Completed,
    /// Interrupted (energy exhausted, weather, etc.); resume later.
    Interrupted,
}

/// One name's entry, lease and saves; boxed, so a lease moves a pointer.
#[derive(Debug, Default)]
struct Slot {
    shelf: Option<Box<SavedVirtualDrone>>,
    /// Checked out and awaiting commit/abandon. Still owned by the
    /// shard: a caller that dies mid-resume loses its lease, not the
    /// customer's drone.
    lease: Option<Box<SavedVirtualDrone>>,
    /// The name's journaled saves since the last compaction: at least
    /// one while the name is indexed, since only a save indexes it and
    /// compaction keeps one.
    saves: usize,
    save_bytes: u64,
    newest_bytes: u64,
}

impl Slot {
    /// Puts a save on the shelf and counts it in the name's journal.
    /// Returns whether the shelf was empty before.
    fn shelve(&mut self, entry: Box<SavedVirtualDrone>) -> bool {
        let bytes = entry.archive.stored_bytes();
        self.saves += 1;
        self.save_bytes += bytes;
        self.newest_bytes = bytes;
        self.shelf.replace(entry).is_none()
    }
}

/// Slots per [`SlotTable`] chunk.
const SLOT_CHUNK: usize = 1024;

/// A shard's slots, addressed by position. The table grows one
/// fixed-size chunk at a time, so it never reallocates (and briefly
/// doubles) the slots it holds; a slot is never removed or reused.
#[derive(Debug, Default)]
struct SlotTable {
    chunks: Vec<Vec<Slot>>,
}

impl SlotTable {
    /// Appends an empty slot and returns its position.
    fn push(&mut self) -> u32 {
        let at = self
            .chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * SLOT_CHUNK + c.len());
        debug_assert!(at < u32::MAX as usize, "slot positions exhausted");
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < SLOT_CHUNK => chunk.push(Slot::default()),
            _ => {
                let mut chunk = Vec::with_capacity(SLOT_CHUNK);
                chunk.push(Slot::default());
                self.chunks.push(chunk);
            }
        }
        at as u32
    }

    fn get(&self, at: u32) -> Option<&Slot> {
        let at = at as usize;
        self.chunks.get(at / SLOT_CHUNK)?.get(at % SLOT_CHUNK)
    }

    fn get_mut(&mut self, at: u32) -> Option<&mut Slot> {
        let at = at as usize;
        self.chunks
            .get_mut(at / SLOT_CHUNK)?
            .get_mut(at % SLOT_CHUNK)
    }

    fn iter(&self) -> impl Iterator<Item = &Slot> {
        self.chunks.iter().flatten()
    }
}

/// One shard: a name index over a slot table, and its counters. The
/// save journal is a per-name count, exact because compaction's
/// verdict on a name depends only on that name's saves and liveness.
///
/// Every operation on a stored name runs on its slot position: the
/// name-keyed repository methods look the position up in `index`,
/// the handle-keyed ones decode it from the handle.
#[derive(Debug, Default)]
struct VdrShard {
    index: BTreeMap<String, u32>,
    slots: SlotTable,
    entries: usize,
    leased: usize,
    journal: usize,
    compacted_saves: u64,
    reclaimed_bytes: u64,
}

impl VdrShard {
    /// The slots of indexed names, in name order.
    fn named(&self) -> impl Iterator<Item = (&String, &Slot)> {
        self.index
            .iter()
            .filter_map(|(name, &at)| Some((name, self.slots.get(at)?)))
    }

    fn slot(&self, name: &str) -> Option<&Slot> {
        self.slots.get(*self.index.get(name)?)
    }

    /// Shelves `saved` in its name's slot (a fresh slot for a name
    /// not indexed) and returns the slot's position.
    fn store(&mut self, saved: SavedVirtualDrone) -> u32 {
        let at = match self.index.get(saved.name.as_str()) {
            Some(&at) => at,
            None => {
                let at = self.slots.push();
                self.index.insert(saved.name.clone(), at);
                at
            }
        };
        if let Some(slot) = self.slots.get_mut(at) {
            let fresh = slot.shelve(Box::new(saved));
            self.entries += usize::from(fresh);
            self.journal += 1;
        }
        at
    }

    fn checkout(&mut self, at: u32) -> Option<&SavedVirtualDrone> {
        let slot = self.slots.get_mut(at).filter(|s| s.lease.is_none())?;
        let entry = slot.shelf.take()?;
        self.entries -= 1;
        self.leased += 1;
        Some(slot.lease.insert(entry))
    }

    fn commit(&mut self, at: u32) -> bool {
        let lease = self.slots.get_mut(at).and_then(|s| s.lease.take());
        self.leased -= usize::from(lease.is_some());
        lease.is_some()
    }

    fn commit_with(&mut self, at: u32, update: impl FnOnce(&mut SavedVirtualDrone)) -> bool {
        let Some(slot) = self.slots.get_mut(at) else {
            return false;
        };
        let Some(mut entry) = slot.lease.take() else {
            return false;
        };
        update(&mut entry);
        debug_assert_eq!(
            self.index.get(entry.name.as_str()),
            Some(&at),
            "commit_with renamed the entry"
        );
        let fresh = slot.shelve(entry);
        self.entries += usize::from(fresh);
        self.leased -= 1;
        self.journal += 1;
        true
    }

    fn abandon(&mut self, at: u32) -> bool {
        let Some(slot) = self.slots.get_mut(at).filter(|s| s.lease.is_some()) else {
            return false;
        };
        self.leased -= 1;
        self.entries += usize::from(slot.shelf.is_none());
        slot.shelf = slot.lease.take();
        true
    }

    /// Drops every superseded save from the journal, and the index
    /// entry of every name with nothing shelved or leased. Returns the
    /// saves and bytes dropped.
    fn compact(&mut self) -> (usize, u64) {
        let (mut dropped_saves, mut dropped_bytes) = (0usize, 0u64);
        let slots = &mut self.slots;
        self.index.retain(|_, at| {
            let Some(slot) = slots.get_mut(*at) else {
                return false;
            };
            let live = slot.shelf.is_some() || slot.lease.is_some();
            let (kept_saves, kept_bytes) = if live { (1, slot.newest_bytes) } else { (0, 0) };
            dropped_saves += slot.saves - kept_saves;
            dropped_bytes += slot.save_bytes - kept_bytes;
            (slot.saves, slot.save_bytes) = (kept_saves, kept_bytes);
            live
        });
        self.journal -= dropped_saves;
        self.compacted_saves += dropped_saves as u64;
        self.reclaimed_bytes += dropped_bytes;
        (dropped_saves, dropped_bytes)
    }

    /// Digest of this shard's durable state (entries, then leases,
    /// each in name order). Spec progress, allotment remainders, and
    /// archive size are all covered, so two repositories agree iff
    /// every stored drone agrees.
    fn digest(&self) -> u64 {
        let mut h = StateHasher::new();
        for e in self.named().filter_map(|(_, s)| s.shelf.as_deref()) {
            fold_entry(&mut h, e, false);
        }
        for e in self.named().filter_map(|(_, s)| s.lease.as_deref()) {
            fold_entry(&mut h, e, true);
        }
        h.finish()
    }

    fn stored_bytes(&self) -> u64 {
        self.slots
            .iter()
            .flat_map(|s| s.shelf.iter().chain(&s.lease))
            .map(|e| e.archive.stored_bytes())
            .sum()
    }
}

fn fold_entry(h: &mut StateHasher, e: &SavedVirtualDrone, leased: bool) {
    if leased {
        h.write_str("leased:");
    }
    h.write_str(&e.name);
    h.write_str(&e.owner);
    h.write_u64(match e.reason {
        SaveReason::Preconfigured => 0,
        SaveReason::Completed => 1,
        SaveReason::Interrupted => 2,
    });
    h.write_f64(e.remaining_energy_j);
    h.write_f64(e.remaining_time_s);
    h.write_u64(e.waypoints_completed as u64);
    h.write_u64(u64::from(e.flights_flown));
    h.write_u64(e.archive.stored_bytes());
    h.write_str(&e.app_state);
}

/// A point-in-time view of one shard, for metrics and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    pub shard: usize,
    pub entries: usize,
    pub leased: usize,
    pub stored_bytes: u64,
    pub journal_len: usize,
    pub digest: u64,
}

/// What one [`VirtualDroneRepository::compact`] pass reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Superseded telescoped saves dropped from the journals.
    pub compacted_saves: u64,
    /// Diff bytes those saves pinned.
    pub reclaimed_bytes: u64,
}

/// Aggregate repository statistics. Totals only — every field is
/// invariant under the shard count (a partition of the same names
/// sums to the same totals), so metrics built from them stay
/// digest-identical across `shards` settings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VdrStats {
    pub shards: usize,
    pub entries: usize,
    pub leased: usize,
    pub journal_entries: usize,
    pub compacted_saves: u64,
    pub reclaimed_bytes: u64,
}

/// A handle to one name's slot in the [`VirtualDroneRepository`] that
/// issued it, returned by [`VirtualDroneRepository::store`]. It names
/// the same slot for as long as the name stays indexed. A compaction
/// that drops the name (nothing shelved or leased) leaves the slot
/// empty and never reuses it, so the handle resolves to nothing from
/// then on, even after the name is stored again under a new handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VdrHandle(u32);

/// The repository, sharded by FNV hash of the virtual-drone name.
///
/// Every public operation is keyed by name (or by the [`VdrHandle`]
/// its store returned) and routed to exactly one shard, so shards
/// never coordinate; listings merge across shards in name order,
/// which makes every observable result — and [`Self::digest`] —
/// independent of the shard count.
#[derive(Debug)]
pub struct VirtualDroneRepository {
    shards: Vec<VdrShard>,
}

impl Default for VirtualDroneRepository {
    fn default() -> Self {
        VirtualDroneRepository::new()
    }
}

impl VirtualDroneRepository {
    /// Creates an empty single-shard repository.
    pub fn new() -> Self {
        VirtualDroneRepository::with_shards(1)
    }

    /// Creates an empty repository with `shards` shards (min 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        VirtualDroneRepository {
            shards: (0..n).map(|_| VdrShard::default()).collect(),
        }
    }

    /// Deterministic name → shard routing (FNV-1a via the sim state
    /// hasher; no process-seeded hashing anywhere near here). One
    /// shard takes every name, so it skips the hash (`h % 1 == 0`).
    fn shard_index(&self, name: &str) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut h = StateHasher::new();
        h.write_str(name);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// The shard a name routes to, and its slot position there if the
    /// name is indexed.
    fn find(&mut self, name: &str) -> Option<(&mut VdrShard, u32)> {
        let i = self.shard_index(name);
        let shard = &mut self.shards[i];
        let at = *shard.index.get(name)?;
        Some((shard, at))
    }

    /// The shard and slot position a handle names: the position's
    /// shard is `handle % shards`.
    fn resolve(&mut self, handle: VdrHandle) -> Option<(&mut VdrShard, u32)> {
        let n = self.shards.len() as u32;
        let shard = self.shards.get_mut((handle.0 % n) as usize)?;
        Some((shard, handle.0 / n))
    }

    /// Stores (or replaces) a virtual drone, journaling the save.
    /// Returns the handle of the name's slot.
    pub fn store(&mut self, saved: SavedVirtualDrone) -> VdrHandle {
        let i = self.shard_index(&saved.name);
        let at = self.shards[i].store(saved);
        let n = self.shards.len();
        debug_assert!(
            (at as usize) < u32::MAX as usize / n,
            "slot handles exhausted"
        );
        VdrHandle(at * n as u32 + i as u32)
    }

    /// Retrieves a virtual drone by name.
    pub fn get(&self, name: &str) -> Option<&SavedVirtualDrone> {
        self.shards[self.shard_index(name)]
            .slot(name)?
            .shelf
            .as_deref()
    }

    /// Checks out a virtual drone for reinstatement, lending the
    /// caller the entry to deploy from. The entry moves to its slot's
    /// lease, invisible to `get`/listings until [`Self::commit`]
    /// (resume succeeded; drop the old entry), [`Self::commit_with_at`]
    /// (resume succeeded; save over the old entry) or [`Self::abandon`]
    /// (resume failed; put it back) resolves the lease. A name
    /// already leased cannot be checked out again.
    pub fn checkout(&mut self, name: &str) -> Option<&SavedVirtualDrone> {
        let (shard, at) = self.find(name)?;
        shard.checkout(at)
    }

    /// [`Self::checkout`] by the handle of the name's slot.
    pub fn checkout_at(&mut self, handle: VdrHandle) -> Option<&SavedVirtualDrone> {
        let (shard, at) = self.resolve(handle)?;
        shard.checkout(at)
    }

    /// Resolves a lease after a successful resume: the checked-out
    /// entry has been superseded (typically by a fresh `store`), so
    /// the leased original is dropped. Returns whether a lease
    /// existed.
    pub fn commit(&mut self, name: &str) -> bool {
        self.find(name).is_some_and(|(shard, at)| shard.commit(at))
    }

    /// Resolves the lease of the handle's slot by saving the resumed
    /// drone over its own leased entry: `update` rewrites the entry in
    /// place, and the result goes on the shelf as one journaled save.
    /// The end state equals `store` of the updated copy followed by
    /// [`Self::commit`], without building a second entry. `update`
    /// must keep the entry's name, which keys its slot. Returns
    /// whether a lease existed; without one nothing changes.
    pub fn commit_with_at(
        &mut self,
        handle: VdrHandle,
        update: impl FnOnce(&mut SavedVirtualDrone),
    ) -> bool {
        self.resolve(handle)
            .is_some_and(|(shard, at)| shard.commit_with(at, update))
    }

    /// Resolves a lease after a failed resume: the original entry
    /// returns to the shelf untouched, replacing anything stored under
    /// the name meanwhile. Returns whether a lease existed.
    pub fn abandon(&mut self, name: &str) -> bool {
        self.find(name).is_some_and(|(shard, at)| shard.abandon(at))
    }

    /// Names currently checked out and unresolved, in name order
    /// across shards.
    pub fn leased_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .shards
            .iter()
            .flat_map(|s| s.named().filter(|(_, s)| s.lease.is_some()))
            .map(|(n, _)| n.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    /// Lists a user's stored virtual drones, in name order across
    /// shards.
    pub fn list_for(&self, owner: &str) -> Vec<&SavedVirtualDrone> {
        self.shelved_where(|e| e.owner == owner)
    }

    /// Virtual drones awaiting resumption, in name order across
    /// shards.
    pub fn interrupted(&self) -> Vec<&SavedVirtualDrone> {
        self.shelved_where(|e| e.reason == SaveReason::Interrupted)
    }

    fn shelved_where(&self, keep: impl Fn(&SavedVirtualDrone) -> bool) -> Vec<&SavedVirtualDrone> {
        let mut out: Vec<&SavedVirtualDrone> = self
            .shards
            .iter()
            .flat_map(|s| s.slots.iter().filter_map(|s| s.shelf.as_deref()))
            .filter(|e| keep(e))
            .collect();
        out.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Total bytes stored (diffs only; base layers live once on each
    /// drone). Leased entries still count — they are not gone.
    pub fn stored_bytes(&self) -> u64 {
        self.shards.iter().map(VdrShard::stored_bytes).sum()
    }

    /// Compacts every shard's save journal: for each name, only the
    /// most recent save of a still-stored drone is retained; every
    /// superseded (telescoped) save is dropped and its diff bytes
    /// counted as reclaimed. Returns what this pass reclaimed.
    pub fn compact(&mut self) -> CompactionReport {
        let mut report = CompactionReport::default();
        for shard in &mut self.shards {
            let (saves, bytes) = shard.compact();
            report.compacted_saves += saves as u64;
            report.reclaimed_bytes += bytes;
        }
        report
    }

    /// Point-in-time per-shard snapshots (metrics and tests; the
    /// shard-local digests are *not* shard-count invariant — use
    /// [`Self::digest`] for cross-configuration comparison).
    pub fn snapshot(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSnapshot {
                shard: i,
                entries: s.entries,
                leased: s.leased,
                stored_bytes: s.stored_bytes(),
                journal_len: s.journal,
                digest: s.digest(),
            })
            .collect()
    }

    /// Aggregate totals across shards (shard-count invariant).
    pub fn stats(&self) -> VdrStats {
        let mut st = VdrStats {
            shards: self.shards.len(),
            ..VdrStats::default()
        };
        for s in &self.shards {
            st.entries += s.entries;
            st.leased += s.leased;
            st.journal_entries += s.journal;
            st.compacted_saves += s.compacted_saves;
            st.reclaimed_bytes += s.reclaimed_bytes;
        }
        st
    }

    /// Digest of the full repository contents, folded in global name
    /// order — identical for any shard count holding the same drones.
    pub fn digest(&self) -> u64 {
        let mut slots: Vec<(&String, &Slot)> =
            self.shards.iter().flat_map(VdrShard::named).collect();
        slots.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut h = StateHasher::new();
        for (_, slot) in slots {
            let shelf = slot.shelf.iter().map(|e| (e, false));
            for (e, leased) in shelf.chain(slot.lease.iter().map(|e| (e, true))) {
                fold_entry(&mut h, e, leased);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_container::{ContainerKind, Layer};

    fn saved(name: &str, reason: SaveReason) -> SavedVirtualDrone {
        let mut diff = Layer::new();
        diff.write("/data/state.json", "{\"wp\":1}");
        let spec = VirtualDroneSpec::example_survey();
        SavedVirtualDrone {
            name: name.into(),
            owner: "alice".into(),
            remaining_energy_j: spec.energy_allotted,
            remaining_time_s: spec.max_duration,
            waypoints_completed: 0,
            flights_flown: 0,
            spec,
            archive: ContainerArchive {
                name: name.into(),
                kind: ContainerKind::VirtualDrone,
                base_stack: vec![],
                diff,
            },
            app_state: String::new(),
            reason,
        }
    }

    #[test]
    fn store_checkout_commit_round_trip() {
        let mut vdr = VirtualDroneRepository::new();
        vdr.store(saved("vd1", SaveReason::Interrupted));
        assert_eq!(vdr.list_for("alice").len(), 1);
        assert_eq!(vdr.interrupted().len(), 1);
        let copy = vdr.checkout("vd1").cloned().unwrap();
        assert_eq!(copy.name, "vd1");
        // Checked out: invisible to lookups, held on the lease table.
        assert!(vdr.get("vd1").is_none());
        assert!(vdr.interrupted().is_empty());
        assert_eq!(vdr.leased_names(), vec!["vd1"]);
        // Resume succeeded: the new state is stored, the lease drops.
        let mut resumed = copy;
        resumed.waypoints_completed = 1;
        resumed.flights_flown = 1;
        vdr.store(resumed);
        assert!(vdr.commit("vd1"));
        assert!(vdr.leased_names().is_empty());
        assert_eq!(vdr.get("vd1").unwrap().waypoints_completed, 1);
    }

    #[test]
    fn abandon_restores_the_original_entry() {
        let mut vdr = VirtualDroneRepository::new();
        vdr.store(saved("vd1", SaveReason::Interrupted));
        let _copy = vdr.checkout("vd1").unwrap();
        assert!(vdr.get("vd1").is_none(), "entry is leased out");
        // The caller aborted mid-resume (cloud fault, drone error):
        // nothing is lost, the entry comes back verbatim.
        assert!(vdr.abandon("vd1"));
        let back = vdr.get("vd1").unwrap();
        assert_eq!(back.reason, SaveReason::Interrupted);
        assert_eq!(vdr.interrupted().len(), 1);
        assert!(!vdr.abandon("vd1"), "lease already resolved");
    }

    #[test]
    fn double_checkout_is_refused() {
        let mut vdr = VirtualDroneRepository::new();
        vdr.store(saved("vd1", SaveReason::Interrupted));
        assert!(vdr.checkout("vd1").is_some());
        assert!(vdr.checkout("vd1").is_none(), "lease held");
        assert!(!vdr.commit("missing"), "unknown lease");
    }

    #[test]
    fn interrupted_lists_only_resumable_reasons() {
        let mut vdr = VirtualDroneRepository::new();
        vdr.store(saved("vd1", SaveReason::Completed));
        vdr.store(saved("vd2", SaveReason::Interrupted));
        vdr.store(saved("vd3", SaveReason::Preconfigured));
        let names: Vec<&str> = vdr.interrupted().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["vd2"]);
    }

    #[test]
    fn resume_spec_truncates_mission_and_carries_allotment() {
        let mut s = saved("vd1", SaveReason::Interrupted);
        s.waypoints_completed = 1;
        s.remaining_energy_j = 12_000.0;
        s.remaining_time_s = 200.0;
        let spec = s.resume_spec().unwrap();
        assert_eq!(spec.waypoints.len(), s.spec.waypoints.len() - 1);
        assert_eq!(spec.waypoints[0], s.spec.waypoints[1]);
        assert_eq!(spec.energy_allotted, 12_000.0);
        assert_eq!(spec.max_duration, 200.0);
        let done = {
            let mut d = saved("vd1", SaveReason::Interrupted);
            d.waypoints_completed = d.spec.waypoints.len();
            d
        };
        assert!(done.resume_spec().is_none());
    }

    #[test]
    fn resume_bookkeeping_tracks_allotment_and_progress() {
        let mut s = saved("vd1", SaveReason::Interrupted);
        assert!(s.resumable());
        s.remaining_energy_j = 0.0;
        assert!(!s.resumable(), "no energy left to resume on");
        let mut s = saved("vd1", SaveReason::Interrupted);
        s.waypoints_completed = s.spec.waypoints.len();
        assert!(!s.resumable(), "mission already done");
        let s = saved("vd1", SaveReason::Completed);
        assert!(!s.resumable(), "completed drones are not resumed");
    }

    #[test]
    fn storage_counts_diff_bytes_only() {
        let mut vdr = VirtualDroneRepository::new();
        vdr.store(saved("vd1", SaveReason::Completed));
        let expected = "{\"wp\":1}".len() as u64;
        assert_eq!(vdr.stored_bytes(), expected, "just the diff bytes");
        let _ = vdr.checkout("vd1");
        assert_eq!(vdr.stored_bytes(), expected, "leased entries still count");
    }

    #[test]
    fn listing_is_per_owner() {
        let mut vdr = VirtualDroneRepository::new();
        vdr.store(saved("vd1", SaveReason::Completed));
        assert!(vdr.list_for("bob").is_empty());
        let owned: Vec<&str> = vdr
            .list_for("alice")
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(owned, vec!["vd1"]);
    }
}

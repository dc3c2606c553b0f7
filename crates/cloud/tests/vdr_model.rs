//! Model test for the Virtual Drone Repository.
//!
//! The reference below is the repository's earlier layout, kept as an
//! executable specification: per shard an entry map, a lease map and
//! an append-only `(name, diff bytes)` save journal that compaction
//! walks newest-first; its in-place save is a copy of the lease,
//! updated, stored and committed. Random operation tapes run against
//! it and against [`VirtualDroneRepository`] at 1 and 4 shards, and
//! every observable result must agree after every operation.
//!
//! The tapes also drive the repository through the [`VdrHandle`]s its
//! stores return; the in-place save goes through them only. The
//! reference has no handles: a handle stands for
//! its name until a compaction drops that name, and for nothing from
//! then on, even after the name is stored again.

use std::collections::BTreeMap;

use androne_cloud::{
    CompactionReport, SaveReason, SavedVirtualDrone, ShardSnapshot, VdrHandle, VdrStats,
    VirtualDroneRepository,
};
use androne_container::{ContainerArchive, ContainerKind, Layer};
use androne_simkern::StateHasher;
use androne_vdc::VirtualDroneSpec;
use proptest::prelude::*;

#[derive(Debug, Default)]
struct RefShard {
    entries: BTreeMap<String, SavedVirtualDrone>,
    leased: BTreeMap<String, SavedVirtualDrone>,
    journal: Vec<(String, u64)>,
    compacted_saves: u64,
    reclaimed_bytes: u64,
}

impl RefShard {
    fn fold_digest(&self, h: &mut StateHasher) {
        for (name, e) in &self.entries {
            h.write_str(name);
            fold_entry(h, e);
        }
        for (name, e) in &self.leased {
            h.write_str("leased:");
            h.write_str(name);
            fold_entry(h, e);
        }
    }
}

fn fold_entry(h: &mut StateHasher, e: &SavedVirtualDrone) {
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

/// The reference repository (same FNV name → shard routing).
struct RefVdr {
    shards: Vec<RefShard>,
}

impl RefVdr {
    fn with_shards(n: usize) -> Self {
        RefVdr {
            shards: (0..n.max(1)).map(|_| RefShard::default()).collect(),
        }
    }

    fn shard_index(&self, name: &str) -> usize {
        let mut h = StateHasher::new();
        h.write_str(name);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn shard_mut(&mut self, name: &str) -> &mut RefShard {
        let i = self.shard_index(name);
        &mut self.shards[i]
    }

    fn store(&mut self, saved: SavedVirtualDrone) {
        let shard = self.shard_mut(&saved.name);
        shard
            .journal
            .push((saved.name.clone(), saved.archive.stored_bytes()));
        shard.entries.insert(saved.name.clone(), saved);
    }

    fn get(&self, name: &str) -> Option<&SavedVirtualDrone> {
        self.shards[self.shard_index(name)].entries.get(name)
    }

    fn checkout(&mut self, name: &str) -> Option<SavedVirtualDrone> {
        let shard = self.shard_mut(name);
        if shard.leased.contains_key(name) {
            return None;
        }
        let entry = shard.entries.remove(name)?;
        let copy = entry.clone();
        shard.leased.insert(name.to_string(), entry);
        Some(copy)
    }

    fn commit(&mut self, name: &str) -> bool {
        self.shard_mut(name).leased.remove(name).is_some()
    }

    /// The in-place save, spelled as the old repository would run
    /// it: a copy of the lease, updated, stored, then committed.
    fn commit_with(&mut self, name: &str, update: impl FnOnce(&mut SavedVirtualDrone)) -> bool {
        let Some(mut copy) = self.shard_mut(name).leased.get(name).cloned() else {
            return false;
        };
        update(&mut copy);
        self.store(copy);
        self.commit(name)
    }

    fn abandon(&mut self, name: &str) -> bool {
        let shard = self.shard_mut(name);
        match shard.leased.remove(name) {
            Some(entry) => {
                shard.entries.insert(name.to_string(), entry);
                true
            }
            None => false,
        }
    }

    fn leased_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .shards
            .iter()
            .flat_map(|s| s.leased.keys().map(String::as_str))
            .collect();
        names.sort_unstable();
        names
    }

    fn shelved_where(&self, keep: impl Fn(&SavedVirtualDrone) -> bool) -> Vec<&SavedVirtualDrone> {
        let mut out: Vec<&SavedVirtualDrone> = self
            .shards
            .iter()
            .flat_map(|s| s.entries.values())
            .filter(|e| keep(e))
            .collect();
        out.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        out
    }

    fn stored_bytes(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.entries.values().chain(s.leased.values()))
            .map(|e| e.archive.stored_bytes())
            .sum()
    }

    fn compact(&mut self) -> CompactionReport {
        let mut report = CompactionReport::default();
        for shard in &mut self.shards {
            let mut dropped_saves = 0u64;
            let mut dropped_bytes = 0u64;
            let mut kept: Vec<(String, u64)> = Vec::new();
            let mut seen: BTreeMap<&str, ()> = BTreeMap::new();
            let journal = std::mem::take(&mut shard.journal);
            for (name, bytes) in journal.iter().rev() {
                let live = shard.entries.contains_key(name) || shard.leased.contains_key(name);
                if live && !seen.contains_key(name.as_str()) {
                    seen.insert(name, ());
                    kept.push((name.clone(), *bytes));
                } else {
                    dropped_saves += 1;
                    dropped_bytes += bytes;
                }
            }
            kept.reverse();
            shard.journal = kept;
            shard.compacted_saves += dropped_saves;
            shard.reclaimed_bytes += dropped_bytes;
            report.compacted_saves += dropped_saves;
            report.reclaimed_bytes += dropped_bytes;
        }
        report
    }

    fn snapshot(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut h = StateHasher::new();
                s.fold_digest(&mut h);
                ShardSnapshot {
                    shard: i,
                    entries: s.entries.len(),
                    leased: s.leased.len(),
                    stored_bytes: s
                        .entries
                        .values()
                        .chain(s.leased.values())
                        .map(|e| e.archive.stored_bytes())
                        .sum(),
                    journal_len: s.journal.len(),
                    digest: h.finish(),
                }
            })
            .collect()
    }

    fn stats(&self) -> VdrStats {
        let mut st = VdrStats {
            shards: self.shards.len(),
            ..VdrStats::default()
        };
        for s in &self.shards {
            st.entries += s.entries.len();
            st.leased += s.leased.len();
            st.journal_entries += s.journal.len();
            st.compacted_saves += s.compacted_saves;
            st.reclaimed_bytes += s.reclaimed_bytes;
        }
        st
    }

    fn digest(&self) -> u64 {
        let mut entries: Vec<(&String, &SavedVirtualDrone, bool)> = Vec::new();
        for s in &self.shards {
            entries.extend(s.entries.iter().map(|(n, e)| (n, e, false)));
            entries.extend(s.leased.iter().map(|(n, e)| (n, e, true)));
        }
        entries.sort_unstable_by(|a, b| (a.0, a.2).cmp(&(b.0, b.2)));
        let mut h = StateHasher::new();
        for (name, e, leased) in entries {
            if leased {
                h.write_str("leased:");
            }
            h.write_str(name);
            fold_entry(&mut h, e);
        }
        h.finish()
    }
}

const NAMES: usize = 6;
const OWNERS: [&str; 2] = ["alice", "bob"];
const REASONS: [SaveReason; 3] = [
    SaveReason::Preconfigured,
    SaveReason::Completed,
    SaveReason::Interrupted,
];

fn name(i: usize) -> String {
    format!("vd-{i}")
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Name, owner, diff size step, reason.
    Store(usize, usize, usize, usize),
    Checkout(usize),
    Commit(usize),
    Abandon(usize),
    Compact,
    Get(usize),
    /// Checkout through the name's current handle.
    CheckoutAt(usize),
    /// Name, diff size step, reason: save over the lease in place,
    /// through the name's current handle.
    CommitWithAt(usize, usize, usize),
    /// Checkout and in-place save through every handle a compaction
    /// retired for the name: each must resolve to nothing.
    Retired(usize),
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..20,
        0..NAMES,
        0..OWNERS.len(),
        0usize..5,
        0..REASONS.len(),
    )
        .prop_map(|(kind, n, owner, size, reason)| match kind {
            0..=3 => Op::Store(n, owner, size, reason),
            4 | 5 => Op::Checkout(n),
            6 | 7 => Op::Commit(n),
            8 | 9 => Op::Abandon(n),
            10 | 11 | 16 | 17 => Op::CommitWithAt(n, size, reason),
            12 => Op::Compact,
            13 => Op::Get(n),
            14 | 15 => Op::CheckoutAt(n),
            _ => Op::Retired(n),
        })
}

/// Every tape starts here: a store while the name is leased, then an
/// abandon that puts the older original back over it; a committed
/// resume nobody re-stored, so compaction finds a dead name; an
/// in-place save with no lease, one over a store made during the
/// lease, and a plain one; then the dead name's retired handle before
/// and after the name is stored again, and a lease cycle through the
/// new handle.
const PRELUDE: [Op; 22] = [
    Op::Store(0, 0, 1, 2),
    Op::Checkout(0),
    Op::Store(0, 0, 3, 2),
    Op::Abandon(0),
    Op::Store(1, 1, 2, 2),
    Op::Store(1, 1, 4, 2),
    Op::Checkout(1),
    Op::Commit(1),
    Op::Compact,
    Op::CommitWithAt(0, 2, 2),
    Op::Checkout(0),
    Op::Store(0, 1, 4, 1),
    Op::CommitWithAt(0, 0, 2),
    Op::Store(2, 0, 1, 2),
    Op::Checkout(2),
    Op::CommitWithAt(2, 3, 1),
    Op::Compact,
    Op::Retired(1),
    Op::Store(1, 0, 2, 2),
    Op::Retired(1),
    Op::CheckoutAt(1),
    Op::CommitWithAt(1, 1, 2),
];

fn saved(n: usize, owner: usize, size: usize, reason: usize, stamp: u32) -> SavedVirtualDrone {
    let mut diff = Layer::new();
    diff.write("/data/state.bin", vec![0x5Au8; 16 + 24 * size]);
    let spec = VirtualDroneSpec::example_survey();
    SavedVirtualDrone {
        name: name(n),
        owner: OWNERS[owner].to_string(),
        remaining_energy_j: spec.energy_allotted - f64::from(stamp),
        remaining_time_s: spec.max_duration,
        waypoints_completed: size % 2,
        flights_flown: stamp,
        spec,
        archive: ContainerArchive {
            name: name(n),
            kind: ContainerKind::VirtualDrone,
            base_stack: vec![],
            diff,
        },
        app_state: format!("{{\"stamp\":{stamp}}}"),
        reason: REASONS[reason],
    }
}

/// A resumed flight's save: new diff payload, app state, reason,
/// allotment remainders and progress; name, owner and spec stay.
fn resume(size: usize, reason: usize, stamp: u32) -> impl Fn(&mut SavedVirtualDrone) {
    move |e| {
        e.archive
            .diff
            .write("/data/state.bin", vec![0xC3u8; 8 + 40 * size]);
        e.app_state = format!("{{\"resumed\":{stamp}}}");
        e.reason = REASONS[reason];
        e.remaining_energy_j -= f64::from(stamp);
        e.remaining_time_s -= 1.0;
        e.waypoints_completed += 1;
        e.flights_flown = stamp;
    }
}

/// The fields a caller can observe of one entry.
type View = (String, String, SaveReason, u64, usize, u32, u64, String);

fn view(e: &SavedVirtualDrone) -> View {
    (
        e.name.clone(),
        e.owner.clone(),
        e.reason,
        e.remaining_energy_j.to_bits(),
        e.waypoints_completed,
        e.flights_flown,
        e.archive.stored_bytes(),
        e.app_state.clone(),
    )
}

fn views(es: Vec<&SavedVirtualDrone>) -> Vec<View> {
    es.into_iter().map(view).collect()
}

/// The handles a tape holds per name: the one its newest store
/// returned while the name stays indexed, and those a compaction
/// retired.
#[derive(Default)]
struct Handles {
    current: [Option<VdrHandle>; NAMES],
    retired: [Vec<VdrHandle>; NAMES],
}

/// Applies `op` to both repositories and checks every read-out.
fn step(
    vdr: &mut VirtualDroneRepository,
    model: &mut RefVdr,
    handles: &mut Handles,
    op: Op,
    stamp: u32,
) -> Result<(), TestCaseError> {
    match op {
        Op::Store(n, owner, size, reason) => {
            let handle = vdr.store(saved(n, owner, size, reason, stamp));
            model.store(saved(n, owner, size, reason, stamp));
            // An indexed name keeps its slot.
            if let Some(current) = handles.current[n] {
                prop_assert_eq!(handle, current);
            }
            prop_assert!(
                !handles.retired[n].contains(&handle),
                "a retired handle came back"
            );
            handles.current[n] = Some(handle);
        }
        Op::Checkout(n) => {
            let got = vdr.checkout(&name(n)).map(view);
            prop_assert_eq!(got, model.checkout(&name(n)).as_ref().map(view));
        }
        Op::Commit(n) => prop_assert_eq!(vdr.commit(&name(n)), model.commit(&name(n))),
        Op::Abandon(n) => prop_assert_eq!(vdr.abandon(&name(n)), model.abandon(&name(n))),
        Op::Compact => {
            prop_assert_eq!(vdr.compact(), model.compact());
            // Compaction drops the names with nothing shelved or leased.
            for n in 0..NAMES {
                let dead = model.get(&name(n)).is_none()
                    && !model.leased_names().contains(&name(n).as_str());
                if dead {
                    handles.retired[n].extend(handles.current[n].take());
                }
            }
        }
        Op::Get(n) => prop_assert_eq!(vdr.get(&name(n)).map(view), model.get(&name(n)).map(view)),
        Op::CheckoutAt(n) => {
            if let Some(handle) = handles.current[n] {
                let got = vdr.checkout_at(handle).map(view);
                prop_assert_eq!(got, model.checkout(&name(n)).as_ref().map(view));
            }
        }
        Op::CommitWithAt(n, size, reason) => {
            // A name without a current handle holds nothing to commit.
            let got = handles.current[n]
                .is_some_and(|handle| vdr.commit_with_at(handle, resume(size, reason, stamp)));
            prop_assert_eq!(
                got,
                model.commit_with(&name(n), resume(size, reason, stamp))
            );
        }
        Op::Retired(n) => {
            for &handle in &handles.retired[n] {
                prop_assert_eq!(vdr.checkout_at(handle).map(view), None);
                prop_assert!(!vdr.commit_with_at(handle, resume(0, 0, stamp)));
            }
        }
    }
    prop_assert_eq!(vdr.digest(), model.digest());
    prop_assert_eq!(vdr.stats(), model.stats());
    prop_assert_eq!(vdr.snapshot(), model.snapshot());
    prop_assert_eq!(vdr.stored_bytes(), model.stored_bytes());
    prop_assert_eq!(vdr.leased_names(), model.leased_names());
    prop_assert_eq!(
        views(vdr.interrupted()),
        views(model.shelved_where(|e| e.reason == SaveReason::Interrupted))
    );
    for owner in OWNERS {
        prop_assert_eq!(
            views(vdr.list_for(owner)),
            views(model.shelved_where(|e| e.owner == owner))
        );
    }
    for n in 0..NAMES {
        prop_assert_eq!(vdr.get(&name(n)).map(view), model.get(&name(n)).map(view));
    }
    Ok(())
}

proptest! {
    #[test]
    fn vdr_matches_the_journal_model(tape in prop::collection::vec(op(), 0..80)) {
        for shards in [1usize, 4] {
            let mut vdr = VirtualDroneRepository::with_shards(shards);
            let mut model = RefVdr::with_shards(shards);
            let mut handles = Handles::default();
            for (stamp, &op) in PRELUDE.iter().chain(&tape).enumerate() {
                let stamp = u32::try_from(stamp).expect("short tape");
                step(&mut vdr, &mut model, &mut handles, op, stamp).map_err(|e| format!("shards={shards}, op {stamp} {op:?}: {e}"))?;
            }
        }
    }
}

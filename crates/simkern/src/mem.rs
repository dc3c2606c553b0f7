//! Physical memory accounting.
//!
//! The prototype hardware is a Raspberry Pi 3 Model B with 1 GB of
//! RAM, of which only 880 MB is available to the OS after peripheral
//! I/O reserved space and the GPU carve-out for the camera (paper
//! Section 6.3). Memory is the binding constraint on how many virtual
//! drones can run: the fourth virtual drone fails to start with OOM
//! but must not disturb the ones already running.

use std::collections::BTreeMap;

use crate::error::KernelError;

/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * 1024;

/// RAM actually available to the OS on the prototype (880 MB) after
/// peripheral reserved space and the GPU/camera allocation.
pub const RPI3_USABLE_RAM: u64 = 880 * MIB;

/// The board's memory budget as Figure 12 itemizes it: fixed
/// residents (host OS + VDC, device container, flight container)
/// against usable RAM, with the remainder divided among virtual-drone
/// containers. The planner's party capacity derives from this profile
/// instead of a hardcoded cap, so a board with different RAM or
/// container footprints reflows the cap automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardMemoryProfile {
    /// RAM usable by the OS, bytes.
    pub usable_ram: u64,
    /// Host OS plus the virtual drone controller, bytes.
    pub host_os_vdc: u64,
    /// The device container multiplexing hardware services, bytes.
    pub device_container: u64,
    /// The real-time flight container, bytes.
    pub flight_container: u64,
    /// One virtual-drone (Android Things) container's RSS, bytes.
    pub vdrone_container: u64,
}

impl BoardMemoryProfile {
    /// The prototype profile: 880 MiB usable, 95 MiB host OS + VDC,
    /// 110 MiB device container, 40 MiB flight container, 185 MiB
    /// per virtual drone (Figure 12).
    pub const fn rpi3() -> Self {
        BoardMemoryProfile {
            usable_ram: RPI3_USABLE_RAM,
            host_os_vdc: 95 * MIB,
            device_container: 110 * MIB,
            flight_container: 40 * MIB,
            vdrone_container: 185 * MIB,
        }
    }

    /// Bytes left for virtual-drone containers after the fixed
    /// residents (saturating: an over-committed board leaves zero).
    pub const fn vdrone_budget(&self) -> u64 {
        self.usable_ram
            .saturating_sub(self.host_os_vdc)
            .saturating_sub(self.device_container)
            .saturating_sub(self.flight_container)
    }

    /// How many virtual-drone containers fit in the budget — the
    /// planner's per-flight party capacity. On the RPi3 profile this
    /// is exactly 3: 635 MiB of budget seats three 185 MiB
    /// containers, and a fourth would OOM at deploy.
    pub const fn max_vdrones(&self) -> usize {
        match self.vdrone_budget().checked_div(self.vdrone_container) {
            Some(n) => n as usize,
            None => 0,
        }
    }
}

/// An opaque owner of memory; allocations are tagged so that usage can
/// be reported per subsystem/container (Figure 12).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemOwner(pub String);

impl<T: Into<String>> From<T> for MemOwner {
    fn from(s: T) -> Self {
        MemOwner(s.into())
    }
}

/// Ledger of physical memory allocations.
#[derive(Debug)]
pub struct MemoryLedger {
    usable: u64,
    allocated: BTreeMap<MemOwner, u64>,
}

impl MemoryLedger {
    /// Creates a ledger with the given usable capacity in bytes.
    pub fn new(usable: u64) -> Self {
        MemoryLedger {
            usable,
            allocated: BTreeMap::new(),
        }
    }

    /// Creates the prototype's ledger (880 MB usable).
    pub fn rpi3() -> Self {
        Self::new(RPI3_USABLE_RAM)
    }

    /// Total usable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.usable
    }

    /// Bytes currently allocated across all owners.
    pub fn used(&self) -> u64 {
        self.allocated.values().sum()
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.usable - self.used()
    }

    /// Allocates `bytes` on behalf of `owner`.
    ///
    /// Fails with [`KernelError::OutOfMemory`] without any partial
    /// allocation, so a failed container start leaves running
    /// containers untouched.
    pub fn allocate(&mut self, owner: impl Into<MemOwner>, bytes: u64) -> Result<(), KernelError> {
        let free = self.free();
        if bytes > free {
            return Err(KernelError::OutOfMemory {
                requested: bytes,
                available: free,
            });
        }
        *self.allocated.entry(owner.into()).or_insert(0) += bytes;
        Ok(())
    }

    /// Frees up to `bytes` held by `owner` (saturating).
    pub fn free_bytes(&mut self, owner: &MemOwner, bytes: u64) {
        if let Some(held) = self.allocated.get_mut(owner) {
            *held = held.saturating_sub(bytes);
            if *held == 0 {
                self.allocated.remove(owner);
            }
        }
    }

    /// Releases everything held by `owner`, returning the amount freed.
    pub fn release_owner(&mut self, owner: &MemOwner) -> u64 {
        self.allocated.remove(owner).unwrap_or(0)
    }
}

impl crate::statehash::StateHash for MemoryLedger {
    fn state_hash(&self, h: &mut crate::statehash::StateHasher) {
        h.write_u64(self.usable);
        h.write_usize(self.allocated.len());
        for (owner, bytes) in &self.allocated {
            h.write_str(&owner.0);
            h.write_u64(*bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(m: &MemoryLedger, owner: &str) -> u64 {
        m.allocated
            .get(&MemOwner::from(owner))
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn allocate_and_free_round_trip() {
        let mut m = MemoryLedger::new(100 * MIB);
        m.allocate("a", 30 * MIB).unwrap();
        m.allocate("b", 20 * MIB).unwrap();
        assert_eq!(m.used(), 50 * MIB);
        assert_eq!(held(&m, "a"), 30 * MIB);
        m.free_bytes(&"a".into(), 10 * MIB);
        assert_eq!(held(&m, "a"), 20 * MIB);
        assert_eq!(m.release_owner(&"b".into()), 20 * MIB);
        assert_eq!(m.used(), 20 * MIB);
    }

    #[test]
    fn oom_is_atomic_and_reports_availability() {
        let mut m = MemoryLedger::new(100 * MIB);
        m.allocate("a", 90 * MIB).unwrap();
        let err = m.allocate("b", 20 * MIB).unwrap_err();
        assert_eq!(
            err,
            KernelError::OutOfMemory {
                requested: 20 * MIB,
                available: 10 * MIB
            }
        );
        // The failed allocation must not leave partial state behind.
        assert_eq!(held(&m, "b"), 0);
        assert_eq!(m.used(), 90 * MIB);
    }

    #[test]
    fn rpi3_capacity_matches_paper() {
        let m = MemoryLedger::rpi3();
        assert_eq!(m.capacity(), 880 * MIB);
    }

    #[test]
    fn rpi3_profile_reproduces_the_figure_12_cap() {
        let p = BoardMemoryProfile::rpi3();
        assert_eq!(p.vdrone_budget(), 635 * MIB);
        // Three 185 MiB containers fit; the fourth does not.
        assert_eq!(p.max_vdrones(), 3);
        assert!(p.vdrone_budget() >= 3 * p.vdrone_container);
        assert!(p.vdrone_budget() < 4 * p.vdrone_container);
    }

    #[test]
    fn profile_cap_reflows_with_board_parameters() {
        // A 2 GiB board seats more tenants; a starved board seats
        // none; a zero-RSS container cannot divide by zero.
        let mut p = BoardMemoryProfile::rpi3();
        p.usable_ram = 2048 * MIB;
        assert_eq!(p.max_vdrones(), 9);
        p.usable_ram = 200 * MIB;
        assert_eq!(p.max_vdrones(), 0);
        p.vdrone_container = 0;
        assert_eq!(p.max_vdrones(), 0);
    }

    #[test]
    fn over_free_saturates() {
        let mut m = MemoryLedger::new(10 * MIB);
        m.allocate("a", 5 * MIB).unwrap();
        m.free_bytes(&"a".into(), 50 * MIB);
        assert_eq!(m.used(), 0);
        assert_eq!(m.free(), 10 * MIB);
    }
}

//! Energy-based billing.
//!
//! "AnDrone ... bills drone usage based on energy consumption, like a
//! traditional energy utility service" (paper Section 2). Users
//! specify a maximum billing charge when ordering, which caps the
//! energy their virtual drone may consume at its waypoints.
//! Traditional cloud resources (storage) bill on regular usage.

use std::collections::BTreeMap;

/// Provider price schedule.
#[derive(Debug, Clone, Copy)]
pub struct PriceSchedule {
    /// Cents per kilojoule of drone energy.
    pub cents_per_kj: f64,
    /// Cents per gigabyte-month of cloud storage.
    pub cents_per_gb_month: f64,
}

impl PriceSchedule {
    /// A default schedule (energy priced well above grid rates — it
    /// is delivered airborne).
    pub fn default_schedule() -> Self {
        PriceSchedule {
            cents_per_kj: 2.5,
            cents_per_gb_month: 2.0,
        }
    }

    /// Converts a user's maximum charge (cents) into an energy cap
    /// (joules).
    pub fn energy_cap_j(&self, max_charge_cents: f64) -> f64 {
        (max_charge_cents.max(0.0) / self.cents_per_kj) * 1_000.0
    }
}

/// One customer's running bill.
#[derive(Debug, Clone, Default)]
pub struct Bill {
    /// Drone energy consumed, joules.
    pub energy_j: f64,
    /// Drone energy refunded (unserved allotment on a terminally
    /// failed order), joules.
    pub energy_refund_j: f64,
    /// Cloud storage used, GB-months.
    pub storage_gb_months: f64,
}

impl Bill {
    /// Energy the customer actually pays for, joules.
    pub fn net_energy_j(&self) -> f64 {
        (self.energy_j - self.energy_refund_j).max(0.0)
    }

    /// Total in cents under a schedule.
    pub fn total_cents(&self, prices: &PriceSchedule) -> f64 {
        self.net_energy_j() / 1_000.0 * prices.cents_per_kj
            + self.storage_gb_months * prices.cents_per_gb_month
    }

    /// Records drone energy use.
    pub fn charge_energy(&mut self, joules: f64) {
        self.energy_j += joules.max(0.0);
    }

    /// Credits energy back (an order the service could not complete:
    /// the virtual drone was terminally interrupted and never
    /// resumed).
    pub fn refund_energy(&mut self, joules: f64) {
        self.energy_refund_j += joules.max(0.0);
    }

    /// Records storage use.
    pub fn charge_storage(&mut self, gb_months: f64) {
        self.storage_gb_months += gb_months.max(0.0);
    }
}

/// A handle to one account's bill in the [`BillingLedger`] that
/// issued it, from [`BillingLedger::open`]. Accounts are never closed,
/// so a handle stays valid for the ledger's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountId(u32);

/// Per-account usage metering: a name index over a dense bill table.
/// A caller that keeps an account's [`AccountId`] charges it without
/// searching the index; the name-keyed methods open the account and
/// then charge through its handle.
#[derive(Debug, Default)]
pub struct BillingLedger {
    index: BTreeMap<String, AccountId>,
    bills: Vec<Bill>,
}

impl BillingLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        BillingLedger::default()
    }

    /// The handle of an account's bill, opening a zeroed bill on first
    /// use. An existing account is found by `&str`; only a new one
    /// allocates its key.
    pub fn open(&mut self, account: &str) -> AccountId {
        if let Some(&id) = self.index.get(account) {
            return id;
        }
        debug_assert!(
            self.bills.len() < u32::MAX as usize,
            "account ids exhausted"
        );
        let id = AccountId(self.bills.len() as u32);
        self.bills.push(Bill::default());
        self.index.insert(account.to_string(), id);
        id
    }

    /// The bill behind a handle this ledger issued.
    pub fn bill_mut(&mut self, id: AccountId) -> &mut Bill {
        &mut self.bills[id.0 as usize]
    }

    /// Records drone energy use for an account.
    pub fn charge_energy(&mut self, account: &str, joules: f64) {
        let id = self.open(account);
        self.bill_mut(id).charge_energy(joules);
    }

    /// Credits energy back to an account (see [`Bill::refund_energy`]).
    pub fn refund_energy(&mut self, account: &str, joules: f64) {
        let id = self.open(account);
        self.bill_mut(id).refund_energy(joules);
    }

    /// Records storage use.
    pub fn charge_storage(&mut self, account: &str, gb_months: f64) {
        let id = self.open(account);
        self.bill_mut(id).charge_storage(gb_months);
    }

    /// The bill for an account (zeroed if never opened).
    pub fn bill(&self, account: &str) -> Bill {
        self.index
            .get(account)
            .map(|id| self.bills[id.0 as usize].clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_charge_converts_to_energy_cap() {
        let p = PriceSchedule::default_schedule();
        // The example spec allots 45,000 J; at 2.5 c/kJ that is a
        // $1.13 maximum charge.
        let cap = p.energy_cap_j(112.5);
        assert!((cap - 45_000.0).abs() < 1.0);
        assert_eq!(p.energy_cap_j(-5.0), 0.0);
    }

    #[test]
    fn bill_totals_all_components() {
        let p = PriceSchedule::default_schedule();
        let mut ledger = BillingLedger::new();
        ledger.charge_energy("alice", 10_000.0);
        ledger.charge_storage("alice", 2.0);
        let total = ledger.bill("alice").total_cents(&p);
        assert!((total - (25.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn refunds_credit_energy_but_never_go_negative() {
        let p = PriceSchedule::default_schedule();
        let mut ledger = BillingLedger::new();
        ledger.charge_energy("alice", 10_000.0);
        ledger.refund_energy("alice", 4_000.0);
        assert!((ledger.bill("alice").net_energy_j() - 6_000.0).abs() < 1e-9);
        ledger.refund_energy("alice", 100_000.0);
        assert_eq!(ledger.bill("alice").net_energy_j(), 0.0);
        assert!((ledger.bill("alice").total_cents(&p) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn accounts_are_independent() {
        let mut ledger = BillingLedger::new();
        ledger.charge_energy("alice", 100.0);
        assert_eq!(ledger.bill("bob").energy_j, 0.0);
    }
}

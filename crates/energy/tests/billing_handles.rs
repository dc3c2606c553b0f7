//! Model test for the billing ledger's account handles.
//!
//! Random tapes of energy charges, refunds and storage charges (some
//! negative, which the ledger clamps to zero) run against three
//! ledgers of record: one ledger charged by account name, one charged
//! through the [`AccountId`]s that [`BillingLedger::open`] returns, and
//! a plain name-keyed map of bills kept here as the reference. After
//! every operation, every account's bill must agree bit for bit.

use std::collections::BTreeMap;

use androne_energy::{AccountId, Bill, BillingLedger};
use proptest::prelude::*;

const ACCOUNTS: [&str; 5] = ["alice", "bob", "carol", "dave", "erin"];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Opens an account without charging it.
    Open(usize),
    Energy(usize, f64),
    Refund(usize, f64),
    Storage(usize, f64),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..4, 0..ACCOUNTS.len(), -100.0f64..50_000.0).prop_map(|(kind, a, x)| match kind {
        0 => Op::Open(a),
        1 => Op::Energy(a, x),
        2 => Op::Refund(a, x),
        _ => Op::Storage(a, x / 1_000.0),
    })
}

fn bits(b: &Bill) -> [u64; 3] {
    [
        b.energy_j.to_bits(),
        b.energy_refund_j.to_bits(),
        b.storage_gb_months.to_bits(),
    ]
}

/// Applies `op` to all three ledgers.
fn apply(
    by_name: &mut BillingLedger,
    by_handle: &mut BillingLedger,
    ids: &mut BTreeMap<usize, AccountId>,
    reference: &mut BTreeMap<&'static str, Bill>,
    op: Op,
) {
    let (Op::Open(a) | Op::Energy(a, _) | Op::Refund(a, _) | Op::Storage(a, _)) = op;
    let account = ACCOUNTS[a];
    let id = *ids.entry(a).or_insert_with(|| by_handle.open(account));
    let bill = by_handle.bill_mut(id);
    let want = reference.entry(account).or_default();
    match op {
        Op::Open(_) => {
            by_name.open(account);
        }
        Op::Energy(_, x) => {
            by_name.charge_energy(account, x);
            bill.charge_energy(x);
            want.energy_j += x.max(0.0);
        }
        Op::Refund(_, x) => {
            by_name.refund_energy(account, x);
            bill.refund_energy(x);
            want.energy_refund_j += x.max(0.0);
        }
        Op::Storage(_, x) => {
            by_name.charge_storage(account, x);
            bill.charge_storage(x);
            want.storage_gb_months += x.max(0.0);
        }
    }
}

proptest! {
    #[test]
    fn handle_and_name_charges_agree_with_the_reference(
        tape in prop::collection::vec(op(), 0..120)
    ) {
        let mut by_name = BillingLedger::new();
        let mut by_handle = BillingLedger::new();
        let mut ids = BTreeMap::new();
        let mut reference = BTreeMap::new();
        for &op in &tape {
            apply(&mut by_name, &mut by_handle, &mut ids, &mut reference, op);
            for (a, account) in ACCOUNTS.iter().enumerate() {
                let want = bits(&reference.get(account).cloned().unwrap_or_default());
                prop_assert_eq!(bits(&by_name.bill(account)), want, "{} by name", account);
                prop_assert_eq!(bits(&by_handle.bill(account)), want, "{} by handle", account);
                if let Some(&id) = ids.get(&a) {
                    prop_assert_eq!(bits(by_handle.bill_mut(id)), want, "{} through its id", account);
                }
            }
        }
    }
}

//! Wave bin-packing for batched admission.
//!
//! The VRP solver's simulated annealing is the right tool for a
//! handful of tenants with interleavable waypoints; an admitted batch
//! of thousands of orders per wave needs a cheaper shape. This module
//! packs admitted orders onto a fleet of simulated drones with a
//! deterministic first-fit pass: each order is one pack item (its
//! next waypoint's energy/time need), each flight is a bin bounded by
//! the board-profile party cap and the airframe battery budget, and
//! whatever does not fit this wave **spills** — the caller re-queues
//! spilled orders at the front of their admission lanes so they lead
//! the next wave.
//!
//! Determinism: plain first-fit in the admitted order over bins in
//! open order; no randomness, no maps — the packing is a pure
//! function of the item list and limits.

/// One order's demand on a flight this wave.
#[derive(Debug, Clone, PartialEq)]
pub struct PackItem {
    /// Owning virtual drone, a label for the caller only: `bin_pack`
    /// never reads it. A flight carries at most `party_cap` *items*,
    /// whatever their owners, so the packing is the same under any
    /// owner labels, empty ones included.
    pub owner: String,
    /// Energy the flight must spend for this item (travel + service).
    pub energy_j: f64,
    /// Flight time this item adds.
    pub time_s: f64,
}

/// One packed flight: indices into the input item slice, plus the
/// accumulated load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedFlight {
    pub items: Vec<usize>,
    pub energy_j: f64,
    pub time_s: f64,
}

/// The result of one wave's packing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Packing {
    pub flights: Vec<PackedFlight>,
    /// Indices of items that did not fit (re-queue them first).
    pub spilled: Vec<usize>,
}

impl Packing {
    /// Total items placed on flights.
    pub fn packed_count(&self) -> usize {
        self.flights.iter().map(|f| f.items.len()).sum()
    }
}

/// First-fit packs `items` onto at most `fleet_size` flights, each
/// carrying at most `party_cap` items and at most `battery_budget_j`
/// joules of demand. Items too large for an empty bin spill rather
/// than opening a doomed flight; once every flight is full on the
/// party cap the remaining items spill without a scan. Pure and
/// deterministic.
pub fn bin_pack(
    items: &[PackItem],
    fleet_size: usize,
    party_cap: usize,
    battery_budget_j: f64,
) -> Packing {
    let mut packing = Packing::default();
    if fleet_size == 0 || party_cap == 0 {
        packing.spilled = (0..items.len()).collect();
        return packing;
    }
    // First bin that might still have room: every bin below this is
    // full on the party cap, so the scan skips them (keeps the pass
    // near-linear when items are uniform).
    let mut first_open = 0usize;
    for (idx, item) in items.iter().enumerate() {
        if first_open == fleet_size {
            // Every bin the fleet allows is open and full on the party
            // cap: nothing more fits, so the rest spill in order.
            packing.spilled.extend(idx..items.len());
            break;
        }
        if item.energy_j > battery_budget_j {
            packing.spilled.push(idx);
            continue;
        }
        let mut placed = false;
        for b in first_open..packing.flights.len() {
            let bin = &mut packing.flights[b];
            if bin.items.len() < party_cap && bin.energy_j + item.energy_j <= battery_budget_j {
                bin.items.push(idx);
                bin.energy_j += item.energy_j;
                bin.time_s += item.time_s;
                placed = true;
                break;
            }
        }
        if !placed {
            if packing.flights.len() < fleet_size {
                packing.flights.push(PackedFlight {
                    items: vec![idx],
                    energy_j: item.energy_j,
                    time_s: item.time_s,
                });
            } else {
                packing.spilled.push(idx);
            }
        }
        while first_open < packing.flights.len()
            && packing.flights[first_open].items.len() >= party_cap
        {
            first_open += 1;
        }
    }
    packing
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(owner: &str, energy_j: f64) -> PackItem {
        PackItem {
            owner: owner.to_string(),
            energy_j,
            time_s: energy_j / 100.0,
        }
    }

    #[test]
    fn respects_party_cap_and_battery_budget() {
        let items: Vec<PackItem> = (0..7).map(|i| item(&format!("t{i}"), 10_000.0)).collect();
        // Budget fits 2 items; party cap allows 3.
        let p = bin_pack(&items, 10, 3, 25_000.0);
        assert!(p.spilled.is_empty());
        for f in &p.flights {
            assert!(f.items.len() <= 3);
            assert!(f.energy_j <= 25_000.0 + 1e-9);
        }
        assert_eq!(p.packed_count(), 7);
        assert_eq!(p.flights.len(), 4, "2 per flight on the energy bound");
    }

    #[test]
    fn spills_when_the_fleet_is_exhausted() {
        let items: Vec<PackItem> = (0..5).map(|i| item(&format!("t{i}"), 10_000.0)).collect();
        let p = bin_pack(&items, 2, 1, 50_000.0);
        assert_eq!(p.packed_count(), 2);
        assert_eq!(p.spilled, vec![2, 3, 4], "overflow spills in input order");
    }

    #[test]
    fn oversized_items_spill_instead_of_opening_doomed_flights() {
        let items = vec![item("big", 99_000.0), item("ok", 1_000.0)];
        let p = bin_pack(&items, 4, 3, 50_000.0);
        assert_eq!(p.spilled, vec![0]);
        assert_eq!(p.flights.len(), 1);
        assert_eq!(p.flights[0].items, vec![1]);
    }

    #[test]
    fn packing_is_deterministic() {
        let items: Vec<PackItem> = (0..100)
            .map(|i| item(&format!("t{i}"), 1_000.0 + f64::from(i % 7) * 3_000.0))
            .collect();
        let a = bin_pack(&items, 16, 3, 20_000.0);
        let b = bin_pack(&items, 16, 3, 20_000.0);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_fleet_or_cap_spills_everything() {
        let items = vec![item("a", 1.0)];
        assert_eq!(bin_pack(&items, 0, 3, 1e9).spilled, vec![0]);
        assert_eq!(bin_pack(&items, 3, 0, 1e9).spilled, vec![0]);
    }

    /// The first-fit pass before the full-fleet early exit: every
    /// item is checked against the open bins, even once all are full.
    fn reference_bin_pack(
        items: &[PackItem],
        fleet_size: usize,
        party_cap: usize,
        battery_budget_j: f64,
    ) -> Packing {
        let mut packing = Packing::default();
        if fleet_size == 0 || party_cap == 0 {
            packing.spilled = (0..items.len()).collect();
            return packing;
        }
        let mut first_open = 0usize;
        for (idx, item) in items.iter().enumerate() {
            if item.energy_j > battery_budget_j {
                packing.spilled.push(idx);
                continue;
            }
            let mut placed = false;
            for b in first_open..packing.flights.len() {
                let bin = &mut packing.flights[b];
                if bin.items.len() < party_cap && bin.energy_j + item.energy_j <= battery_budget_j {
                    bin.items.push(idx);
                    bin.energy_j += item.energy_j;
                    bin.time_s += item.time_s;
                    placed = true;
                    break;
                }
            }
            if !placed {
                if packing.flights.len() < fleet_size {
                    packing.flights.push(PackedFlight {
                        items: vec![idx],
                        energy_j: item.energy_j,
                        time_s: item.time_s,
                    });
                } else {
                    packing.spilled.push(idx);
                }
            }
            while first_open < packing.flights.len()
                && packing.flights[first_open].items.len() >= party_cap
            {
                first_open += 1;
            }
        }
        packing
    }

    use proptest::prelude::*;

    // Overloaded waves offer many times the legs the fleet can carry;
    // the early exit must spill exactly what the full scan spilled.
    proptest! {
        #[test]
        fn early_exit_matches_the_full_scan(
            demands in prop::collection::vec((0.0f64..40_000.0, 0.0f64..900.0), 0..96),
            fleet_size in 0usize..8,
            party_cap in 0usize..5,
            budget in 1_000.0f64..120_000.0,
        ) {
            let items: Vec<PackItem> = demands
                .iter()
                .map(|&(energy_j, time_s)| PackItem {
                    owner: String::new(),
                    energy_j,
                    time_s,
                })
                .collect();
            prop_assert_eq!(
                bin_pack(&items, fleet_size, party_cap, budget),
                reference_bin_pack(&items, fleet_size, party_cap, budget)
            );
        }
    }

    // The same demands pack identically whether their owners are
    // distinct, relabelled, shared or empty: the packer counts items,
    // never owners.
    proptest! {
        #[test]
        fn packing_ignores_owner_labels(
            demands in prop::collection::vec((0.0f64..40_000.0, 0u8..4), 0..48),
            fleet_size in 0usize..8,
            party_cap in 0usize..5,
            budget in 1_000.0f64..80_000.0,
        ) {
            let pack = |owner: &dyn Fn(usize, u8) -> String| {
                let items: Vec<PackItem> = demands
                    .iter()
                    .enumerate()
                    .map(|(i, &(energy_j, tag))| PackItem {
                        owner: owner(i, tag),
                        energy_j,
                        time_s: energy_j / 100.0,
                    })
                    .collect();
                bin_pack(&items, fleet_size, party_cap, budget)
            };
            let distinct = pack(&|i, _| format!("t{i}"));
            prop_assert_eq!(pack(&|_, tag| format!("x{tag}")), distinct);
            prop_assert_eq!(pack(&|_, _| "shared".to_string()), distinct);
            prop_assert_eq!(pack(&|_, _| String::new()), distinct);
        }
    }
}

//! The top-level AnDrone service: cloud plus drone fleet.
//!
//! Drives the complete Figure 4 workflow: users order virtual drones
//! from the portal; the flight planner allocates them to physical
//! flights; drones fly, handing each waypoint to its virtual drone;
//! after landing, files are offloaded to cloud storage, energy is
//! billed, and virtual drones are saved in the VDR (interrupted ones
//! can resume on a later flight).

use androne_android::AndroneManifest;
use androne_cloud::{CloudService, NotificationKind, PlacedOrder};
use androne_hal::GeoPoint;
use androne_planner::FlightPlan;

use crate::drone::{Drone, DroneError};
use crate::fleet::{deploy_owner, harvest_owner, OwnerSource};
use crate::flight_exec::{execute_flight, AbortCheck, FlightOutcome};

/// The assembled service.
pub struct Androne {
    /// The cloud side.
    pub cloud: CloudService,
    /// Launch base for the fleet.
    pub base: GeoPoint,
    /// Physical drones available.
    pub fleet_size: usize,
    seed: u64,
}

impl Androne {
    /// Creates the service with a fleet launching from `base`.
    pub fn new(base: GeoPoint, fleet_size: usize, seed: u64) -> Self {
        Androne {
            cloud: CloudService::new(),
            base,
            fleet_size,
            seed,
        }
    }

    /// Looks up the manifests for an order's apps (from the store).
    fn manifests_for(&self, order: &PlacedOrder) -> Vec<AndroneManifest> {
        order
            .spec
            .apps
            .iter()
            .filter_map(|apk| {
                let package = apk.strip_suffix(".apk").unwrap_or(apk);
                self.cloud.app_store.get(package).map(|l| l.manifest.clone())
            })
            .collect()
    }

    /// Plans and executes all flights for `orders`, performing
    /// post-flight bookkeeping. Returns one outcome per flight.
    pub fn execute_orders(
        &mut self,
        orders: &[PlacedOrder],
        max_sim_seconds: f64,
    ) -> Result<Vec<FlightOutcome>, DroneError> {
        let plans = self.cloud.plan_flights(orders, self.base, self.fleet_size);
        let mut outcomes = Vec::new();
        for plan in plans {
            let outcome = self.execute_one_flight(orders, plan, max_sim_seconds, None)?;
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Executes one planned flight (exposed for scenario tests that
    /// need abort injection).
    pub fn execute_one_flight(
        &mut self,
        orders: &[PlacedOrder],
        plan: FlightPlan,
        max_sim_seconds: f64,
        abort: Option<AbortCheck<'_>>,
    ) -> Result<FlightOutcome, DroneError> {
        self.seed = self.seed.wrapping_add(100);
        let mut drone = Drone::boot(self.base, self.seed)?;

        // Deploy every virtual drone this plan serves, keeping each
        // one's order and prior progress for the post-flight save.
        let mut owners: Vec<&str> = plan.legs.iter().map(|l| l.owner.as_str()).collect();
        owners.sort();
        owners.dedup();
        let mut aboard: Vec<(&PlacedOrder, (usize, u32))> = Vec::new();
        for owner in owners {
            let order = orders
                .iter()
                .find(|o| o.vd_name == owner)
                .ok_or_else(|| DroneError::UnknownVirtualDrone(owner.to_string()))?;
            // Resume from the VDR if stored, otherwise fresh deploy.
            // The entry is leased during the deploy: a failure
            // abandons the lease and the stored drone survives.
            let manifests = self.manifests_for(order);
            let source = match self.cloud.vdr.checkout(owner) {
                Some(saved) => OwnerSource::Resume(saved),
                None => OwnerSource::Fresh(order.spec.clone()),
            };
            let deployed = deploy_owner(&mut drone, owner, &source, &manifests);
            if matches!(source, OwnerSource::Resume(_)) {
                if deployed.is_ok() {
                    self.cloud.vdr.commit(owner);
                } else {
                    self.cloud.vdr.abandon(owner);
                }
            }
            aboard.push((order, deployed?));
            // Notify the user their drone is taking off (paper
            // Section 2: email/text with access information).
            self.cloud.notify(
                &order.user,
                NotificationKind::Text,
                format!(
                    "Virtual drone {owner} is launching; connect via your per-container VPN."
                ),
            );
        }

        let flight_id = self.cloud.new_flight_id();
        let outcome = execute_flight(&mut drone, plan, max_sim_seconds, abort);

        // Post-flight: offload marked files, bill the energy used,
        // and save each virtual drone in the VDR.
        for (order, prior) in aboard {
            let mut post = harvest_owner(&mut drone, &order.vd_name, &outcome.log, prior)?;
            self.cloud.complete_flight(
                &order.user,
                flight_id,
                post.energy_used,
                std::mem::take(&mut post.file_data),
            );
            self.cloud
                .vdr
                .store(post.into_saved(order.user.clone(), order.spec.clone()));
        }
        Ok(outcome)
    }
}

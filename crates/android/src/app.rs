//! Installed apps and the Android activity lifecycle.
//!
//! AnDrone saves and restores virtual drone state through the
//! standard Android activity lifecycle rather than checkpointing
//! (paper Section 4.4): apps are told they are about to be terminated
//! via `onSaveInstanceState()`, persist a state bundle, and restore
//! from it on the next launch — possibly on different physical drone
//! hardware.

use std::collections::BTreeMap;

use androne_simkern::{Euid, Pid};

use crate::manifest::AndroneManifest;

/// The saved-state bundle apps write in `onSaveInstanceState()`.
pub type Bundle = BTreeMap<String, String>;

/// Lifecycle state of an installed app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppState {
    /// Installed, not running.
    Stopped,
    /// Running.
    Running,
}

/// One installed app inside a virtual drone container.
#[derive(Debug, Clone)]
pub struct InstalledApp {
    /// Package name.
    pub package: String,
    /// The app's AnDrone manifest.
    pub manifest: AndroneManifest,
    /// Sandbox euid assigned at install.
    pub euid: Euid,
    /// Main process pid while running.
    pub pid: Option<Pid>,
    /// Lifecycle state.
    pub state: AppState,
    /// The saved instance state bundle.
    pub saved_state: Bundle,
    /// Arguments supplied by the user at ordering time.
    pub args: BTreeMap<String, String>,
}

/// Per-container app registry (the package manager's bookkeeping).
#[derive(Debug, Default)]
pub struct AppRegistry {
    apps: BTreeMap<String, InstalledApp>,
    next_euid: u32,
}

impl AppRegistry {
    /// Creates an empty registry. App euids start at Android's
    /// first application UID (10000).
    pub fn new() -> Self {
        AppRegistry {
            apps: BTreeMap::new(),
            next_euid: 10_000,
        }
    }

    /// Installs an app from its manifest, assigning a fresh euid.
    pub fn install(&mut self, manifest: AndroneManifest) -> Euid {
        let euid = Euid(self.next_euid);
        self.next_euid += 1;
        let package = manifest.package.clone();
        self.apps.insert(
            package.clone(),
            InstalledApp {
                package,
                manifest,
                euid,
                pid: None,
                state: AppState::Stopped,
                saved_state: Bundle::new(),
                args: BTreeMap::new(),
            },
        );
        euid
    }

    /// Looks up an app.
    pub fn get(&self, package: &str) -> Option<&InstalledApp> {
        self.apps.get(package)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, package: &str) -> Option<&mut InstalledApp> {
        self.apps.get_mut(package)
    }

    /// Delivers `onSaveInstanceState()`: stores the bundle and stops
    /// the app.
    pub fn save_instance_state(&mut self, package: &str, bundle: Bundle) {
        if let Some(app) = self.apps.get_mut(package) {
            app.saved_state = bundle;
            app.pid = None;
            app.state = AppState::Stopped;
        }
    }

    /// The bundle an app restores from when starting again.
    pub fn restore_bundle(&self, package: &str) -> Bundle {
        self.apps
            .get(package)
            .map(|a| a.saved_state.clone())
            .unwrap_or_default()
    }

    /// Iterates installed apps.
    pub fn iter(&self) -> impl Iterator<Item = &InstalledApp> {
        self.apps.values()
    }

    /// Serializes all saved bundles for offline storage in the
    /// container image (one line per key).
    pub fn serialize_saved_state(&self) -> String {
        let mut out = String::new();
        for app in self.apps.values() {
            for (k, v) in &app.saved_state {
                out.push_str(&format!("{}\t{}\t{}\n", app.package, k, v));
            }
        }
        out
    }

    /// Restores saved bundles from [`Self::serialize_saved_state`]
    /// output (apps must already be installed).
    pub fn deserialize_saved_state(&mut self, data: &str) {
        for line in data.lines() {
            let mut parts = line.splitn(3, '\t');
            if let (Some(pkg), Some(k), Some(v)) = (parts.next(), parts.next(), parts.next()) {
                if let Some(app) = self.apps.get_mut(pkg) {
                    app.saved_state.insert(k.to_string(), v.to_string());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(pkg: &str) -> AndroneManifest {
        AndroneManifest {
            package: pkg.into(),
            permissions: Vec::new(),
            arguments: Vec::new(),
        }
    }

    #[test]
    fn install_assigns_distinct_android_euids() {
        let mut reg = AppRegistry::new();
        let a = reg.install(manifest("a"));
        let b = reg.install(manifest("b"));
        assert_ne!(a, b);
        assert!(a.0 >= 10_000, "app UIDs start at 10000");
    }

    #[test]
    fn lifecycle_save_restore_round_trip() {
        let mut reg = AppRegistry::new();
        reg.install(manifest("com.example.survey"));
        let app = reg.get_mut("com.example.survey").unwrap();
        app.pid = Some(Pid(42));
        app.state = AppState::Running;

        let mut bundle = Bundle::new();
        bundle.insert("next-waypoint".into(), "2".into());
        bundle.insert("frames-captured".into(), "117".into());
        reg.save_instance_state("com.example.survey", bundle.clone());

        let app = reg.get("com.example.survey").unwrap();
        assert_eq!(app.state, AppState::Stopped);
        assert_eq!(app.pid, None);
        assert_eq!(reg.restore_bundle("com.example.survey"), bundle);
    }

    #[test]
    fn saved_state_serialization_round_trips() {
        let mut reg = AppRegistry::new();
        reg.install(manifest("a"));
        reg.install(manifest("b"));
        let mut ba = Bundle::new();
        ba.insert("k1".into(), "v1".into());
        reg.save_instance_state("a", ba);
        let mut bb = Bundle::new();
        bb.insert("k2".into(), "v with spaces".into());
        reg.save_instance_state("b", bb);

        let blob = reg.serialize_saved_state();
        let mut fresh = AppRegistry::new();
        fresh.install(manifest("a"));
        fresh.install(manifest("b"));
        fresh.deserialize_saved_state(&blob);
        assert_eq!(fresh.restore_bundle("a")["k1"], "v1");
        assert_eq!(fresh.restore_bundle("b")["k2"], "v with spaces");
    }
}

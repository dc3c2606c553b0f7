//! The per-container ActivityManager.
//!
//! Holds app records and answers `checkPermission()` queries. Each
//! container's ServiceManager forwards the ActivityManager
//! registration to the device container (`PUBLISH_TO_DEV_CON`), so
//! shared device services can resolve the *calling* container's
//! ActivityManager by its scoped name and ask it about the calling
//! app's grants (paper Section 4.2).

use std::collections::{BTreeMap, BTreeSet};

use androne_binder::{BinderDriver, BinderError, BinderService, Parcel, TransactionContext};
use androne_simkern::Euid;

/// ActivityManager transaction codes.
pub mod codes {
    /// `{str permission, i32 euid}` → `{i32 granted(0|1)}`.
    pub const CHECK_PERMISSION: u32 = 1;
    /// `{str package, i32 euid}` → `{}` — register an app record.
    pub const REGISTER_APP: u32 = 2;
    /// `{str package, str permission}` → `{}` — grant.
    pub const GRANT_PERMISSION: u32 = 3;
    /// `{str package, str permission}` → `{}` — revoke.
    pub const REVOKE_PERMISSION: u32 = 4;
}

/// Result value for a granted permission (Android's
/// `PERMISSION_GRANTED`).
pub const PERMISSION_GRANTED: i32 = 0;
/// Result value for a denied permission (`PERMISSION_DENIED`).
pub const PERMISSION_DENIED: i32 = -1;

#[derive(Debug, Default)]
struct AppRecord {
    euid: u32,
    granted: BTreeSet<String>,
}

/// One container's ActivityManager.
#[derive(Debug, Default)]
pub struct ActivityManager {
    apps: BTreeMap<String, AppRecord>,
}

impl ActivityManager {
    /// Creates an empty ActivityManager.
    pub fn new() -> Self {
        ActivityManager::default()
    }

    /// Registers an app with its sandbox euid.
    pub fn register_app(&mut self, package: impl Into<String>, euid: Euid) {
        self.apps.insert(
            package.into(),
            AppRecord {
                euid: euid.0,
                granted: BTreeSet::new(),
            },
        );
    }

    /// Grants a permission to a package.
    pub fn grant(&mut self, package: &str, permission: impl Into<String>) {
        if let Some(app) = self.apps.get_mut(package) {
            app.granted.insert(permission.into());
        }
    }

    /// Revokes a permission from a package.
    pub fn revoke(&mut self, package: &str, permission: &str) {
        if let Some(app) = self.apps.get_mut(package) {
            app.granted.remove(permission);
        }
    }

    /// Android-style permission check by euid.
    pub fn check_permission(&self, permission: &str, euid: Euid) -> i32 {
        let granted = self
            .apps
            .values()
            .any(|a| a.euid == euid.0 && a.granted.contains(permission));
        if granted {
            PERMISSION_GRANTED
        } else {
            PERMISSION_DENIED
        }
    }
}

impl BinderService for ActivityManager {
    fn on_transact(
        &mut self,
        code: u32,
        data: &Parcel,
        _ctx: &TransactionContext,
        _driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        let mut reply = Parcel::new();
        match code {
            codes::CHECK_PERMISSION => {
                let permission = data.str_at(0)?;
                let euid = Euid(data.i32_at(1)? as u32);
                reply.push_i32(self.check_permission(permission, euid));
            }
            codes::REGISTER_APP => {
                let package = data.str_at(0)?.to_string();
                let euid = Euid(data.i32_at(1)? as u32);
                self.register_app(package, euid);
            }
            codes::GRANT_PERMISSION => {
                let package = data.str_at(0)?.to_string();
                let permission = data.str_at(1)?.to_string();
                self.grant(&package, permission);
            }
            codes::REVOKE_PERMISSION => {
                let package = data.str_at(0)?.to_string();
                let permission = data.str_at(1)?;
                self.revoke(&package, permission);
            }
            other => {
                return Err(BinderError::TransactionFailed(format!(
                    "unknown ActivityManager code {other}"
                )))
            }
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_per_euid() {
        let mut am = ActivityManager::new();
        am.register_app("com.example.survey", Euid(10_050));
        am.register_app("com.example.other", Euid(10_051));
        am.grant("com.example.survey", "android.permission.CAMERA");
        assert_eq!(
            am.check_permission("android.permission.CAMERA", Euid(10_050)),
            PERMISSION_GRANTED
        );
        assert_eq!(
            am.check_permission("android.permission.CAMERA", Euid(10_051)),
            PERMISSION_DENIED
        );
    }

    #[test]
    fn revoke_removes_grant() {
        let mut am = ActivityManager::new();
        am.register_app("app", Euid(10_001));
        am.grant("app", "p");
        am.revoke("app", "p");
        assert_eq!(am.check_permission("p", Euid(10_001)), PERMISSION_DENIED);
    }

    #[test]
    fn unknown_package_operations_are_noops() {
        let mut am = ActivityManager::new();
        am.grant("ghost", "p");
        am.revoke("ghost", "p");
        assert_eq!(am.check_permission("p", Euid(1)), PERMISSION_DENIED);
    }
}

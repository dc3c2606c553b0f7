//! The AnDrone app store.
//!
//! Hosts apps users can put on their virtual drones (paper Section
//! 2: "a real estate agent ... can go to the AnDrone app store and
//! find an app"). Each listing carries the APK identity and the
//! AnDrone manifest the portal reads to prompt for arguments and the
//! flight planner reads to plan device access.

use std::collections::BTreeMap;

use androne_android::{AndroneManifest, ManifestError};

/// One app listing.
#[derive(Debug, Clone)]
pub struct AppListing {
    /// Package name (doubles as the store id).
    pub package: String,
    /// Human description shown in the portal.
    pub description: String,
    /// Parsed AnDrone manifest.
    pub manifest: AndroneManifest,
}

/// The store.
#[derive(Debug, Default)]
pub struct AppStore {
    listings: BTreeMap<String, AppListing>,
}

impl AppStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        AppStore::default()
    }

    /// Publishes an app from its manifest XML. Returns the package
    /// name.
    pub fn publish(
        &mut self,
        manifest_xml: &str,
        description: impl Into<String>,
    ) -> Result<String, ManifestError> {
        let manifest = AndroneManifest::parse(manifest_xml)?;
        let package = manifest.package.clone();
        self.listings.insert(
            package.clone(),
            AppListing {
                package: package.clone(),
                description: description.into(),
                manifest,
            },
        );
        Ok(package)
    }

    /// Looks up a listing.
    pub fn get(&self, package: &str) -> Option<&AppListing> {
        self.listings.get(package)
    }

    /// Simple keyword search over descriptions and package names.
    pub fn search(&self, query: &str) -> Vec<&AppListing> {
        let q = query.to_lowercase();
        self.listings
            .values()
            .filter(|l| {
                l.package.to_lowercase().contains(&q) || l.description.to_lowercase().contains(&q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"<androne-manifest package="com.example.aerial.photo">
        <uses-permission name="camera" type="waypoint"/>
        <uses-permission name="flight-control" type="waypoint"/>
        <argument name="property-address" type="string" required="true"/>
    </androne-manifest>"#;

    #[test]
    fn publish_and_search() {
        let mut store = AppStore::new();
        let pkg = store
            .publish(MANIFEST, "Aerial photography for real estate")
            .unwrap();
        assert_eq!(pkg, "com.example.aerial.photo");
        assert_eq!(store.search("real estate").len(), 1);
        assert_eq!(store.search("surveying").len(), 0);
        assert!(store.get(&pkg).is_some());
    }

    #[test]
    fn bad_manifests_are_rejected() {
        let mut store = AppStore::new();
        assert!(store.publish("<oops/>", "broken").is_err());
        assert!(store.listings.is_empty());
    }
}

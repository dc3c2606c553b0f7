//! General cloud file storage.
//!
//! After a flight, files apps marked via `markFileForUser()` are
//! offloaded here; the user is emailed a link and retrieves them on
//! demand (paper Figure 4).

use std::collections::BTreeMap;

use bytes::Bytes;

/// A stored flight artifact.
#[derive(Debug, Clone)]
pub struct StoredFile {
    /// Path as the app named it on the drone.
    pub path: String,
    /// File contents.
    pub data: Bytes,
    /// Flight the file came from.
    pub flight_id: u64,
}

/// Per-user cloud storage.
#[derive(Debug, Default)]
pub struct CloudStorage {
    files: BTreeMap<String, Vec<StoredFile>>,
}

impl CloudStorage {
    /// Creates empty storage.
    pub fn new() -> Self {
        CloudStorage::default()
    }

    /// Offloads one file for a user, returning the retrieval link.
    pub fn offload(
        &mut self,
        user: &str,
        flight_id: u64,
        path: impl Into<String>,
        data: impl Into<Bytes>,
    ) -> String {
        let path = path.into();
        let link = format!("https://androne.cloud/files/{user}/{flight_id}{path}");
        self.files
            .entry(user.to_string())
            .or_default()
            .push(StoredFile {
                path,
                data: data.into(),
                flight_id,
            });
        link
    }

    /// Lists a user's files.
    pub fn list(&self, user: &str) -> &[StoredFile] {
        self.files.get(user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Retrieves one file by path.
    pub fn fetch(&self, user: &str, path: &str) -> Option<Bytes> {
        self.files
            .get(user)?
            .iter()
            .find(|f| f.path == path)
            .map(|f| f.data.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_and_fetch() {
        let mut s = CloudStorage::new();
        let link = s.offload("alice", 7, "/data/out/ortho.tif", &b"tiff-bytes"[..]);
        assert!(link.contains("alice"));
        assert!(link.contains("/data/out/ortho.tif"));
        assert_eq!(
            s.fetch("alice", "/data/out/ortho.tif").unwrap(),
            Bytes::from_static(b"tiff-bytes")
        );
        assert_eq!(s.list("alice").len(), 1);
        assert!(s.fetch("bob", "/data/out/ortho.tif").is_none());
    }
}

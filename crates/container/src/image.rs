//! Layered container images.
//!
//! Virtual drone containers are managed Docker-style (paper Section
//! 4.1): each consists of common *read-only base layers* shared across
//! virtual drones plus a private *writable layer* on top. A stored
//! virtual drone therefore costs only its diff from the base image,
//! which is what makes keeping many virtual drones in the cloud-side
//! VDR cheap.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use crate::error::ContainerError;

/// A content-derived layer identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerId(pub u64);

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer:{:016x}", self.0)
    }
}

/// One change a layer applies to a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileChange {
    /// The path exists with these contents.
    Write(Bytes),
    /// The path is deleted (an overlayfs-style whiteout).
    Whiteout,
}

impl FileChange {
    /// Bytes this change contributes to layer size.
    pub fn size(&self) -> u64 {
        match self {
            FileChange::Write(b) => b.len() as u64,
            FileChange::Whiteout => 0,
        }
    }
}

/// An immutable filesystem layer: a map from path to change.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Layer {
    changes: BTreeMap<String, FileChange>,
}

impl Layer {
    /// Creates an empty layer.
    pub fn new() -> Self {
        Layer::default()
    }

    /// Builds a layer from `(path, contents)` pairs.
    pub fn from_files<I, P, B>(files: I) -> Self
    where
        I: IntoIterator<Item = (P, B)>,
        P: Into<String>,
        B: Into<Bytes>,
    {
        let mut layer = Layer::new();
        for (p, b) in files {
            layer.write(p, b);
        }
        layer
    }

    /// Records a file write.
    pub fn write(&mut self, path: impl Into<String>, contents: impl Into<Bytes>) {
        self.changes
            .insert(path.into(), FileChange::Write(contents.into()));
    }

    /// Records a deletion (whiteout).
    pub fn whiteout(&mut self, path: impl Into<String>) {
        self.changes.insert(path.into(), FileChange::Whiteout);
    }

    /// Looks up the change for a path, if any.
    pub fn get(&self, path: &str) -> Option<&FileChange> {
        self.changes.get(path)
    }

    /// Mutable access to the change for a path, if any: rewrites a
    /// recorded file without re-allocating its path.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut FileChange> {
        self.changes.get_mut(path)
    }

    /// Iterates over all changes.
    pub fn changes(&self) -> impl Iterator<Item = (&str, &FileChange)> {
        self.changes.iter().map(|(p, c)| (p.as_str(), c))
    }

    /// Number of changed paths.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the layer changes nothing.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Total payload size in bytes.
    pub fn size(&self) -> u64 {
        self.changes.values().map(FileChange::size).sum()
    }

    /// Content-derived identifier (FNV-1a over paths and contents).
    ///
    /// Identical layer contents always hash identically, which is what
    /// lets the [`ImageStore`] deduplicate shared base layers.
    pub fn id(&self) -> LayerId {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for (path, change) in &self.changes {
            eat(path.as_bytes());
            match change {
                FileChange::Write(b) => {
                    eat(&[1]);
                    eat(b);
                }
                FileChange::Whiteout => eat(&[0]),
            }
        }
        LayerId(h)
    }
}

/// An ordered stack of layers, bottom first.
#[derive(Debug, Clone, Default)]
pub struct Image {
    layers: Vec<Arc<Layer>>,
}

impl Image {
    /// Creates an empty image.
    pub fn new() -> Self {
        Image::default()
    }

    /// Creates an image from a single base layer.
    pub fn from_base(base: Layer) -> Self {
        Image {
            layers: vec![Arc::new(base)],
        }
    }

    /// Appends a layer on top.
    pub fn push_layer(&mut self, layer: Arc<Layer>) {
        self.layers.push(layer);
    }

    /// The layer stack, bottom first.
    pub fn layers(&self) -> &[Arc<Layer>] {
        &self.layers
    }

    /// Resolves the effective contents of `path` through the stack.
    pub fn resolve(&self, path: &str) -> Option<Bytes> {
        for layer in self.layers.iter().rev() {
            match layer.get(path) {
                Some(FileChange::Write(b)) => return Some(b.clone()),
                Some(FileChange::Whiteout) => return None,
                None => continue,
            }
        }
        None
    }

    /// Lists every visible path in the flattened view.
    pub fn paths(&self) -> Vec<String> {
        let mut seen: BTreeMap<&str, bool> = BTreeMap::new();
        for layer in self.layers.iter().rev() {
            for (path, change) in layer.changes() {
                seen.entry(path)
                    .or_insert(matches!(change, FileChange::Write(_)));
            }
        }
        seen.into_iter()
            .filter(|(_, visible)| *visible)
            .map(|(p, _)| p.to_string())
            .collect()
    }

    /// Flattens the stack into a single layer (used when exporting a
    /// self-contained virtual drone definition).
    pub fn flatten(&self) -> Layer {
        let mut flat = Layer::new();
        for path in self.paths() {
            if let Some(contents) = self.resolve(&path) {
                flat.write(path, contents);
            }
        }
        flat
    }
}

/// A deduplicating store of layers, with named image tags.
///
/// Stored size counts each distinct layer once, no matter how many
/// images reference it — the property the paper relies on for cheap
/// virtual drone storage.
#[derive(Debug, Default)]
pub struct ImageStore {
    layers: BTreeMap<LayerId, Arc<Layer>>,
    tags: BTreeMap<String, Vec<LayerId>>,
}

impl ImageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ImageStore::default()
    }

    /// Inserts a layer (deduplicated by content id) and returns its id.
    pub fn put_layer(&mut self, layer: Layer) -> LayerId {
        let id = layer.id();
        self.layers.entry(id).or_insert_with(|| Arc::new(layer));
        id
    }

    /// Tags an ordered stack of stored layers as a named image.
    pub fn tag(
        &mut self,
        name: impl Into<String>,
        stack: Vec<LayerId>,
    ) -> Result<(), ContainerError> {
        for id in &stack {
            if !self.layers.contains_key(id) {
                return Err(ContainerError::UnknownLayer(*id));
            }
        }
        self.tags.insert(name.into(), stack);
        Ok(())
    }

    /// Materializes a tagged image.
    pub fn image(&self, name: &str) -> Result<Image, ContainerError> {
        let stack = self
            .tags
            .get(name)
            .ok_or_else(|| ContainerError::UnknownImage(name.to_string()))?;
        let mut image = Image::new();
        for id in stack {
            let layer = self
                .layers
                .get(id)
                .ok_or(ContainerError::UnknownLayer(*id))?;
            image.push_layer(Arc::clone(layer));
        }
        Ok(image)
    }

    /// Looks up a stored layer by id (used to reconstruct an
    /// archive's base stack from locally present shared layers).
    pub fn image_for_layer(&self, id: LayerId) -> Result<Arc<Layer>, ContainerError> {
        self.layers
            .get(&id)
            .cloned()
            .ok_or(ContainerError::UnknownLayer(id))
    }

    /// Total stored bytes (each distinct layer counted once).
    pub fn stored_bytes(&self) -> u64 {
        self.layers.values().map(|l| l.size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Layer {
        Layer::from_files([
            ("/system/framework.jar", "framework-code"),
            ("/system/app/launcher.apk", "launcher"),
            ("/etc/init.rc", "services"),
        ])
    }

    #[test]
    fn resolve_respects_layer_order() {
        let mut img = Image::from_base(base());
        let mut top = Layer::new();
        top.write("/etc/init.rc", "patched");
        img.push_layer(Arc::new(top));
        assert_eq!(img.resolve("/etc/init.rc").unwrap(), Bytes::from("patched"));
        assert_eq!(
            img.resolve("/system/app/launcher.apk").unwrap(),
            Bytes::from("launcher")
        );
    }

    #[test]
    fn whiteout_hides_lower_layers() {
        let mut img = Image::from_base(base());
        let mut top = Layer::new();
        top.whiteout("/system/app/launcher.apk");
        img.push_layer(Arc::new(top));
        assert_eq!(img.resolve("/system/app/launcher.apk"), None);
        assert!(!img
            .paths()
            .contains(&"/system/app/launcher.apk".to_string()));
    }

    #[test]
    fn flatten_equals_resolved_view() {
        let mut img = Image::from_base(base());
        let mut top = Layer::new();
        top.write("/data/app/survey.apk", "survey");
        top.whiteout("/etc/init.rc");
        img.push_layer(Arc::new(top));
        let flat = img.flatten();
        for path in img.paths() {
            assert_eq!(
                Some(img.resolve(&path).unwrap()),
                flat.get(&path).and_then(|c| match c {
                    FileChange::Write(b) => Some(b.clone()),
                    FileChange::Whiteout => None,
                })
            );
        }
        assert!(flat.get("/etc/init.rc").is_none());
    }

    #[test]
    fn layer_ids_are_content_addressed() {
        assert_eq!(base().id(), base().id());
        let mut other = base();
        other.write("/x", "y");
        assert_ne!(base().id(), other.id());
    }

    #[test]
    fn store_deduplicates_shared_base_layers() {
        let mut store = ImageStore::new();
        let base_id = store.put_layer(base());
        let base_size = base().size();

        // Three virtual drones share the base; each adds a small diff.
        let mut total_diffs = 0;
        for i in 0..3 {
            let mut diff = Layer::new();
            diff.write(format!("/data/vd{i}"), "state");
            total_diffs += diff.size();
            let diff_id = store.put_layer(diff);
            store
                .tag(format!("vdrone-{i}"), vec![base_id, diff_id])
                .unwrap();
        }
        assert_eq!(store.stored_bytes(), base_size + total_diffs);
        assert_eq!(store.layers.len(), 4);
    }

    #[test]
    fn tagging_unknown_layer_fails() {
        let mut store = ImageStore::new();
        let err = store.tag("x", vec![LayerId(123)]).unwrap_err();
        assert!(matches!(err, ContainerError::UnknownLayer(_)));
    }

    #[test]
    fn unknown_image_lookup_fails() {
        let store = ImageStore::new();
        assert!(matches!(
            store.image("missing"),
            Err(ContainerError::UnknownImage(_))
        ));
    }
}

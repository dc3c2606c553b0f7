//! Per-container union filesystem.
//!
//! A running container sees its image's read-only layers with a
//! private writable layer on top (overlayfs semantics). `diff()`
//! extracts exactly the writable layer, which is what the VDC ships to
//! the VDR when a virtual drone is saved for a later flight.

use bytes::Bytes;

use crate::image::{FileChange, Image, Layer};

/// A container's mutable filesystem view.
#[derive(Debug, Clone)]
pub struct ContainerFs {
    image: Image,
    upper: Layer,
}

impl ContainerFs {
    /// Mounts a filesystem over an image with an empty writable layer.
    pub fn mount(image: Image) -> Self {
        ContainerFs {
            image,
            upper: Layer::new(),
        }
    }

    /// Mounts with a pre-existing writable layer (resuming a stored
    /// virtual drone).
    pub fn mount_with_upper(image: Image, upper: Layer) -> Self {
        ContainerFs { image, upper }
    }

    /// Reads a file through the union view.
    pub fn read(&self, path: &str) -> Option<Bytes> {
        match self.upper.get(path) {
            Some(FileChange::Write(b)) => Some(b.clone()),
            Some(FileChange::Whiteout) => None,
            None => self.image.resolve(path),
        }
    }

    /// Writes a file into the writable layer.
    pub fn write(&mut self, path: impl Into<String>, contents: impl Into<Bytes>) {
        self.upper.write(path, contents);
    }

    /// Returns `true` if the path is visible.
    pub fn exists(&self, path: &str) -> bool {
        self.read(path).is_some()
    }

    /// Lists visible paths, lower layers included.
    pub fn paths(&self) -> Vec<String> {
        let mut full = self.image.clone();
        full.push_layer(std::sync::Arc::new(self.upper.clone()));
        full.paths()
    }

    /// The writable layer: everything this container changed.
    pub fn diff(&self) -> &Layer {
        &self.upper
    }

    /// The read-only image layers below the writable layer.
    pub fn image_layers(&self) -> &[std::sync::Arc<Layer>] {
        self.image.layers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Layer;

    fn fs() -> ContainerFs {
        let base = Layer::from_files([("/system/build.prop", "android-things-1.0.3")]);
        ContainerFs::mount(Image::from_base(base))
    }

    #[test]
    fn reads_fall_through_to_image() {
        let fs = fs();
        assert_eq!(
            fs.read("/system/build.prop").unwrap(),
            Bytes::from("android-things-1.0.3")
        );
    }

    #[test]
    fn writes_shadow_the_image() {
        let mut fs = fs();
        fs.write("/system/build.prop", "modified");
        assert_eq!(
            fs.read("/system/build.prop").unwrap(),
            Bytes::from("modified")
        );
        assert_eq!(fs.diff().len(), 1, "only the write lands in the diff");
    }

    #[test]
    fn delete_whiteouts_image_files() {
        let mut fs = fs();
        fs.upper.whiteout("/system/build.prop");
        assert!(!fs.exists("/system/build.prop"));
    }

    #[test]
    fn diff_round_trips_through_remount() {
        let mut fs = fs();
        fs.write("/data/state.json", "{\"wp\":2}");
        fs.upper.whiteout("/system/build.prop");
        let resumed = ContainerFs::mount_with_upper(fs.image, fs.upper);
        assert_eq!(
            resumed.read("/data/state.json").unwrap(),
            Bytes::from("{\"wp\":2}")
        );
        assert!(!resumed.exists("/system/build.prop"));
    }

    #[test]
    fn private_bytes_counts_only_upper() {
        let mut fs = fs();
        assert_eq!(fs.diff().size(), 0);
        fs.write("/data/a", "12345");
        assert_eq!(fs.diff().size(), 5);
    }
}

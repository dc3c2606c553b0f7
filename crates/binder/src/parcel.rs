//! Parcels: Binder's transaction payload container.
//!
//! A parcel is an ordered sequence of typed values. Two value kinds
//! receive kernel translation when a parcel crosses a process
//! boundary: binder object references (handles are per-process) and
//! file descriptors (fd numbers are per-process). The paper relies on
//! both: device services hand virtual drone apps service references
//! and shared-memory/stream fds entirely through parcels, which is
//! what lets the device container multiplex hardware without any
//! per-device kernel support.
//!
//! Storage is copy-on-write: `clone()` shares the value buffer and
//! the first mutation of a shared parcel copies it. The echo/reply
//! idiom (`data.clone()` + a few pushes) therefore costs one
//! refcount bump plus a copy only when the reply diverges, and
//! parcels fanned out to many readers share one buffer. The parcel
//! also caches its object-reference count and wire size, so the
//! driver can skip translation entirely for scalar-only payloads —
//! the common case for sensor and telemetry traffic.

use std::rc::Rc;

use bytes::Bytes;

use crate::error::BinderError;

/// One typed value in a parcel.
#[derive(Debug, Clone, PartialEq)]
pub enum PValue {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// Double-precision float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Blob(Bytes),
    /// A binder object reference. The numeric value is a *handle in
    /// the space of whichever process currently holds the parcel*;
    /// the driver rewrites it in flight.
    Binder(u32),
    /// A file descriptor, likewise rewritten in flight.
    Fd(u32),
}

impl PValue {
    fn wire_size(&self) -> usize {
        match self {
            PValue::I32(_) => 4,
            PValue::I64(_) | PValue::F64(_) => 8,
            PValue::Str(s) => 4 + s.len(),
            PValue::Blob(b) => 4 + b.len(),
            PValue::Binder(_) | PValue::Fd(_) => 16,
        }
    }

    fn is_object_ref(&self) -> bool {
        matches!(self, PValue::Binder(_) | PValue::Fd(_))
    }
}

/// An ordered, cursor-read sequence of typed values with
/// copy-on-write storage.
#[derive(Debug, Clone, Default)]
pub struct Parcel {
    values: Rc<Vec<PValue>>,
    /// Cached count of Binder/Fd values (what translation rewrites).
    objrefs: u32,
    /// Cached wire size of all values.
    wire: usize,
}

impl PartialEq for Parcel {
    fn eq(&self, other: &Self) -> bool {
        // The caches are derived from the values, so equality is
        // value equality (Rc::ptr_eq shortcuts the shared case).
        Rc::ptr_eq(&self.values, &other.values) || self.values == other.values
    }
}

impl Parcel {
    /// Creates an empty parcel.
    pub fn new() -> Self {
        Parcel::default()
    }

    fn push(&mut self, v: PValue) -> &mut Self {
        self.wire += v.wire_size();
        if v.is_object_ref() {
            self.objrefs += 1;
        }
        Rc::make_mut(&mut self.values).push(v);
        self
    }

    /// Appends an i32.
    pub fn push_i32(&mut self, v: i32) -> &mut Self {
        self.push(PValue::I32(v))
    }

    /// Appends an i64.
    pub fn push_i64(&mut self, v: i64) -> &mut Self {
        self.push(PValue::I64(v))
    }

    /// Appends an f64.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push(PValue::F64(v))
    }

    /// Appends a string.
    pub fn push_str(&mut self, v: impl Into<String>) -> &mut Self {
        self.push(PValue::Str(v.into()))
    }

    /// Appends raw bytes.
    pub fn push_blob(&mut self, v: impl Into<Bytes>) -> &mut Self {
        self.push(PValue::Blob(v.into()))
    }

    /// Appends a binder reference (a handle valid in the *writing*
    /// process's handle table).
    pub fn push_binder(&mut self, handle: u32) -> &mut Self {
        self.push(PValue::Binder(handle))
    }

    /// Appends a file descriptor (valid in the writing process).
    pub fn push_fd(&mut self, fd: u32) -> &mut Self {
        self.push(PValue::Fd(fd))
    }

    /// Reads the value at `index` as i32.
    pub fn i32_at(&self, index: usize) -> Result<i32, BinderError> {
        match self.values.get(index) {
            Some(PValue::I32(v)) => Ok(*v),
            Some(_) => Err(BinderError::BadParcel("expected i32")),
            None => Err(BinderError::BadParcel("index out of bounds")),
        }
    }

    /// Reads the value at `index` as i64.
    pub fn i64_at(&self, index: usize) -> Result<i64, BinderError> {
        match self.values.get(index) {
            Some(PValue::I64(v)) => Ok(*v),
            Some(_) => Err(BinderError::BadParcel("expected i64")),
            None => Err(BinderError::BadParcel("index out of bounds")),
        }
    }

    /// Reads the value at `index` as f64.
    pub fn f64_at(&self, index: usize) -> Result<f64, BinderError> {
        match self.values.get(index) {
            Some(PValue::F64(v)) => Ok(*v),
            Some(_) => Err(BinderError::BadParcel("expected f64")),
            None => Err(BinderError::BadParcel("index out of bounds")),
        }
    }

    /// Reads the value at `index` as a string slice.
    pub fn str_at(&self, index: usize) -> Result<&str, BinderError> {
        match self.values.get(index) {
            Some(PValue::Str(v)) => Ok(v),
            Some(_) => Err(BinderError::BadParcel("expected str")),
            None => Err(BinderError::BadParcel("index out of bounds")),
        }
    }

    /// Reads the value at `index` as bytes.
    pub fn blob_at(&self, index: usize) -> Result<Bytes, BinderError> {
        match self.values.get(index) {
            Some(PValue::Blob(v)) => Ok(v.clone()),
            Some(_) => Err(BinderError::BadParcel("expected blob")),
            None => Err(BinderError::BadParcel("index out of bounds")),
        }
    }

    /// Reads the value at `index` as a binder handle (in the reading
    /// process's space, after kernel translation).
    pub fn binder_at(&self, index: usize) -> Result<u32, BinderError> {
        match self.values.get(index) {
            Some(PValue::Binder(v)) => Ok(*v),
            Some(_) => Err(BinderError::BadParcel("expected binder")),
            None => Err(BinderError::BadParcel("index out of bounds")),
        }
    }

    /// Reads the value at `index` as a file descriptor.
    pub fn fd_at(&self, index: usize) -> Result<u32, BinderError> {
        match self.values.get(index) {
            Some(PValue::Fd(v)) => Ok(*v),
            Some(_) => Err(BinderError::BadParcel("expected fd")),
            None => Err(BinderError::BadParcel("index out of bounds")),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the parcel is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates the raw values.
    pub fn values(&self) -> &[PValue] {
        &self.values
    }

    /// Whether any value needs kernel translation (binder handle or
    /// fd). False means the driver's no-translation fast path
    /// applies.
    pub fn has_object_refs(&self) -> bool {
        self.objrefs > 0
    }

    /// Whether two parcels share the same copy-on-write buffer
    /// (diagnostics: asserts both sharing and non-aliasing in tests).
    pub fn shares_storage_with(&self, other: &Parcel) -> bool {
        Rc::ptr_eq(&self.values, &other.values)
    }

    /// Mutable access to the raw values, used by the driver to
    /// rewrite handles/fds in flight. Copies the buffer first if it
    /// is shared.
    ///
    /// Invariant: callers may rewrite the *numbers* inside
    /// `PValue::Binder` / `PValue::Fd` but must not change any
    /// value's kind or payload length — the cached object-ref count
    /// and wire size are not recomputed.
    pub(crate) fn values_mut(&mut self) -> &mut Vec<PValue> {
        Rc::make_mut(&mut self.values)
    }

    /// Approximate on-wire size in bytes (for accounting). Cached at
    /// write time: O(1).
    pub fn wire_size(&self) -> usize {
        self.wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_round_trip() {
        let mut p = Parcel::new();
        p.push_i32(-7)
            .push_i64(1 << 40)
            .push_f64(2.5)
            .push_str("camera")
            .push_blob(&b"frame"[..])
            .push_binder(3)
            .push_fd(9);
        assert_eq!(p.i32_at(0).unwrap(), -7);
        assert_eq!(p.i64_at(1).unwrap(), 1 << 40);
        assert_eq!(p.f64_at(2).unwrap(), 2.5);
        assert_eq!(p.str_at(3).unwrap(), "camera");
        assert_eq!(p.blob_at(4).unwrap(), Bytes::from_static(b"frame"));
        assert_eq!(p.binder_at(5).unwrap(), 3);
        assert_eq!(p.fd_at(6).unwrap(), 9);
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut p = Parcel::new();
        p.push_str("x");
        assert!(matches!(p.i32_at(0), Err(BinderError::BadParcel(_))));
        assert!(matches!(p.str_at(5), Err(BinderError::BadParcel(_))));
    }

    #[test]
    fn wire_size_accounts_payloads() {
        let mut p = Parcel::new();
        p.push_str("ab").push_blob(&b"xyz"[..]).push_i32(0);
        assert_eq!(p.wire_size(), (4 + 2) + (4 + 3) + 4);
    }

    #[test]
    fn clone_shares_until_written() {
        let mut p = Parcel::new();
        p.push_str("shared").push_i32(1);
        let mut q = p.clone();
        assert!(p.shares_storage_with(&q));
        assert_eq!(p, q);

        q.push_i32(2);
        assert!(!p.shares_storage_with(&q), "write must unshare");
        assert_eq!(p.len(), 2, "original untouched");
        assert_eq!(q.len(), 3);
        assert_eq!(q.i32_at(2).unwrap(), 2);
    }

    #[test]
    fn object_ref_tracking() {
        let mut p = Parcel::new();
        p.push_i32(1).push_str("scalar only");
        assert!(!p.has_object_refs());
        p.push_binder(4);
        assert!(p.has_object_refs());

        let mut q = Parcel::new();
        q.push_fd(7);
        assert!(q.has_object_refs());
    }

    #[test]
    fn wire_size_is_preserved_across_clone_and_rewrite() {
        let mut p = Parcel::new();
        p.push_binder(1).push_blob(&b"abcd"[..]);
        let size = p.wire_size();
        let mut q = p.clone();
        assert_eq!(q.wire_size(), size);
        // Simulate the driver rewriting a handle number in flight.
        if let Some(PValue::Binder(h)) = q.values_mut().first_mut() {
            *h = 99;
        }
        assert_eq!(q.wire_size(), size);
        assert!(q.has_object_refs());
        assert_eq!(p.binder_at(0).unwrap(), 1, "COW kept original intact");
        assert_eq!(q.binder_at(0).unwrap(), 99);
    }
}

//! File descriptions passable through Binder.
//!
//! Device services communicate bulk data (camera frames, audio) to
//! apps by sharing a file descriptor inside a Binder message (paper
//! Section 4.2: "fully encapsulated in Binder messages or by using a
//! file descriptor shared via a Binder message"). The kernel-side
//! object here is a [`FileDescription`]; per-process fd numbers map to
//! shared references to it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;

/// The backing object behind a shared file descriptor.
#[derive(Debug, Clone)]
pub enum FilePayload {
    /// Anonymous shared memory (ashmem), e.g. a sensor sample ring.
    Shmem(Rc<RefCell<Vec<u8>>>),
    /// A byte-message stream, e.g. a camera frame queue.
    Stream(Rc<RefCell<VecDeque<Bytes>>>),
    /// An immutable blob, e.g. a file handed to an app.
    Plain(Bytes),
}

/// A kernel file description (the thing fd numbers point at).
#[derive(Debug, Clone)]
pub struct FileDescription {
    /// Human-readable label for diagnostics ("camera0-stream").
    pub label: String,
    /// The shared payload.
    pub payload: FilePayload,
}

/// Shared reference to a file description; duplicating an fd clones
/// this reference, exactly like `dup()` semantics.
pub type FileRef = Rc<FileDescription>;

/// Creates a stream-backed file description and returns both the
/// reference and the producer-side queue handle.
pub fn new_stream(label: impl Into<String>) -> (FileRef, Rc<RefCell<VecDeque<Bytes>>>) {
    let queue = Rc::new(RefCell::new(VecDeque::new()));
    let file = Rc::new(FileDescription {
        label: label.into(),
        payload: FilePayload::Stream(Rc::clone(&queue)),
    });
    (file, queue)
}

/// Creates a shared-memory-backed file description and returns both
/// the reference and the memory handle.
pub fn new_shmem(label: impl Into<String>, size: usize) -> (FileRef, Rc<RefCell<Vec<u8>>>) {
    let mem = Rc::new(RefCell::new(vec![0u8; size]));
    let file = Rc::new(FileDescription {
        label: label.into(),
        payload: FilePayload::Shmem(Rc::clone(&mem)),
    });
    (file, mem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_shared_between_producer_and_fd_holder() {
        let (file, producer) = new_stream("camera0");
        producer
            .borrow_mut()
            .push_back(Bytes::from_static(b"frame1"));
        match &file.payload {
            FilePayload::Stream(q) => {
                assert_eq!(
                    q.borrow_mut().pop_front().unwrap(),
                    Bytes::from_static(b"frame1")
                );
            }
            _ => panic!("expected stream"),
        }
    }

    #[test]
    fn shmem_writes_are_visible_through_the_fd() {
        let (file, mem) = new_shmem("imu-ring", 8);
        mem.borrow_mut()[0] = 42;
        match &file.payload {
            FilePayload::Shmem(m) => assert_eq!(m.borrow()[0], 42),
            _ => panic!("expected shmem"),
        }
    }
}

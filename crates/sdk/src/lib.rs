//! # androne-sdk
//!
//! The AnDrone SDK (paper Section 5): the small API AnDrone apps use
//! to learn about AnDrone-specific events and interact with the
//! service. Mirrors the paper's Figure 7 methods and Figure 8
//! `WaypointListener` callbacks. The same functionality is exposed to
//! advanced users through a command-line utility ([`cli`]).

pub mod cli;
pub mod listener;
pub mod retry;
pub mod sdk;

pub use cli::run_command;
pub use listener::{RecordingListener, WaypointListener};
pub use retry::{retry_with_backoff, Backpressure, RetryFailure, RetryPolicy};
pub use sdk::AndroneSdk;

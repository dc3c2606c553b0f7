//! MAVLink error types.

use std::fmt;

/// Errors surfaced by the MAVLink codec and connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MavError {
    /// Unknown message id on the wire.
    UnknownMessage(u8),
    /// Unknown MAV_CMD id.
    UnknownCommand(u16),
    /// Unknown flight mode number.
    UnknownMode(u32),
    /// Frame or payload failed structural validation.
    Malformed(String),
    /// Frame shorter than its declared layout (attacker-controlled
    /// length fields are rejected, never used to index).
    Truncated {
        /// Bytes the declared layout requires.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Checksum mismatch.
    BadChecksum {
        /// CRC computed from the frame contents.
        computed: u16,
        /// CRC carried in the frame.
        received: u16,
    },
}

impl fmt::Display for MavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MavError::UnknownMessage(id) => write!(f, "unknown message id {id}"),
            MavError::UnknownCommand(id) => write!(f, "unknown MAV_CMD {id}"),
            MavError::UnknownMode(m) => write!(f, "unknown flight mode {m}"),
            MavError::Malformed(why) => write!(f, "malformed frame: {why}"),
            MavError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            MavError::BadChecksum { computed, received } => {
                write!(
                    f,
                    "bad checksum: computed {computed:04x}, received {received:04x}"
                )
            }
        }
    }
}

impl std::error::Error for MavError {}

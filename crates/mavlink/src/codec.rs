//! MAVLink v1 wire framing.
//!
//! Frame layout: `0xFE len seq sysid compid msgid payload crc_lo
//! crc_hi`, with the X.25 checksum computed over `len..payload` plus
//! the per-message CRC_EXTRA byte. The parser is an incremental state
//! machine that resynchronizes on the 0xFE start byte, so corrupted
//! streams drop frames rather than wedging the link.

use crate::crc::{accumulate, CRC_INIT};
use crate::error::MavError;
use crate::message::Message;
use crate::wire;

/// MAVLink v1 start-of-frame marker.
pub const STX: u8 = 0xFE;

/// Longest payload any [`Message`] encodes (STATUSTEXT: severity,
/// length and 50 text bytes).
const MAX_PAYLOAD_LEN: usize = 52;

/// A framed message with routing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Per-link sequence number.
    pub seq: u8,
    /// Sending system id.
    pub sysid: u8,
    /// Sending component id.
    pub compid: u8,
    /// The message.
    pub msg: Message,
}

impl Frame {
    /// Serializes the frame to wire bytes. The payload is encoded in
    /// place after the header, so a frame costs one allocation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + MAX_PAYLOAD_LEN);
        out.push(STX);
        out.push(0); // Length, patched once the payload is in place.
        out.push(self.seq);
        out.push(self.sysid);
        out.push(self.compid);
        out.push(self.msg.msg_id());
        self.msg.encode_payload_into(&mut out);
        out[1] = wire::len8(out.len() - 6);
        let mut crc = CRC_INIT;
        for &b in &out[1..] {
            crc = accumulate(crc, b);
        }
        crc = accumulate(crc, self.msg.own_crc_extra());
        out.push(wire::lo8(crc));
        out.push(wire::hi8(crc));
        out
    }
}

/// Incremental frame parser.
///
/// Consumed bytes are tracked with a read cursor instead of
/// `Vec::drain`: draining the front of the buffer memmoves the whole
/// tail for every frame, turning a burst of n frames into O(n²) byte
/// moves. The cursor makes each frame O(frame length), with the
/// buffer compacted once it is mostly dead space.
#[derive(Debug, Default)]
pub struct Parser {
    buf: Vec<u8>,
    /// Read cursor: bytes before this offset are consumed.
    pos: usize,
    /// Frames dropped due to checksum or structural errors.
    dropped: u64,
}

/// Compact once consumed bytes exceed this many and dominate the
/// buffer (amortizes the memmove over many frames).
const COMPACT_THRESHOLD: usize = 4096;

impl Parser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Parser::default()
    }

    /// Frames dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes buffered but not yet consumed (diagnostics/tests).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD && self.pos >= self.buf.len() / 2 {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
    }

    /// Feeds bytes, returning every complete frame decoded.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Frame> {
        self.buf.extend_from_slice(bytes);
        let mut frames = Vec::new();
        loop {
            let pending = &self.buf[self.pos..];
            // Resync: skip garbage before the next STX.
            match pending.iter().position(|&b| b == STX) {
                Some(0) => {}
                Some(i) => {
                    self.pos += i;
                }
                None => {
                    // No frame start anywhere: everything is consumed.
                    self.buf.clear();
                    self.pos = 0;
                    break;
                }
            }
            let pending = &self.buf[self.pos..];
            if pending.len() < 8 {
                break;
            }
            let len = usize::from(pending[1]);
            let total = 8 + len;
            if pending.len() < total {
                break;
            }
            match decode_frame(&pending[..total]) {
                Ok(frame) => frames.push(frame),
                Err(_) => {
                    self.dropped += 1;
                    // The consumed bytes are discarded; parsing
                    // continues at the next STX.
                }
            }
            self.pos += total;
        }
        self.compact();
        frames
    }
}

fn decode_frame(b: &[u8]) -> Result<Frame, MavError> {
    // The length byte is attacker-controlled: every derived offset is
    // bounds-checked with `get`, never indexed (dronelint R3/R4).
    let truncated = |needed: usize| MavError::Truncated {
        needed,
        got: b.len(),
    };
    let header = b.get(..6).ok_or_else(|| truncated(8))?;
    debug_assert_eq!(header[0], STX);
    let len = usize::from(header[1]);
    let (seq, sysid, compid, msg_id) = (header[2], header[3], header[4], header[5]);
    let payload = b.get(6..6 + len).ok_or_else(|| truncated(8 + len))?;
    let crc_lo = *b.get(6 + len).ok_or_else(|| truncated(8 + len))?;
    let crc_hi = *b.get(7 + len).ok_or_else(|| truncated(8 + len))?;
    let received = u16::from(crc_lo) | (u16::from(crc_hi) << 8);

    let mut crc = CRC_INIT;
    for &x in &b[1..6 + len] {
        crc = accumulate(crc, x);
    }
    crc = accumulate(crc, Message::crc_extra(msg_id)?);
    if crc != received {
        return Err(MavError::BadChecksum {
            computed: crc,
            received,
        });
    }
    Ok(Frame {
        seq,
        sysid,
        compid,
        msg: Message::decode_payload(msg_id, payload)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::FlightMode;

    fn heartbeat(seq: u8) -> Frame {
        Frame {
            seq,
            sysid: 1,
            compid: 1,
            msg: Message::Heartbeat {
                mode: FlightMode::Loiter,
                armed: true,
                system_status: 4,
            },
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = heartbeat(7);
        let mut parser = Parser::new();
        let out = parser.push(&frame.encode());
        assert_eq!(out, vec![frame]);
    }

    #[test]
    fn split_delivery_reassembles() {
        let frame = heartbeat(1);
        let bytes = frame.encode();
        let mut parser = Parser::new();
        assert!(parser.push(&bytes[..3]).is_empty());
        assert!(parser.push(&bytes[3..7]).is_empty());
        let out = parser.push(&bytes[7..]);
        assert_eq!(out, vec![frame]);
    }

    #[test]
    fn garbage_before_frame_is_skipped() {
        let frame = heartbeat(2);
        let mut stream = vec![0x00, 0x13, 0x37];
        stream.extend(frame.encode());
        let mut parser = Parser::new();
        let out = parser.push(&stream);
        assert_eq!(out, vec![frame]);
        assert_eq!(parser.dropped(), 0);
    }

    #[test]
    fn corrupted_crc_drops_frame_and_resyncs() {
        let a = heartbeat(1);
        let b = heartbeat(2);
        let mut bytes = a.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // Corrupt CRC of the first frame.
        bytes.extend(b.encode());
        let mut parser = Parser::new();
        let out = parser.push(&bytes);
        assert_eq!(out, vec![b], "second frame survives");
        assert_eq!(parser.dropped(), 1);
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let frame = heartbeat(3);
        let mut bytes = frame.encode();
        bytes[7] ^= 0x55; // Flip payload bits; CRC now mismatches.
        let mut parser = Parser::new();
        assert!(parser.push(&bytes).is_empty());
        assert_eq!(parser.dropped(), 1);
    }

    #[test]
    fn back_to_back_frames_all_decode() {
        let mut bytes = Vec::new();
        for i in 0..10 {
            bytes.extend(heartbeat(i).encode());
        }
        let mut parser = Parser::new();
        let out = parser.push(&bytes);
        assert_eq!(out.len(), 10);
        assert_eq!(out[9].seq, 9);
    }

    #[test]
    fn cursor_buffer_does_not_accumulate_consumed_bytes() {
        let mut parser = Parser::new();
        // Large bursts: everything consumed, nothing retained.
        for round in 0..50u32 {
            let mut bytes = Vec::new();
            for i in 0..100 {
                bytes.extend(heartbeat((round as usize + i) as u8).encode());
            }
            let out = parser.push(&bytes);
            assert_eq!(out.len(), 100);
            assert_eq!(parser.pending(), 0, "no dead bytes retained");
        }
        // A partial frame stays pending until completed.
        let frame = heartbeat(0);
        let bytes = frame.encode();
        parser.push(&bytes[..5]);
        assert_eq!(parser.pending(), 5);
        let out = parser.push(&bytes[5..]);
        assert_eq!(out, vec![frame]);
        assert_eq!(parser.pending(), 0);
    }
}

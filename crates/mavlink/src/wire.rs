//! Audited narrowing helpers for the wire path.
//!
//! The codec and CRC modules are banned from bare `as` numeric casts
//! (dronelint R4): a silent truncation there corrupts frames built
//! from attacker-controlled lengths instead of rejecting them. The
//! few narrowings the wire format genuinely needs live here, where
//! each one states its invariant and masks explicitly.

/// Low byte of a `u16` (the CRC's little-endian first byte).
pub const fn lo8(v: u16) -> u8 {
    (v & 0x00FF) as u8
}

/// High byte of a `u16` (the CRC's little-endian second byte).
pub const fn hi8(v: u16) -> u8 {
    (v >> 8) as u8
}

/// Payload length byte for an encoder-produced payload.
///
/// Every encodable message has a payload well under 256 bytes (the
/// longest is STATUSTEXT at 51); the mask is a backstop, the
/// `debug_assert` catches a message definition ever outgrowing the
/// v1 frame format.
pub fn len8(len: usize) -> u8 {
    debug_assert!(
        len <= usize::from(u8::MAX),
        "payload too long for MAVLink v1"
    );
    (len & 0xFF) as u8
}

/// Bit-reinterprets an `i8` as its wire byte (two's complement).
///
/// SYS_STATUS carries `battery_remaining` as a signed percentage
/// (-1 = unknown) in one payload byte.
pub const fn i8_bits(v: i8) -> u8 {
    v.to_le_bytes()[0]
}

/// Inverse of [`i8_bits`]: the wire byte back to the signed value.
pub const fn u8_bits(v: u8) -> i8 {
    i8::from_le_bytes(v.to_le_bytes())
}

/// Degrees to MAVLink's degE7 fixed point.
///
/// Float→int `as` saturates (and maps NaN to 0) since Rust 1.45 —
/// exactly the clamping the fixed-point format wants for a
/// coordinate that escaped the valid ±90/±180 range upstream.
pub fn e7_from_deg(deg: f64) -> i32 {
    (deg * 1e7).round() as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lo_hi_reassemble() {
        for v in [0u16, 1, 0x00FF, 0x0100, 0xABCD, 0xFFFF] {
            assert_eq!(u16::from(lo8(v)) | (u16::from(hi8(v)) << 8), v);
        }
    }

    #[test]
    fn len8_passes_valid_lengths() {
        assert_eq!(len8(0), 0);
        assert_eq!(len8(51), 51);
        assert_eq!(len8(255), 255);
    }
}

//! X.25 / CRC-16/MCRF4XX checksum as used by MAVLink.

/// Initial CRC value.
pub const CRC_INIT: u16 = 0xFFFF;

/// Accumulates one byte into the CRC (the MAVLink `crc_accumulate`).
pub fn accumulate(crc: u16, byte: u8) -> u16 {
    let mut tmp = byte ^ crate::wire::lo8(crc);
    tmp ^= tmp << 4;
    let wide = u16::from(tmp);
    (crc >> 8) ^ (wide << 8) ^ (wide << 3) ^ (wide >> 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc16(data: &[u8]) -> u16 {
        data.iter().fold(CRC_INIT, |crc, &b| accumulate(crc, b))
    }

    #[test]
    fn known_vector() {
        // CRC-16/MCRF4XX of "123456789" is 0x6F91.
        assert_eq!(crc16(b"123456789"), 0x6F91);
    }

    #[test]
    fn empty_is_init() {
        assert_eq!(crc16(&[]), CRC_INIT);
    }

    #[test]
    fn single_bit_changes_crc() {
        assert_ne!(crc16(b"\x00"), crc16(b"\x01"));
    }
}

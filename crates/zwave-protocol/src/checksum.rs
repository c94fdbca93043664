//! Frame integrity checks: the legacy 8-bit XOR checksum (CS-8) and
//! CRC-16/CCITT as used by ITU-T G.9959 R3 frames.
//!
//! The paper's threat model (Section II-A1) notes that No-Security transport
//! relies solely on these checksums, which provide integrity against noise
//! but no authenticity: an attacker who can craft frames can always produce
//! a valid checksum. ZCover's injector does exactly that.

/// Computes the legacy Z-Wave 8-bit XOR checksum over `data`.
///
/// The checksum is seeded with `0xFF` and XOR-folds every byte, so that a
/// frame followed by its own checksum folds to `0xFF ^ frame ^ cs == 0`.
///
/// ```
/// use zwave_protocol::checksum::cs8;
/// assert_eq!(cs8(&[]), 0xFF);
/// let body = [0x01u8, 0x02, 0x03];
/// let cs = cs8(&body);
/// assert_eq!(cs, 0xFF ^ 0x01 ^ 0x02 ^ 0x03);
/// ```
pub fn cs8(data: &[u8]) -> u8 {
    data.iter().fold(0xFF, |acc, &b| acc ^ b)
}

/// CRC-16/CCITT (polynomial `0x1021`) with the G.9959 initial value `0x1D0F`.
///
/// Used by 100 kbps (R3) Z-Wave frames in place of CS-8.
///
/// ```
/// use zwave_protocol::checksum::crc16_ccitt;
/// // CRC-16/AUG-CCITT check value for "123456789".
/// assert_eq!(crc16_ccitt(b"123456789"), 0xE5CC);
/// ```
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0x1D0F;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs8_empty_is_seed() {
        assert_eq!(cs8(&[]), 0xFF);
    }

    #[test]
    fn cs8_self_annihilates() {
        // Appending the checksum makes the fold reach zero: XOR of seed,
        // data and checksum cancels out.
        let data = [0xDE, 0xAD, 0xBE, 0xEF, 0x42];
        let cs = cs8(&data);
        let mut with_cs = data.to_vec();
        with_cs.push(cs);
        assert_eq!(with_cs.iter().fold(0xFFu8, |a, &b| a ^ b), 0);
    }

    #[test]
    fn cs8_detects_single_byte_flip() {
        let data = [0x01, 0x02, 0x03, 0x04];
        let cs = cs8(&data);
        let mut corrupted = data;
        corrupted[2] ^= 0x10;
        assert_ne!(cs8(&corrupted), cs);
    }

    #[test]
    fn cs8_order_insensitive() {
        // XOR folding is commutative: a documented *weakness* of CS-8 that a
        // real CRC does not share.
        assert_eq!(cs8(&[1, 2, 3]), cs8(&[3, 2, 1]));
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/AUG-CCITT: init 0x1D0F, poly 0x1021, check value 0xE5CC.
        assert_eq!(crc16_ccitt(b"123456789"), 0xE5CC);
    }

    #[test]
    fn crc16_empty_is_init() {
        assert_eq!(crc16_ccitt(&[]), 0x1D0F);
    }

    #[test]
    fn crc16_detects_swaps_that_cs8_misses() {
        let a = [1u8, 2, 3];
        let b = [3u8, 2, 1];
        assert_eq!(cs8(&a), cs8(&b));
        assert_ne!(crc16_ccitt(&a), crc16_ccitt(&b));
    }
}

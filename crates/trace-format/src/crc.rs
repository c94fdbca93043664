//! CRC-32 (IEEE 802.3, reflected) over header, block, and footer bytes.
//!
//! Integrity is part of the format contract: a truncated or bit-flipped
//! trace must fail replay as *malformed* (CLI exit 2) with the damaged
//! region's byte offset — never panic, and never silently replay a
//! different campaign. A 4-byte CRC per region is cheap next to the
//! payload and catches every single-bit flip.

/// The reflected CRC-32 lookup table, generated at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 of `bytes` (IEEE polynomial, reflected, init/xorout `!0`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn any_single_bit_flip_changes_the_crc() {
        let data = b"zcover trace block payload".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "undetected flip at {byte}:{bit}");
            }
        }
    }
}

//! Event blocks: the unit of integrity checking and seeking.
//!
//! A block is `count` consecutive records encoded with a fresh
//! [`DeltaCtx`], framed as:
//!
//! ```text
//! varint count | varint payload_len | crc32(payload) LE | payload
//! ```
//!
//! Because the delta context resets per block, any block decodes knowing
//! only the interning table — decoding event `k` never touches the
//! preceding blocks. The framing CRC turns truncation and bit flips into
//! [`ZctError::Malformed`] with the block's byte offset.

use crate::intern::InternTable;
use crate::record::{decode_record, encode_record, DeltaCtx, Record};
use crate::varint::{put_u64, Cursor};
use crate::{crc::crc32, ZctError};

/// Encodes `records` as one framed block, appending to `out` and
/// interning event names into `intern`.
pub fn encode_block(out: &mut Vec<u8>, records: &[Record], intern: &mut InternTable) {
    let mut payload = Vec::with_capacity(records.len() * 8);
    let mut ctx = DeltaCtx::default();
    for record in records {
        encode_record(&mut payload, record, &mut ctx, intern);
    }
    put_u64(out, records.len() as u64);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Decodes one framed block from `cursor`, validating the CRC.
///
/// # Errors
///
/// [`ZctError::Malformed`] (with the failing byte offset) on truncation,
/// CRC mismatch, trailing payload bytes, or any record-level damage.
pub fn decode_block(
    cursor: &mut Cursor<'_>,
    intern: &InternTable,
) -> Result<Vec<Record>, ZctError> {
    let mut records = Vec::new();
    decode_block_into(cursor, intern, &mut records)?;
    Ok(records)
}

/// [`decode_block`], appending the block's records to `out`, so a whole
/// stream decodes into one buffer.
///
/// # Errors
///
/// As [`decode_block`]. On error `out` may hold part of the block.
pub(crate) fn decode_block_into(
    cursor: &mut Cursor<'_>,
    intern: &InternTable,
    out: &mut Vec<Record>,
) -> Result<(), ZctError> {
    let start = cursor.offset();
    let count = cursor.u64("block count")?;
    let payload_len = cursor.u64("block payload length")?;
    let want_crc = cursor.u32_le("block crc")?;
    if payload_len > cursor.remaining() as u64 {
        return Err(ZctError::malformed(
            start,
            format!(
                "block payload length {payload_len} exceeds the {} bytes left",
                cursor.remaining()
            ),
        ));
    }
    let payload_offset = cursor.offset();
    let payload = cursor.take(payload_len as usize, "block payload")?;
    if crc32(payload) != want_crc {
        return Err(ZctError::malformed(
            payload_offset,
            format!("block crc mismatch (stored {want_crc:08x}, computed {:08x})", crc32(payload)),
        ));
    }
    if count > payload_len.max(1) {
        // Every record costs at least one byte (empty blocks aside).
        return Err(ZctError::malformed(
            start,
            format!("block claims {count} records in {payload_len} payload bytes"),
        ));
    }
    let mut inner = Cursor::new(payload, payload_offset);
    let mut ctx = DeltaCtx::default();
    out.reserve(count as usize);
    for _ in 0..count {
        out.push(decode_record(&mut inner, &mut ctx, intern)?);
    }
    if !inner.is_empty() {
        return Err(ZctError::malformed(
            inner.offset(),
            format!("{} trailing bytes after the block's last record", inner.remaining()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SchedKind;

    fn records() -> Vec<Record> {
        (0..20)
            .map(|i| Record::Sched {
                at_us: 1000 * i,
                seq: i,
                actor: (i % 3) as i64 - 1,
                kind: SchedKind::Frame { n: 4, hash: i.wrapping_mul(0x9E37_79B9_7F4A_7C15) },
            })
            .collect()
    }

    #[test]
    fn block_roundtrips() {
        let mut intern = InternTable::new();
        let mut buf = Vec::new();
        encode_block(&mut buf, &records(), &mut intern);
        let decoded = decode_block(&mut Cursor::new(&buf, 0), &intern).unwrap();
        assert_eq!(decoded, records());
    }

    #[test]
    fn every_truncation_point_is_malformed_not_a_panic() {
        let mut intern = InternTable::new();
        let mut buf = Vec::new();
        encode_block(&mut buf, &records(), &mut intern);
        for len in 0..buf.len() {
            let err = decode_block(&mut Cursor::new(&buf[..len], 0), &intern)
                .expect_err("truncated block must not decode");
            assert!(matches!(err, ZctError::Malformed { .. }));
        }
    }

    #[test]
    fn every_single_bit_flip_in_the_payload_is_detected() {
        let mut intern = InternTable::new();
        let mut buf = Vec::new();
        encode_block(&mut buf, &records(), &mut intern);
        for byte in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[byte] ^= 0x10;
            // A flip may corrupt framing (count/len/crc) or payload; both
            // must surface as an error or decode to *different* records —
            // never panic, never silently return the original stream while
            // the bytes differ.
            match decode_block(&mut Cursor::new(&flipped, 0), &intern) {
                Err(ZctError::Malformed { .. }) => {}
                Err(other) => panic!("unexpected error class: {other}"),
                Ok(decoded) => {
                    assert_ne!(decoded, records(), "flip at byte {byte} went undetected")
                }
            }
        }
    }
}

//! Whole-file framing: header, block stream, footer index, trailer.
//!
//! ```text
//! "ZCT1"
//! header   : varint version, str device, varint seed, str config,
//!            str impairment, varint budget_ns, u8 flag [str scenario]
//!            + crc32(header bytes) LE
//! blocks   : framed per `block` module
//! footer   : intern table, varint block_count,
//!            per block (varint offset delta, varint count),
//!            varint total_events
//! trailer  : crc32(footer bytes) LE, u32 footer_len LE, "ZCTE"
//! ```
//!
//! The trailer is fixed-size and read *first*: a reader seeks to the end,
//! validates the closing magic, jumps straight to the footer, and from
//! there to any block — decoding event `k` touches exactly one block.
//! [`ZctWriter`] streams records in and never re-buffers them as strings;
//! [`ZctTrace`] parses the frame eagerly (header, index, CRCs) but
//! decodes blocks lazily.

use crate::block::{decode_block_into, encode_block};
use crate::crc::crc32;
use crate::intern::InternTable;
use crate::record::Record;
use crate::varint::{put_string, put_u64, Cursor};
use crate::{ZctError, END_MAGIC, MAGIC, ZCT_VERSION};

/// Events per block when the writer is not told otherwise: large enough
/// that framing (~10 bytes/block) vanishes, small enough that seeking
/// decodes a few KiB, not the file.
pub const DEFAULT_BLOCK_SIZE: usize = 512;

/// The campaign re-execution parameters carried by a binary trace —
/// the structural twin of the JSONL header line. Strings are stored
/// verbatim (the `zcover` layer owns their vocabulary); the budget is
/// kept at nanosecond precision so exporting back to JSONL reproduces
/// the original header bytes exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZctHeader {
    /// Device model index (`D1`..`D7`).
    pub device: String,
    /// The trial's RNG seed.
    pub seed: u64,
    /// Canonical configuration name.
    pub config: String,
    /// Channel impairment profile name.
    pub impairment: String,
    /// Virtual fuzzing budget in nanoseconds.
    pub budget_ns: u64,
    /// Scripted adversary scenario name, when one was active.
    pub scenario: Option<String>,
}

impl ZctHeader {
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_u64(&mut out, ZCT_VERSION);
        put_string(&mut out, &self.device);
        put_u64(&mut out, self.seed);
        put_string(&mut out, &self.config);
        put_string(&mut out, &self.impairment);
        put_u64(&mut out, self.budget_ns);
        match &self.scenario {
            None => out.push(0),
            Some(name) => {
                out.push(1);
                put_string(&mut out, name);
            }
        }
        out
    }

    fn decode(cursor: &mut Cursor<'_>) -> Result<ZctHeader, ZctError> {
        let version = cursor.u64("header version")?;
        if version != ZCT_VERSION {
            return Err(ZctError::UnsupportedVersion { version });
        }
        let device = cursor.string("header device")?;
        let seed = cursor.u64("header seed")?;
        let config = cursor.string("header config")?;
        let impairment = cursor.string("header impairment")?;
        let budget_ns = cursor.u64("header budget")?;
        let scenario = match cursor.u8("header scenario flag")? {
            0 => None,
            1 => Some(cursor.string("header scenario")?),
            other => {
                return Err(ZctError::malformed(
                    cursor.offset() - 1,
                    format!("header scenario flag must be 0 or 1, got {other}"),
                ))
            }
        };
        Ok(ZctHeader { device, seed, config, impairment, budget_ns, scenario })
    }
}

/// One entry of the seek index: where a block's framing starts and which
/// slice of the event stream it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Absolute byte offset of the block's framing.
    pub offset: u64,
    /// Index of the block's first event in the whole stream.
    pub first_event: u64,
    /// Events in the block.
    pub count: u64,
}

/// Streaming encoder: push records, get the finished file bytes. Blocks
/// are flushed every `block_size` records; the intern table and index
/// grow as a pure function of the record stream, so two identical
/// streams produce byte-identical files (`tests/trace_binary.rs` pins
/// this end to end on every golden trace).
#[derive(Debug)]
pub struct ZctWriter {
    buf: Vec<u8>,
    intern: InternTable,
    index: Vec<BlockEntry>,
    pending: Vec<Record>,
    block_size: usize,
    total: u64,
}

impl ZctWriter {
    /// A writer for a trace with the given header, flushing blocks of
    /// `block_size` records (clamped to at least 1).
    pub fn new(header: &ZctHeader, block_size: usize) -> ZctWriter {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        let body = header.encode_body();
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        ZctWriter {
            buf,
            intern: InternTable::new(),
            index: Vec::new(),
            pending: Vec::new(),
            block_size: block_size.max(1),
            total: 0,
        }
    }

    /// Appends one record.
    pub fn push(&mut self, record: Record) {
        self.pending.push(record);
        if self.pending.len() >= self.block_size {
            self.flush_block();
        }
    }

    /// Appends every record of `records`.
    pub fn push_all<'a>(&mut self, records: impl IntoIterator<Item = &'a Record>) {
        for record in records {
            self.push(record.clone());
        }
    }

    fn flush_block(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let entry = BlockEntry {
            offset: self.buf.len() as u64,
            first_event: self.total,
            count: self.pending.len() as u64,
        };
        encode_block(&mut self.buf, &self.pending, &mut self.intern);
        self.total += entry.count;
        self.index.push(entry);
        self.pending.clear();
    }

    /// Flushes the last partial block, writes footer and trailer, and
    /// returns the complete file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_block();
        let mut footer = Vec::with_capacity(16 + self.index.len() * 4);
        self.intern.encode(&mut footer);
        put_u64(&mut footer, self.index.len() as u64);
        let mut prev_offset = 0u64;
        for entry in &self.index {
            put_u64(&mut footer, entry.offset - prev_offset);
            put_u64(&mut footer, entry.count);
            prev_offset = entry.offset;
        }
        put_u64(&mut footer, self.total);
        let footer_len = footer.len() as u32;
        self.buf.extend_from_slice(&footer);
        self.buf.extend_from_slice(&crc32(&footer).to_le_bytes());
        self.buf.extend_from_slice(&footer_len.to_le_bytes());
        self.buf.extend_from_slice(END_MAGIC);
        self.buf
    }
}

/// Decodes only the magic and CRC-protected header of `bytes`, ignoring
/// everything after it. Works on truncated or damaged files whose header
/// region is intact — the hook error paths use to attribute a corrupt
/// trace to its campaign.
///
/// # Errors
///
/// [`ZctError::Malformed`] when the magic or header region is damaged,
/// [`ZctError::UnsupportedVersion`] on a foreign version.
pub fn peek_header(bytes: &[u8]) -> Result<ZctHeader, ZctError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(ZctError::malformed(0, "missing ZCT1 magic"));
    }
    let mut cursor = Cursor::new(&bytes[MAGIC.len()..], MAGIC.len() as u64);
    let header = ZctHeader::decode(&mut cursor)?;
    let end = cursor.offset() as usize;
    let want = Cursor::new(&bytes[end..], end as u64).u32_le("header crc")?;
    let body = &bytes[MAGIC.len()..end];
    if crc32(body) != want {
        return Err(ZctError::malformed(
            MAGIC.len() as u64,
            format!("header crc mismatch (stored {want:08x}, computed {:08x})", crc32(body)),
        ));
    }
    Ok(header)
}

/// Encodes a complete trace in one call.
pub fn encode(header: &ZctHeader, records: &[Record], block_size: usize) -> Vec<u8> {
    let mut writer = ZctWriter::new(header, block_size);
    writer.push_all(records);
    writer.finish()
}

/// A parsed binary trace: frame validated (magic, header, index, CRCs),
/// blocks decoded on demand.
#[derive(Debug, Clone)]
pub struct ZctTrace {
    bytes: Vec<u8>,
    header: ZctHeader,
    intern: InternTable,
    index: Vec<BlockEntry>,
    total: u64,
    blocks_end: u64,
}

impl ZctTrace {
    /// Parses the file frame: magic, trailer, footer (intern table +
    /// block index), header — everything except the block payloads, which
    /// decode lazily via [`ZctTrace::block`] / [`ZctTrace::event`].
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] with the damaged byte offset on any
    /// structural problem; [`ZctError::UnsupportedVersion`] when the
    /// header declares a version this build does not speak.
    pub fn parse(bytes: Vec<u8>) -> Result<ZctTrace, ZctError> {
        let len = bytes.len() as u64;
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(ZctError::malformed(0, "missing ZCT1 magic"));
        }
        // Trailer: ... crc32(4) footer_len(4) "ZCTE"(4).
        if bytes.len() < MAGIC.len() + 12 {
            return Err(ZctError::malformed(len, "file too short for a zct trailer"));
        }
        if &bytes[bytes.len() - 4..] != END_MAGIC {
            return Err(ZctError::malformed(
                len - 4,
                "missing ZCTE trailer magic (file truncated?)",
            ));
        }
        let footer_len_at = bytes.len() - 8;
        let footer_len = u32::from_le_bytes([
            bytes[footer_len_at],
            bytes[footer_len_at + 1],
            bytes[footer_len_at + 2],
            bytes[footer_len_at + 3],
        ]) as usize;
        let crc_at = bytes.len() - 12;
        let Some(footer_at) = crc_at.checked_sub(footer_len).filter(|&f| f >= MAGIC.len()) else {
            return Err(ZctError::malformed(
                footer_len_at as u64,
                format!("footer length {footer_len} exceeds the file"),
            ));
        };
        let footer = &bytes[footer_at..crc_at];
        let want_crc = u32::from_le_bytes([
            bytes[crc_at],
            bytes[crc_at + 1],
            bytes[crc_at + 2],
            bytes[crc_at + 3],
        ]);
        if crc32(footer) != want_crc {
            return Err(ZctError::malformed(
                footer_at as u64,
                format!(
                    "footer crc mismatch (stored {want_crc:08x}, computed {:08x})",
                    crc32(footer)
                ),
            ));
        }

        // Header (needed before the footer's offsets can be bounded).
        let mut header_cursor = Cursor::new(&bytes[MAGIC.len()..footer_at], MAGIC.len() as u64);
        let header = ZctHeader::decode(&mut header_cursor)?;
        let header_end = header_cursor.offset() as usize;
        let header_crc_want =
            Cursor::new(&bytes[header_end..], header_end as u64).u32_le("header crc")?;
        let header_body = &bytes[MAGIC.len()..header_end];
        if crc32(header_body) != header_crc_want {
            return Err(ZctError::malformed(
                MAGIC.len() as u64,
                format!(
                    "header crc mismatch (stored {header_crc_want:08x}, computed {:08x})",
                    crc32(header_body)
                ),
            ));
        }
        let blocks_start = (header_end + 4) as u64;

        // Footer: intern table, block index, total event count.
        let mut cursor = Cursor::new(footer, footer_at as u64);
        let intern = InternTable::decode(&mut cursor)?;
        let block_count = cursor.u64("block index count")?;
        if block_count > footer.len() as u64 {
            return Err(ZctError::malformed(
                cursor.offset(),
                format!(
                    "block index claims {block_count} blocks in a {} byte footer",
                    footer.len()
                ),
            ));
        }
        let mut index = Vec::with_capacity(block_count as usize);
        let mut offset = 0u64;
        let mut first_event = 0u64;
        for b in 0..block_count {
            let delta = cursor.u64("block index offset")?;
            let count = cursor.u64("block index count")?;
            offset += delta;
            if offset < blocks_start || offset >= footer_at as u64 {
                return Err(ZctError::malformed(
                    cursor.offset(),
                    format!("block {b} offset {offset} outside the block region"),
                ));
            }
            if count == 0 {
                return Err(ZctError::malformed(cursor.offset(), format!("block {b} is empty")));
            }
            index.push(BlockEntry { offset, first_event, count });
            first_event += count;
        }
        let total = cursor.u64("total event count")?;
        if !cursor.is_empty() {
            return Err(ZctError::malformed(cursor.offset(), "trailing bytes in the footer"));
        }
        if total != first_event {
            return Err(ZctError::malformed(
                footer_at as u64,
                format!("index sums to {first_event} events but the footer declares {total}"),
            ));
        }
        Ok(ZctTrace { bytes, header, intern, index, total, blocks_end: footer_at as u64 })
    }

    /// The campaign header.
    pub fn header(&self) -> &ZctHeader {
        &self.header
    }

    /// Total events in the trace.
    pub fn event_count(&self) -> u64 {
        self.total
    }

    /// The seek index, in block order.
    pub fn blocks(&self) -> &[BlockEntry] {
        &self.index
    }

    /// The interning table (event-name strings).
    pub fn intern(&self) -> &InternTable {
        &self.intern
    }

    /// Index of the block holding event `k`, if in range.
    pub fn block_of(&self, k: u64) -> Option<usize> {
        if k >= self.total {
            return None;
        }
        Some(self.index.partition_point(|e| e.first_event + e.count <= k))
    }

    /// Decodes block `b` (only that block: O(block size), not O(file)).
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] when the block region is damaged or `b` is
    /// out of range.
    pub fn block(&self, b: usize) -> Result<Vec<Record>, ZctError> {
        let mut records = Vec::new();
        self.block_into(b, &mut records)?;
        Ok(records)
    }

    /// [`ZctTrace::block`], appending the records to `out`.
    fn block_into(&self, b: usize, out: &mut Vec<Record>) -> Result<(), ZctError> {
        let entry = self
            .index
            .get(b)
            .ok_or_else(|| ZctError::malformed(0, format!("block {b} out of range")))?;
        let framed = &self.bytes[entry.offset as usize..self.blocks_end as usize];
        let mut cursor = Cursor::new(framed, entry.offset);
        let before = out.len();
        decode_block_into(&mut cursor, &self.intern, out)?;
        let decoded = out.len() - before;
        if decoded as u64 != entry.count {
            return Err(ZctError::malformed(
                entry.offset,
                format!("block {b} holds {decoded} records but the index says {}", entry.count),
            ));
        }
        Ok(())
    }

    /// The framed bytes of block `b` (count, length, CRC, payload) —
    /// lets a differ compare whole blocks without decoding either side.
    pub fn block_framed_bytes(&self, b: usize) -> Option<&[u8]> {
        let entry = self.index.get(b)?;
        let end = self.index.get(b + 1).map(|next| next.offset).unwrap_or(self.blocks_end) as usize;
        Some(&self.bytes[entry.offset as usize..end])
    }

    /// Decodes event `k` by seeking through the index: exactly one block
    /// is decoded, independent of `k`'s position in the file.
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] when `k` is out of range or its block is
    /// damaged.
    pub fn event(&self, k: u64) -> Result<Record, ZctError> {
        let b = self.block_of(k).ok_or_else(|| {
            ZctError::malformed(
                0,
                format!("event index {k} out of range (trace has {})", self.total),
            )
        })?;
        let entry = self.index[b];
        let records = self.block(b)?;
        Ok(records[(k - entry.first_event) as usize].clone())
    }

    /// Decodes the whole stream, block by block.
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] at the first damaged block.
    pub fn records(&self) -> Result<Vec<Record>, ZctError> {
        let mut out = Vec::with_capacity(self.total as usize);
        for b in 0..self.index.len() {
            self.block_into(b, &mut out)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SchedKind;

    fn header() -> ZctHeader {
        ZctHeader {
            device: "D1".to_string(),
            seed: 5,
            config: "full".to_string(),
            impairment: "clean".to_string(),
            budget_ns: 36_000_000_000,
            scenario: None,
        }
    }

    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| match i % 3 {
                0 => Record::Sched {
                    at_us: 100 * i,
                    seq: i,
                    actor: -1,
                    kind: SchedKind::Frame { n: 2, hash: i },
                },
                1 => Record::Fuzz { at_us: 100 * i, ev: "packet".to_string() },
                _ => Record::Fuzz { at_us: 100 * i, ev: "plan".to_string() },
            })
            .collect()
    }

    #[test]
    fn file_roundtrips_with_scenario_and_without() {
        for scenario in [None, Some("s0-no-more".to_string())] {
            let header = ZctHeader { scenario, ..header() };
            let bytes = encode(&header, &records(100), 16);
            let trace = ZctTrace::parse(bytes).unwrap();
            assert_eq!(trace.header(), &header);
            assert_eq!(trace.event_count(), 100);
            assert_eq!(trace.records().unwrap(), records(100));
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode(&header(), &[], 16);
        let trace = ZctTrace::parse(bytes).unwrap();
        assert_eq!(trace.event_count(), 0);
        assert!(trace.records().unwrap().is_empty());
        assert!(trace.block_of(0).is_none());
    }

    #[test]
    fn seek_matches_full_scan_for_every_index() {
        let all = records(333);
        let bytes = encode(&header(), &all, 16);
        let trace = ZctTrace::parse(bytes).unwrap();
        let scan = trace.records().unwrap();
        assert_eq!(scan, all);
        for k in 0..333u64 {
            assert_eq!(trace.event(k).unwrap(), scan[k as usize], "event {k}");
        }
        assert!(trace.event(333).is_err());
    }

    #[test]
    fn unsupported_version_is_its_own_error() {
        let mut writer_header = header();
        writer_header.device = "D1".to_string();
        let mut bytes = encode(&writer_header, &records(5), 16);
        // The version varint is the first header byte after the magic.
        assert_eq!(bytes[4], 1);
        bytes[4] = 9;
        // Header CRC would also fail, but the version gate fires first
        // with the precise complaint.
        assert_eq!(
            ZctTrace::parse(bytes).unwrap_err(),
            ZctError::UnsupportedVersion { version: 9 }
        );
    }

    #[test]
    fn every_truncation_of_a_full_file_is_malformed() {
        let bytes = encode(&header(), &records(50), 8);
        for len in 0..bytes.len() {
            let err = ZctTrace::parse(bytes[..len].to_vec())
                .err()
                .unwrap_or_else(|| panic!("truncation to {len} bytes parsed"));
            assert!(matches!(err, ZctError::Malformed { .. }), "unexpected at {len}: {err}");
        }
    }

    #[test]
    fn bit_flips_anywhere_are_detected_at_parse_or_decode() {
        let bytes = encode(&header(), &records(50), 8);
        let reference = records(50);
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x04;
            let outcome = ZctTrace::parse(flipped).and_then(|t| {
                let recs = t.records()?;
                Ok((t.header().clone(), recs))
            });
            match outcome {
                Err(ZctError::Malformed { .. }) | Err(ZctError::UnsupportedVersion { .. }) => {}
                Ok((hdr, recs)) => assert!(
                    hdr != header() || recs != reference,
                    "flip at byte {byte} went completely undetected"
                ),
            }
        }
    }
}

//! ZCT — the binary campaign-trace format behind `zcover`'s record/replay
//! subsystem.
//!
//! The JSONL journal (PR 4) has the right *semantics* — one flat object
//! per scheduler dequeue, byte-stable across runs — but the wrong
//! *encoding* for city-scale sweeps: at 10⁸+ events, serde-style string
//! formatting dominates both CPU and disk. ZCT keeps the exact same event
//! stream and replaces the encoding with a compact varint/columnar layout
//! modelled on waveform formats (VCD/FST-style: delta-encoded timestamps,
//! interned names, independently decodable blocks, a footer index for
//! seeking):
//!
//! ```text
//! ┌────────┬─────────┬────────┬─────────┬─────┬─────────┬────────────┐
//! │ "ZCT1" │ header  │ block₀ │ block₁  │ ... │ footer  │ trailer    │
//! │ magic  │ + crc32 │        │         │     │ + crc32 │ len + "ZCTE"│
//! └────────┴─────────┴────────┴─────────┴─────┴─────────┴────────────┘
//! ```
//!
//! - **Header**: the campaign re-execution parameters (device, seed,
//!   config, impairment, budget, scenario) — everything `zcover replay`
//!   needs, CRC-protected so a bit flip is a diagnosable error, never a
//!   silently different campaign.
//! - **Blocks**: up to [`DEFAULT_BLOCK_SIZE`] events each, every event a
//!   tagged [`Record`] with zigzag-delta virtual timestamps and scheduler
//!   sequence numbers. Each block resets its delta context, so blocks
//!   decode independently — the property the seek index relies on and
//!   `tests/trace_codec_props.rs` pins for arbitrary block sizes.
//! - **Footer**: the interning table (event-name strings referenced by
//!   id from fuzz records) and the block index `(offset, count)`, which
//!   makes [`ZctTrace::event`] O(1) in blocks: seek to the block, decode
//!   only it.
//! - **Trailer**: footer CRC, footer length, and a closing magic, so a
//!   truncated file fails fast with the truncation offset.
//!
//! Every decode path returns [`ZctError`] with a byte offset — malformed
//! input is a diagnosable exit, never a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod crc;
pub mod file;
pub mod intern;
pub mod record;
pub mod varint;

pub use block::{decode_block, encode_block};
pub use file::{BlockEntry, ZctHeader, ZctTrace, ZctWriter, DEFAULT_BLOCK_SIZE};
pub use intern::InternTable;
pub use record::{Record, SchedKind};

/// Leading magic of every ZCT file.
pub(crate) const MAGIC: &[u8; 4] = b"ZCT1";

/// Trailing magic closing every complete ZCT file.
pub(crate) const END_MAGIC: &[u8; 4] = b"ZCTE";

/// Binary trace format version written and accepted by this build.
pub(crate) const ZCT_VERSION: u64 = 1;

/// Errors from parsing or decoding a ZCT file. Every variant carries
/// enough context (byte offset, reason) to pinpoint the damage.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ZctError {
    /// Structurally broken input: the reason and the byte offset at which
    /// decoding failed.
    Malformed {
        /// Byte offset into the file where the problem was detected.
        offset: u64,
        /// What was wrong at that offset.
        reason: String,
    },
    /// The header declares a format version this build does not speak.
    UnsupportedVersion {
        /// The version the file declared.
        version: u64,
    },
}

impl ZctError {
    /// Shorthand constructor for [`ZctError::Malformed`].
    pub(crate) fn malformed(offset: u64, reason: impl Into<String>) -> ZctError {
        ZctError::Malformed { offset, reason: reason.into() }
    }
}

impl std::fmt::Display for ZctError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZctError::Malformed { offset, reason } => {
                write!(f, "malformed zct at byte offset {offset}: {reason}")
            }
            ZctError::UnsupportedVersion { version } => {
                write!(f, "unsupported zct version {version}")
            }
        }
    }
}

impl std::error::Error for ZctError {}

/// Whether `bytes` begin with the ZCT magic (format auto-detection).
pub fn is_zct(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
}

//! Mapping between [`Trace`] and the ZCT binary serialization
//! (`trace-format` crate).
//!
//! The mapping is purely structural: records are shared verbatim (the
//! `trace-format` [`Record`](crate::Record) *is* the journal's in-memory type), so only
//! the header needs translation — `zcover`'s typed [`TraceMeta`]
//! (impairment profile, scenario, `Duration` budget) to the format's
//! string-valued [`ZctHeader`]. The budget crosses as nanoseconds, so the
//! `{:.3}`-rendered `budget_s` of a JSONL export reproduces the original
//! header bytes exactly.

use std::time::Duration;

use trace_format::{ZctError, ZctHeader, ZctTrace, ZctWriter, DEFAULT_BLOCK_SIZE};
use zwave_radio::ImpairmentProfile;

use super::{Trace, TraceError, TraceMeta};
use crate::scenarios::Scenario;

/// Maps a format-layer error to the trace-layer one, keeping the byte
/// offset in the message.
pub(crate) fn zct_error(e: ZctError) -> TraceError {
    match e {
        ZctError::Malformed { offset, reason } => {
            TraceError::Malformed(format!("byte offset {offset}: {reason}"))
        }
        ZctError::UnsupportedVersion { version } => TraceError::UnsupportedVersion(version),
        other => TraceError::Malformed(other.to_string()),
    }
}

fn meta_to_header(meta: &TraceMeta) -> ZctHeader {
    ZctHeader {
        device: meta.device.clone(),
        seed: meta.seed,
        config: meta.config.clone(),
        impairment: meta.impairment.to_string(),
        budget_ns: meta.budget.as_nanos() as u64,
        scenario: (meta.scenario != Scenario::None).then(|| meta.scenario.to_string()),
    }
}

fn header_to_meta(header: &ZctHeader) -> Result<TraceMeta, TraceError> {
    let impairment = ImpairmentProfile::parse(&header.impairment)
        .ok_or_else(|| TraceError::UnknownMeta(format!("impairment {}", header.impairment)))?;
    let scenario = match &header.scenario {
        Some(name) => Scenario::parse(name)
            .ok_or_else(|| TraceError::UnknownMeta(format!("scenario {name}")))?,
        None => Scenario::None,
    };
    Ok(TraceMeta {
        device: header.device.clone(),
        seed: header.seed,
        config: header.config.clone(),
        impairment,
        budget: Duration::from_nanos(header.budget_ns),
        scenario,
    })
}

/// Serializes a trace in the ZCT binary format (default block size).
pub(crate) fn to_zct_bytes(trace: &Trace) -> Vec<u8> {
    let mut writer = ZctWriter::new(&meta_to_header(&trace.meta), DEFAULT_BLOCK_SIZE);
    writer.push_all(&trace.events);
    writer.finish()
}

/// Parses ZCT bytes back into a fully decoded trace.
///
/// # Errors
///
/// [`TraceError::Malformed`] (with the byte offset of the damage) on
/// structural problems, [`TraceError::UnsupportedVersion`] /
/// [`TraceError::UnknownMeta`] on header problems.
pub(crate) fn from_zct_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
    let zct = ZctTrace::parse(bytes.to_vec()).map_err(zct_error)?;
    let meta = header_to_meta(zct.header())?;
    let events = zct.records().map_err(zct_error)?;
    Ok(Trace { meta, events })
}

/// Best-effort header decode of (possibly damaged) ZCT bytes: parses only
/// the magic and CRC-protected header, ignoring the body entirely, so a
/// truncated or bit-flipped file can still be attributed to its campaign
/// in error messages.
pub(crate) fn peek_meta(bytes: &[u8]) -> Option<TraceMeta> {
    let header = trace_format::file::peek_header(bytes).ok()?;
    header_to_meta(&header).ok()
}

/// Where event `index` lives in a serialized ZCT file, as a human-readable
/// locus (`block B at byte offset O`). Degrades gracefully on damaged
/// input.
pub(crate) fn event_locus(bytes: &[u8], index: u64) -> String {
    let Ok(zct) = ZctTrace::parse(bytes.to_vec()) else {
        return format!("event {index} (file index unreadable)");
    };
    match zct.block_of(index) {
        Some(b) => {
            format!("block {b} at byte offset {}", zct.blocks()[b].offset)
        }
        None => format!("event {index} (beyond the {} recorded)", zct.event_count()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(scenario: Scenario) -> TraceMeta {
        TraceMeta {
            device: "D3".to_string(),
            seed: 9,
            config: "gamma".to_string(),
            impairment: ImpairmentProfile::Adversarial,
            budget: Duration::from_secs_f64(36.0),
            scenario,
        }
    }

    #[test]
    fn meta_roundtrips_through_the_binary_header() {
        for scenario in [Scenario::None, Scenario::CrushingTheWave] {
            let m = meta(scenario);
            assert_eq!(header_to_meta(&meta_to_header(&m)).unwrap(), m);
        }
    }

    #[test]
    fn unknown_header_vocabulary_is_rejected() {
        let mut header = meta_to_header(&meta(Scenario::None));
        header.impairment = "supersonic".to_string();
        assert!(matches!(header_to_meta(&header), Err(TraceError::UnknownMeta(_))));
        let mut header = meta_to_header(&meta(Scenario::None));
        header.scenario = Some("s9-no-more".to_string());
        assert!(matches!(header_to_meta(&header), Err(TraceError::UnknownMeta(_))));
    }

    #[test]
    fn fractional_budgets_survive_the_nanosecond_crossing() {
        // `budget_s` renders with three decimals; a 0.036 h budget
        // (129.6 s) must reproduce its exact JSONL header field.
        let m =
            TraceMeta { budget: Duration::from_secs_f64(0.036 * 3600.0), ..meta(Scenario::None) };
        let back = header_to_meta(&meta_to_header(&m)).unwrap();
        assert_eq!(format!("{:.3}", back.budget.as_secs_f64()), "129.600");
        assert_eq!(back, m);
    }

    #[test]
    fn malformed_bytes_report_an_offset() {
        let err = from_zct_bytes(b"ZCT1 not really a trace").unwrap_err();
        let TraceError::Malformed(msg) = err else { panic!("wrong class: {err:?}") };
        assert!(msg.contains("byte offset"), "{msg}");
    }
}

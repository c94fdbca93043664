//! The metric vocabulary (names and units, mirrored in `BENCHMARK.json`)
//! and the one-line JSON result the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("homes_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("unique_bugs", "count"),
    ("sim_s_to_last_bug", "sim_s"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Counts
/// and seconds are per operation: per home (sweep), per campaign (fuzz)
/// or per replay. A layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("network.setup_s", "s"),
    ("passive.fingerprint_s", "s"),
    ("active.scan_s", "s"),
    ("discovery.run_s", "s"),
    ("discovery.frames", "count"),
    ("fuzzer.run_s", "s"),
    ("fuzzer.packets", "count"),
    ("fuzzer.us_per_packet", "us/packet"),
    ("fuzzer.findings_per_kpacket", "findings/kpacket"),
    ("fuzzer.frames", "count"),
    ("medium.frames", "count"),
    ("medium.deliveries", "count"),
    ("medium.deliveries_per_frame", "deliveries/frame"),
    ("impairment.losses", "count"),
    ("impairment.duplicates", "count"),
    ("sched.scheduled", "count"),
    ("sched.processed", "count"),
    ("sched.cancelled", "count"),
    ("sched.events_per_packet", "events/packet"),
    ("sched.ns_per_event", "ns/event"),
    ("sweep.merge_s", "s"),
    ("sweep.shard_s_max_over_median", "ratio"),
    ("executor.worker_efficiency", "ratio"),
    ("trace.record_s", "s"),
    ("trace.encode_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.rerun_s", "s"),
    ("trace.diff_s", "s"),
    ("trace.events", "count"),
    ("trace.bytes_per_event", "bytes/event"),
    ("home.host_ms_p50", "ms"),
    ("home.host_ms_p98", "ms"),
    ("home.samples", "count"),
    ("coverage.edges", "count"),
    ("spans.coverage", "ratio"),
    ("spans.overhead_s", "s"),
    ("spans.untraced_s", "s"),
];

/// Which table a run reports.
pub fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values collected by one run, keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`. Panics on a name outside both tables: the
    /// tables are the benchmark's contract.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the metric tables"
        );
        self.0.insert(name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The final result line: `correct`, `attempted`, `failed` and, for a
/// correct run, every metric of `table` with its unit. A run that failed a
/// check reports no metrics at all.
///
/// # Errors
///
/// Names a metric of `table` that is missing or not finite.
pub fn result_line(
    table: &[(&str, &str)],
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut body = Vec::new();
    if correct {
        for (name, unit) in table {
            let value =
                metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            body.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

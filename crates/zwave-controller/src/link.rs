//! Link-layer reliability for the controller: ACK timeouts, bounded
//! retransmission with exponential backoff, and duplicate-frame
//! suppression.
//!
//! G.9959 acknowledged singlecasts are retried when no MAC ack arrives in
//! time. A retransmission reuses the *identical* frame bytes (same
//! sequence number), which is exactly what lets the receiver's duplicate
//! filter drop the extra copy when the original ack — not the original
//! frame — was the one the channel ate.

use std::time::Duration;

use zwave_protocol::NodeId;
use zwave_radio::{FrameBuf, SimInstant, TimerToken};

/// How many recently-dispatched frames the duplicate filter remembers.
/// Must stay below the 16-value sequence-number space so a legitimately
/// repeated payload (e.g. periodic NOP pings) re-enters with a fresh
/// sequence number before its old copy ages out.
pub(crate) const DUP_WINDOW: usize = 8;

/// Retry/timeout configuration for acknowledged transmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkPolicy {
    /// How long to wait for a MAC ack before the first retransmission.
    pub ack_timeout: Duration,
    /// Retransmissions after the initial attempt (G.9959 uses 2).
    pub max_retries: u32,
    /// Multiplier applied to `ack_timeout` per retry (1 = flat, 2 =
    /// exponential doubling).
    pub backoff: u32,
}

impl Default for LinkPolicy {
    fn default() -> Self {
        // 350 ms mirrors the response window the attacker-side dongle uses
        // (`DEFAULT_RESPONSE_WAIT`), so retransmissions land inside the
        // fuzzer's observation windows.
        LinkPolicy { ack_timeout: Duration::from_millis(350), max_retries: 2, backoff: 2 }
    }
}

impl LinkPolicy {
    /// The ack wait after `attempts` transmissions have been made:
    /// `ack_timeout * backoff^(attempts-1)`, saturating.
    pub(crate) fn wait_after(&self, attempts: u32) -> Duration {
        let factor = u64::from(self.backoff.max(1)).saturating_pow(attempts.saturating_sub(1));
        self.ack_timeout.saturating_mul(factor.min(u64::from(u32::MAX)) as u32)
    }
}

/// Counters for the controller's link-layer machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames retransmitted after an ack timeout.
    pub retransmissions: u64,
    /// Transmissions abandoned after exhausting every retry.
    pub ack_timeouts: u64,
    /// Received frames dropped as duplicates of a recent frame.
    pub duplicates_suppressed: u64,
}

/// One in-flight acknowledged transmission awaiting its MAC ack.
#[derive(Debug, Clone)]
pub(crate) struct PendingTx {
    /// The exact bytes on air; retransmissions resend these verbatim —
    /// a shared buffer, so each resend is a ref-count bump, not a copy.
    pub bytes: FrameBuf,
    /// Destination expected to ack.
    pub dst: NodeId,
    /// Sequence number the ack must echo.
    pub seq: u8,
    /// Transmissions made so far (1 = the initial attempt).
    pub attempts: u32,
    /// When the current ack wait expires.
    pub deadline: SimInstant,
    /// Scheduler wakeup armed for `deadline`, cancelled when the ack
    /// arrives (or the transmission is superseded). The wakeup is a hint:
    /// retransmission logic always re-checks the deadline itself.
    pub timer: Option<TimerToken>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_dongle_response_window() {
        let policy = LinkPolicy::default();
        assert_eq!(policy.ack_timeout, Duration::from_millis(350));
        assert_eq!(policy.max_retries, 2);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let policy = LinkPolicy::default();
        assert_eq!(policy.wait_after(1), Duration::from_millis(350));
        assert_eq!(policy.wait_after(2), Duration::from_millis(700));
        assert_eq!(policy.wait_after(3), Duration::from_millis(1400));
        let flat = LinkPolicy { backoff: 1, ..policy };
        assert_eq!(flat.wait_after(3), Duration::from_millis(350));
    }
}

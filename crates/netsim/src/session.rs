//! Progress tracking of one block-by-block transfer session.

use des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One transfer session between an uploader and a downloader.
///
/// A session runs at a fixed rate (one slot's capacity) and moves data one
/// fixed-size block at a time; the simulator schedules a completion event per
/// block.  The session records how many bytes it has carried and when it
/// started, which is exactly what the paper's per-session metrics (Figures 7
/// and 8) need.
///
/// # Example
///
/// ```
/// use des::SimTime;
/// use netsim::TransferSession;
///
/// let mut s = TransferSession::new(1_250.0, 16_384, SimTime::ZERO);
/// let next = s.next_block_bytes(100_000);
/// assert_eq!(next, 16_384);
/// assert!((s.block_duration(next).as_secs_f64() - 13.1072).abs() < 1e-9);
/// s.record_block(next);
/// assert_eq!(s.bytes_transferred(), 16_384);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferSession {
    rate_bytes_per_sec: f64,
    block_bytes: u64,
    bytes_transferred: u64,
    started_at: SimTime,
}

impl TransferSession {
    /// Creates a session transferring at `rate_bytes_per_sec`, moving
    /// `block_bytes` per block, started at `started_at`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive/finite or the block size is zero.
    #[must_use]
    pub fn new(rate_bytes_per_sec: f64, block_bytes: u64, started_at: SimTime) -> Self {
        assert!(
            rate_bytes_per_sec.is_finite() && rate_bytes_per_sec > 0.0,
            "transfer rate must be positive, got {rate_bytes_per_sec}"
        );
        assert!(block_bytes > 0, "block size must be positive");
        TransferSession {
            rate_bytes_per_sec,
            block_bytes,
            bytes_transferred: 0,
            started_at,
        }
    }

    /// The session's fixed transfer rate in bytes per second.
    #[must_use]
    pub fn rate_bytes_per_sec(&self) -> f64 {
        self.rate_bytes_per_sec
    }

    /// The configured block size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// When the session started.
    #[must_use]
    pub fn started_at(&self) -> SimTime {
        self.started_at
    }

    /// Total bytes carried so far.
    #[must_use]
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Size of the next block given that the downloader still needs
    /// `remaining`: a full block, or less for the final partial block.
    #[must_use]
    pub fn next_block_bytes(&self, remaining: u64) -> u64 {
        self.block_bytes.min(remaining).max(1)
    }

    /// Time needed to move a block of `bytes` at this session's rate.
    #[must_use]
    pub fn block_duration(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.rate_bytes_per_sec)
    }

    /// Records the completion of a block of `bytes`.
    pub fn record_block(&mut self, bytes: u64) {
        self.bytes_transferred += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_duration_matches_rate() {
        let s = TransferSession::new(1_000.0, 10_000, SimTime::ZERO);
        assert_eq!(s.block_duration(10_000), SimDuration::from_secs(10));
        assert_eq!(s.block_duration(500).as_secs_f64(), 0.5);
    }

    #[test]
    fn partial_final_block() {
        let s = TransferSession::new(1_000.0, 4_096, SimTime::ZERO);
        assert_eq!(s.next_block_bytes(10_000), 4_096);
        assert_eq!(s.next_block_bytes(1_000), 1_000);
        assert_eq!(
            s.next_block_bytes(0),
            1,
            "degenerate remaining clamps to 1 byte"
        );
    }

    #[test]
    fn records_accumulate() {
        let mut s = TransferSession::new(1_000.0, 4_096, SimTime::ZERO);
        s.record_block(4_096);
        s.record_block(100);
        assert_eq!(s.bytes_transferred(), 4_196);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = TransferSession::new(0.0, 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_panics() {
        let _ = TransferSession::new(1.0, 0, SimTime::ZERO);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn block_never_exceeds_remaining_or_block_size(
                rate in 1.0f64..1e6,
                block in 1u64..1_000_000,
                remaining in 1u64..100_000_000,
            ) {
                let s = TransferSession::new(rate, block, SimTime::ZERO);
                let next = s.next_block_bytes(remaining);
                prop_assert!(next <= block);
                prop_assert!(next <= remaining);
                prop_assert!(next >= 1);
            }

            #[test]
            fn duration_scales_linearly_with_bytes(rate in 1.0f64..1e6, bytes in 1u64..1_000_000) {
                let s = TransferSession::new(rate, 1_000, SimTime::ZERO);
                let one = s.block_duration(bytes).as_secs_f64();
                let two = s.block_duration(bytes * 2).as_secs_f64();
                prop_assert!((two - 2.0 * one).abs() < 1e-3);
            }
        }
    }
}

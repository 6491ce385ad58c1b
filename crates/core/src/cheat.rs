//! The synchronous block-validation countermeasure of Section III-B.
//!
//! Exchange priority creates an incentive to *pretend* to exchange: serve
//! junk, or act as a middleman between two peers that could trade directly.
//! The paper proposes two countermeasures:
//!
//! * **Synchronous block validation** ([`WindowedExchange`]) — exchange one
//!   validated block at a time, optionally growing a window of in-flight
//!   blocks as trust builds.  A cheater's maximum gain is bounded by the
//!   window size, and the achievable exchange rate is limited by
//!   `window × block_size / rtt`.
//! * **A trusted mediator** — each side's decryption key is released only to
//!   the peer the true sender named, so a relaying middleman holds
//!   ciphertext it can never decrypt.  It has no type here: the simulator
//!   models it as one predicate of its transfer path
//!   (`sim::Protection::Mediated`, read by `ciphertext_downloader`).

/// A synchronous, block-validated exchange with an adaptive window.
///
/// The window starts small (risking at most one block) and grows by one block
/// after each fully validated round, up to `max_window`; any invalid block
/// resets it.  This mirrors the paper's suggestion to "start the exchange
/// with a small window and increase after a number of rounds", so a cheater
/// must serve real data before it can put more than one block at risk.
///
/// # Example
///
/// ```
/// use exchange::cheat::WindowedExchange;
///
/// let mut ex = WindowedExchange::new(16 * 1024, 8);
/// assert_eq!(ex.window(), 1);
/// ex.on_round_validated();
/// ex.on_round_validated();
/// assert_eq!(ex.window(), 3);
/// ex.on_invalid_block();
/// assert_eq!(ex.window(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedExchange {
    block_bytes: u64,
    window: u32,
    max_window: u32,
    validated_rounds: u32,
    invalid_blocks: u32,
}

impl WindowedExchange {
    /// Creates an exchange with `block_bytes` blocks and a window capped at
    /// `max_window` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or `max_window` is zero.
    #[must_use]
    pub fn new(block_bytes: u64, max_window: u32) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        assert!(max_window > 0, "maximum window must be positive");
        WindowedExchange {
            block_bytes,
            window: 1,
            max_window,
            validated_rounds: 0,
            invalid_blocks: 0,
        }
    }

    /// The current window in blocks.
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Number of fully validated rounds so far.
    #[must_use]
    pub fn validated_rounds(&self) -> u32 {
        self.validated_rounds
    }

    /// Number of invalid blocks observed so far.
    #[must_use]
    pub fn invalid_blocks(&self) -> u32 {
        self.invalid_blocks
    }

    /// The block size this exchange validates, in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// The configured window cap in blocks.
    #[must_use]
    pub fn max_window(&self) -> u32 {
        self.max_window
    }

    /// Rebuilds an exchange from checkpointed parts, preserving the adaptive
    /// window mid-growth.
    ///
    /// # Panics
    ///
    /// Panics on parts no live exchange can produce: zero sizes, or a window
    /// outside `1..=max_window`.
    #[must_use]
    pub fn from_parts(
        block_bytes: u64,
        window: u32,
        max_window: u32,
        validated_rounds: u32,
        invalid_blocks: u32,
    ) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        assert!(max_window > 0, "maximum window must be positive");
        assert!(
            (1..=max_window).contains(&window),
            "window {window} outside 1..={max_window}"
        );
        WindowedExchange {
            block_bytes,
            window,
            max_window,
            validated_rounds,
            invalid_blocks,
        }
    }

    /// Records a fully validated round; the window grows by one block, up to
    /// the cap.
    pub fn on_round_validated(&mut self) {
        self.validated_rounds += 1;
        self.window = (self.window + 1).min(self.max_window);
    }

    /// Records an invalid block; the window collapses back to one block.
    pub fn on_invalid_block(&mut self) {
        self.invalid_blocks += 1;
        self.window = 1;
    }

    /// Achievable exchange rate (bytes/second) at the current window: every
    /// block is validated before the next is sent, so `window` blocks move
    /// per round trip of `rtt_secs`, capped by the transfer slot's own rate.
    ///
    /// # Panics
    ///
    /// Panics if `rtt_secs` is not positive and finite.
    #[must_use]
    pub fn effective_rate(&self, rtt_secs: f64, slot_bytes_per_sec: f64) -> f64 {
        assert!(
            rtt_secs.is_finite() && rtt_secs > 0.0,
            "round-trip time must be positive, got {rtt_secs}"
        );
        (self.block_bytes as f64 * f64::from(self.window) / rtt_secs).min(slot_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_rate_follows_paper_formula() {
        // block / rtt, scaled by the window.
        let mut ex = WindowedExchange::new(16_384, 4);
        assert_eq!(ex.effective_rate(0.1, f64::INFINITY), 163_840.0);
        for _ in 0..3 {
            ex.on_round_validated();
        }
        assert_eq!(ex.effective_rate(0.1, f64::INFINITY), 655_360.0);
    }

    #[test]
    #[should_panic(expected = "round-trip")]
    fn zero_rtt_panics() {
        let _ = WindowedExchange::new(1_000, 1).effective_rate(0.0, 1_250.0);
    }

    #[test]
    fn window_grows_and_resets() {
        let mut ex = WindowedExchange::new(1_000, 4);
        assert_eq!(ex.window(), 1);
        for _ in 0..10 {
            ex.on_round_validated();
        }
        assert_eq!(ex.window(), 4, "window is capped");
        assert_eq!(ex.validated_rounds(), 10);
        ex.on_invalid_block();
        assert_eq!(ex.window(), 1);
        assert_eq!(ex.invalid_blocks(), 1);
    }

    #[test]
    fn effective_rate_is_capped_by_slot() {
        let mut ex = WindowedExchange::new(100_000, 16);
        for _ in 0..16 {
            ex.on_round_validated();
        }
        // Window alone would allow a huge rate; the slot caps it.
        assert_eq!(ex.effective_rate(0.01, 1_250.0), 1_250.0);
        // With a large RTT the validation dominates.
        let slow = WindowedExchange::new(1_000, 16);
        assert!(slow.effective_rate(10.0, 1_250.0) < 1_250.0);
    }
}

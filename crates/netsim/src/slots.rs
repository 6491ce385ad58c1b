//! Transfer-slot bookkeeping.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Error returned when trying to reserve a slot from an exhausted pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotGuardError {
    capacity: usize,
}

impl fmt::Display for SlotGuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all {} transfer slots are in use", self.capacity)
    }
}

impl std::error::Error for SlotGuardError {}

/// A pool of identical transfer slots (upload or download side of a link).
///
/// # Example
///
/// ```
/// use netsim::SlotPool;
///
/// let mut pool = SlotPool::new(2);
/// pool.reserve().unwrap();
/// pool.reserve().unwrap();
/// assert!(pool.is_full());
/// assert!(pool.reserve().is_err());
/// pool.release();
/// assert_eq!(pool.available(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotPool {
    capacity: usize,
    in_use: usize,
}

impl SlotPool {
    /// Creates a pool with `capacity` slots, all free.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SlotPool {
            capacity,
            in_use: 0,
        }
    }

    /// Total number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of slots currently in use.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Number of free slots.
    #[must_use]
    pub fn available(&self) -> usize {
        self.capacity - self.in_use
    }

    /// Whether no slot is free.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.in_use >= self.capacity
    }

    /// Whether at least one slot is free.
    #[must_use]
    pub fn has_free(&self) -> bool {
        !self.is_full()
    }

    /// Reserves one slot.
    ///
    /// # Errors
    ///
    /// Returns [`SlotGuardError`] if every slot is already in use.
    pub fn reserve(&mut self) -> Result<(), SlotGuardError> {
        if self.is_full() {
            return Err(SlotGuardError {
                capacity: self.capacity,
            });
        }
        self.in_use += 1;
        Ok(())
    }

    /// Releases one previously reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot is currently reserved — releasing an unreserved slot
    /// indicates corrupted accounting in the caller.
    pub fn release(&mut self) {
        assert!(self.in_use > 0, "released a slot that was never reserved");
        self.in_use -= 1;
    }

    /// Resizes the pool, e.g. when sweeping upload capacity between runs.
    ///
    /// # Panics
    ///
    /// Panics if more slots are in use than the new capacity allows: shrinking
    /// below current usage would corrupt accounting.
    pub fn resize(&mut self, capacity: usize) {
        assert!(
            self.in_use <= capacity,
            "cannot shrink pool below in-use count ({} > {capacity})",
            self.in_use
        );
        self.capacity = capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_round_trip() {
        let mut p = SlotPool::new(3);
        assert_eq!(p.available(), 3);
        p.reserve().unwrap();
        p.reserve().unwrap();
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.available(), 1);
        p.release();
        assert_eq!(p.in_use(), 1);
        assert!(p.has_free());
    }

    #[test]
    fn exhausted_pool_rejects_reservation() {
        let mut p = SlotPool::new(1);
        p.reserve().unwrap();
        let err = p.reserve().unwrap_err();
        assert!(err.to_string().contains("1 transfer slots"));
    }

    #[test]
    fn zero_capacity_pool_is_always_full() {
        let mut p = SlotPool::new(0);
        assert!(p.is_full());
        assert!(p.reserve().is_err());
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn releasing_unreserved_slot_panics() {
        SlotPool::new(2).release();
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let mut p = SlotPool::new(2);
        p.reserve().unwrap();
        p.resize(8);
        assert_eq!(p.available(), 7);
        p.resize(1);
        assert!(p.is_full());
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn resize_below_in_use_panics() {
        let mut p = SlotPool::new(4);
        p.reserve().unwrap();
        p.reserve().unwrap();
        p.resize(1);
    }
}

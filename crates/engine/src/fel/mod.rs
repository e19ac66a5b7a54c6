//! The future-event list (FEL) behind [`crate::EventQueue`].
//!
//! The simulator's hot loop is push/pop on the FEL. [`CalendarFel`] is a
//! two-tier calendar queue: timing-wheel buckets over the near future and
//! a binary-heap overflow tier for far-future timers. `EventQueue` owns
//! the clock, the sequence counter and the monotonicity accounting; the
//! calendar only orders entries, popping them in the total order over
//! `(time, key, seq)`. The original binary-heap FEL survives
//! only as the reference model of the differential proptest in
//! `queue.rs`.
//!
//! Determinism argument: [`Entry`]'s ordering key is `(time, key, seq)`
//! where `key` is a caller-chosen u32 rank (0 for every plain
//! [`crate::EventQueue::push`], so key-oblivious callers keep pure FIFO tie
//! order) and `seq` is the queue's monotone insertion counter. That triple
//! is unique per entry (no two entries share a `seq`), so "pop the minimum"
//! has exactly one correct answer at every step and any correct min-queue
//! produces the same event schedule — key-ranked then FIFO within a
//! timestamp, non-decreasing across timestamps. An implementation
//! therefore only has to agree on the key, never on internal layout.
//!
//! The `key` dimension exists for the sharded engine: when one simulation
//! is split across per-shard queues, same-timestamp events in *different*
//! shards have no shared `seq` counter to order them. A key that encodes
//! (event class, entity) — with each (class, entity) pushed by exactly one
//! shard — makes the cross-shard merge order `(time, key)` well defined
//! while leaving same-shard ties on the local FIFO `seq`, which is exactly
//! the order the serial engine realizes when it uses the same keys.

pub mod calendar;

pub use calendar::CalendarFel;

use crate::time::SimTime;
use std::cmp::Ordering;

/// One scheduled entry: timestamp + ordering key + monotone sequence
/// number + payload.
#[derive(Debug)]
pub struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) key: u32,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed ordering so a `BinaryHeap` (a max-heap) pops the earliest
    /// timestamp first; ties broken by key rank, then insertion sequence
    /// (FIFO).
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

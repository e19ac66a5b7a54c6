//! Two-tier calendar-queue FEL: a timing wheel over the near future plus a
//! binary-heap overflow tier for far-future entries.
//!
//! # Layout
//!
//! Time is divided into fixed-width buckets of `2^shift` nanoseconds; an
//! entry's *slot* is `time_ns >> shift` (violating entries are clamped to
//! `now` for bucketing only — their sort key is untouched). The wheel holds
//! the next `nb` slots as `nb` physical buckets (`slot & (nb-1)`); anything
//! at or past `slot(now) + nb` waits in the overflow heap and is promoted
//! into the wheel as the clock advances.
//!
//! # Geometry
//!
//! The wheel only has to hold the packet path: a simulator hop schedules
//! its `TxDone` at most one serialization time ahead and its `Arrive` at
//! most one propagation delay ahead. [`CalendarFel::for_lookahead`] sizes
//! the wheel to twice that per-hop look-ahead in 512 ns buckets, rounded up
//! to a power of two and clamped to `[64, 4096]` buckets
//! ([`buckets_for_lookahead`]). A wider wheel buys nothing — its buckets
//! are revisited only once per rotation, so each pop touches a cold cache
//! line, and a 4096-bucket wheel pre-reserves ≥ 4 MiB per queue. On the
//! paper's 1 Gbit/s leaf-spine fabric (12.5 µs per hop) that is 64 buckets
//! (33 µs); a 250 µs high-BDP link gets 1024 (524 µs). Timers, flow starts,
//! balancer ticks and fluid completions ride the overflow tier — senders
//! keep at most one pending timer each, so overflow traffic is light:
//! under 0.2 % of pushes on the leaf-spine benchmark fabrics, 8 % on a
//! k=16 fat tree whose 256 balancers tick every 500 µs
//! ([`CalendarFel::overflow_pushes`] counts it). The default geometry
//! ([`CalendarFel::new`], 512 ns × 4096 ≈ 2.1 ms) is the upper clamp.
//!
//! The minimum bucket is held *activated*: its entries live in `active`,
//! sorted **descending** by `(time, key, seq)` so `Vec::pop` yields the minimum
//! without shifting. Non-active buckets are plain unsorted append vectors —
//! a push into them is O(1) — and get one `sort_unstable` when activated.
//! An occupancy bitmap (one bit per physical bucket) makes
//! next-non-empty-bucket a word scan.
//!
//! # Invariants
//!
//! 1. **Window purity.** Every wheel entry's slot lies in
//!    `[slot(now), slot(now) + nb)`: pushes outside go to overflow, and
//!    promotion (which only runs while popping, i.e. right after `now`
//!    advances) admits only slots below `slot(now) + nb`. Hence no physical
//!    bucket ever mixes two wheel rotations, and a bucket can be sorted
//!    without comparing rotation counts.
//! 2. **Tier order.** After every promotion pass, each overflow entry's
//!    slot is `>= slot(now) + nb`, strictly above every wheel entry's slot
//!    (by 1). So the wheel holds a *prefix* of the schedule and
//!    [`CalendarFel::min_time`] is `active.last()` when the wheel is
//!    non-empty, else the overflow top — O(1).
//! 3. **Active minimality.** `active` is the occupied bucket with the
//!    lowest slot; a push below `active_slot` lands in a provably empty
//!    bucket (all entries at slots `< active_slot` would contradict 3, all
//!    entries at `active_slot` live in `active`) which becomes the new
//!    active bucket; the old remainder retires to its—also empty—home
//!    bucket. `wheel_len > 0` implies `active` is non-empty.
//!
//! Together with the unique `(time, key, seq)` key these give the same pop
//! sequence as any correct min-queue; see the module docs of [`super`].

use super::Entry;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Default bucket width: `2^9` = 512 ns.
pub const DEFAULT_SHIFT: u32 = 9;
/// Default wheel size (buckets); with [`DEFAULT_SHIFT`] the wheel spans
/// ~2.1 ms. Also the most buckets [`buckets_for_lookahead`] ever picks.
pub const DEFAULT_BUCKETS: usize = 4096;
/// Fewest buckets a wheel may have (one occupancy-bitmap word).
pub const MIN_BUCKETS: usize = 64;

/// Wheel size for a schedule whose near-future pushes land at most
/// `lookahead` past the clock: enough [`DEFAULT_SHIFT`]-wide buckets to
/// span `2 × lookahead`, rounded up to a power of two and clamped to
/// `[MIN_BUCKETS, DEFAULT_BUCKETS]`.
pub fn buckets_for_lookahead(lookahead: SimTime) -> usize {
    let span = lookahead.as_nanos().saturating_mul(2);
    let nb = span
        .div_ceil(1 << DEFAULT_SHIFT)
        .min(DEFAULT_BUCKETS as u64) as usize;
    nb.next_power_of_two().max(MIN_BUCKETS)
}

/// A two-tier calendar-queue FEL. See the module docs for the design.
pub struct CalendarFel<E> {
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// Physical bucket count (power of two).
    nb: usize,
    /// `nb - 1`, as a slot mask.
    mask: u64,
    /// Unsorted append buckets, indexed by `slot & mask`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `buckets` (the active bucket's bit is clear).
    occ: Vec<u64>,
    /// The activated minimum bucket, sorted descending by `(time, key, seq)`.
    active: Vec<Entry<E>>,
    /// Absolute slot of the active bucket (meaningful iff `wheel_len > 0`).
    active_slot: u64,
    /// Entries in the wheel, including the active bucket.
    wheel_len: usize,
    /// Far-future tier (`Entry`'s reversed `Ord` makes this a min-queue).
    overflow: BinaryHeap<Entry<E>>,
    /// Inserts that landed in the overflow tier.
    pub(crate) overflow_pushes: u64,
}

impl<E> CalendarFel<E> {
    /// An empty queue with the default geometry.
    pub fn new() -> CalendarFel<E> {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_BUCKETS)
    }

    /// Per-bucket capacity pre-warmed by [`CalendarFel::with_capacity`]
    /// and [`CalendarFel::for_lookahead`]. Steady-state bucket depth in
    /// simulation runs stays in the single digits (events inside one
    /// 512 ns slot); without the pre-warm, the long tail of buckets hitting
    /// their all-time depth peak keeps doubling 4→8→16-entry vectors for
    /// the whole run, which the zero-allocation steady-state gate rejects.
    /// The reserve costs 1 KiB per bucket of 32-byte entries: 4 MiB on a
    /// default 4096-bucket wheel — measurably more resident memory and
    /// cache traffic than the 64 KiB of a 64-bucket fabric-sized wheel.
    const BUCKET_RESERVE: usize = 32;

    /// An empty default-geometry queue with room reserved in the overflow
    /// tier — build-time bulk pushes (all flow-start events of a run) land
    /// there — and every wheel bucket pre-warmed to
    /// [`Self::BUCKET_RESERVE`] entries.
    pub fn with_capacity(cap: usize) -> CalendarFel<E> {
        Self::reserved(DEFAULT_BUCKETS, cap)
    }

    /// Like [`CalendarFel::with_capacity`], but with the wheel sized by
    /// [`buckets_for_lookahead`] for a schedule whose near-future pushes
    /// land at most `lookahead` past the clock. Pushes further out are
    /// still correct; they ride the overflow tier.
    pub fn for_lookahead(cap: usize, lookahead: SimTime) -> CalendarFel<E> {
        Self::reserved(buckets_for_lookahead(lookahead), cap)
    }

    fn reserved(nb: usize, cap: usize) -> CalendarFel<E> {
        let mut q = Self::with_geometry(DEFAULT_SHIFT, nb);
        q.overflow.reserve(cap);
        q.active.reserve(Self::BUCKET_RESERVE);
        for b in &mut q.buckets {
            b.reserve(Self::BUCKET_RESERVE);
        }
        q
    }

    /// An empty queue with `2^shift`-ns buckets and an `nb`-bucket wheel
    /// (`nb` a power of two, ≥ 64). Small wheels force heavy
    /// overflow/promotion churn and exist for stress tests; prefer
    /// [`CalendarFel::new`].
    pub fn with_geometry(shift: u32, nb: usize) -> CalendarFel<E> {
        assert!(
            nb.is_power_of_two() && nb >= MIN_BUCKETS,
            "wheel size {nb}: want a power of two >= {MIN_BUCKETS}"
        );
        assert!(shift < 32, "bucket shift {shift} unreasonably large");
        CalendarFel {
            shift,
            nb,
            mask: (nb - 1) as u64,
            buckets: (0..nb).map(|_| Vec::new()).collect(),
            occ: vec![0u64; nb / 64],
            active: Vec::new(),
            active_slot: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            overflow_pushes: 0,
        }
    }

    /// Physical bucket count of the wheel.
    pub fn buckets(&self) -> usize {
        self.nb
    }

    /// Width of one wheel bucket.
    pub fn bucket_width(&self) -> SimTime {
        SimTime::from_nanos(1 << self.shift)
    }

    /// Inserts that landed in the overflow tier so far (promotions back
    /// into the wheel are not counted).
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    #[inline]
    fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.shift
    }

    #[inline]
    fn set_bit(&mut self, p: usize) {
        self.occ[p / 64] |= 1u64 << (p % 64);
    }

    #[inline]
    fn clear_bit(&mut self, p: usize) {
        self.occ[p / 64] &= !(1u64 << (p % 64));
    }

    /// First occupied physical bucket at or (cyclically) after `start`.
    fn next_occupied_from(&self, start: usize) -> Option<usize> {
        let words = self.occ.len();
        let (w0, b0) = (start / 64, start % 64);
        let masked = self.occ[w0] & (!0u64 << b0);
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        // On full wrap (`k == words`) the low bits of word `w0` are the
        // farthest-future slots; its high bits were proven clear above.
        for k in 1..=words {
            let w = (w0 + k) % words;
            if self.occ[w] != 0 {
                return Some(w * 64 + self.occ[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// Move the active remainder back to its (empty) home bucket.
    fn retire_active(&mut self) {
        debug_assert!(!self.active.is_empty());
        let p = (self.active_slot & self.mask) as usize;
        debug_assert!(self.buckets[p].is_empty(), "active home bucket not empty");
        std::mem::swap(&mut self.buckets[p], &mut self.active);
        self.set_bit(p);
    }

    /// Activate the occupied bucket with the lowest slot (≥ `slot(now)`).
    fn activate_next(&mut self, now: SimTime) {
        debug_assert!(self.wheel_len > 0 && self.active.is_empty());
        let now_slot = self.slot_of(now);
        let start = (now_slot & self.mask) as usize;
        let p = self
            .next_occupied_from(start)
            .expect("wheel_len > 0 but no occupied bucket");
        self.clear_bit(p);
        // Physical → absolute slot: window purity guarantees exactly one
        // in-window rotation per physical bucket.
        let delta = (p + self.nb - start) & (self.nb - 1);
        self.active_slot = now_slot + delta as u64;
        std::mem::swap(&mut self.active, &mut self.buckets[p]);
        self.active
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.key, e.seq)));
    }

    /// Pull overflow entries whose slot fell inside the wheel window at
    /// `now` into their buckets. Runs only while popping (right after the
    /// clock advanced), which is what keeps tier order an invariant.
    fn promote(&mut self, now: SimTime) {
        let limit = self.slot_of(now) + self.nb as u64;
        while let Some(top) = self.overflow.peek() {
            let slot = self.slot_of(top.time);
            if slot >= limit {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry vanished");
            // Promoted slots exceed every pre-existing wheel slot (tier
            // order), in particular `active_slot`: always a plain bucket.
            let p = (slot & self.mask) as usize;
            self.make_room(Some(p));
            self.buckets[p].push(entry);
            self.set_bit(p);
            self.wheel_len += 1;
        }
    }

    /// Called before a push into bucket `target` (`None`: the active
    /// bucket). If that vector is full, trade it for the roomiest empty
    /// vector — an empty bucket's, or the active one's while it is empty —
    /// when that one is larger: the entries move over (no allocation — the
    /// spare has room) and the small vector takes the spare's place.
    /// Bursts that outgrow [`Self::BUCKET_RESERVE`] — every balancer's
    /// tick at the same instant, a busy slot on a large fabric — thus
    /// reuse the capacity an earlier burst grew wherever they land,
    /// instead of growing each physical bucket in turn as vectors rotate
    /// through the wheel. Rare (the vector is full), so the O(`nb`) scan
    /// does not matter.
    fn make_room(&mut self, target: Option<usize>) {
        let full = self.vec_at(target);
        if full.len() < full.capacity() {
            return;
        }
        let mut best = None;
        let mut best_cap = full.len();
        let candidates = self.buckets.iter().enumerate().map(|(i, b)| (Some(i), b));
        for (at, v) in candidates.chain(std::iter::once((None, &self.active))) {
            if at != target && v.is_empty() && v.capacity() > best_cap {
                best = Some(at);
                best_cap = v.capacity();
            }
        }
        let Some(spare_at) = best else {
            return;
        };
        let mut spare = std::mem::take(self.vec_at_mut(spare_at));
        spare.append(self.vec_at_mut(target));
        std::mem::swap(self.vec_at_mut(target), &mut spare);
        *self.vec_at_mut(spare_at) = spare;
    }

    fn vec_at(&self, at: Option<usize>) -> &Vec<Entry<E>> {
        at.map_or(&self.active, |p| &self.buckets[p])
    }

    fn vec_at_mut(&mut self, at: Option<usize>) -> &mut Vec<Entry<E>> {
        match at {
            Some(p) => &mut self.buckets[p],
            None => &mut self.active,
        }
    }
}

impl<E> Default for CalendarFel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarFel<E> {
    /// Insert `entry`. `now` is the caller's clock, on which the wheel is
    /// windowed. An entry with `entry.time < now` (already counted as a
    /// violation by the caller, panicking in debug builds) still comes
    /// back in plain `(time, key, seq)` order.
    pub fn insert(&mut self, entry: Entry<E>, now: SimTime) {
        // Clamp below-`now` times (a caller-counted monotonicity violation
        // that only release builds survive) for bucketing only; the entry
        // keeps its original `(time, key, seq)` sort key.
        let slot = self.slot_of(entry.time.max(now));
        if slot >= self.slot_of(now) + self.nb as u64 {
            self.overflow_pushes += 1;
            self.overflow.push(entry);
            return;
        }
        if self.wheel_len > 0 {
            if slot == self.active_slot {
                // Sorted insert, descending. Same-instant pushes (the
                // common case: an event scheduling its immediate successor)
                // usually carry the largest `(time, key, seq)` of the bucket
                // so far and land at/near the tail — little shifting.
                let key = (entry.time, entry.key, entry.seq);
                let pos = self
                    .active
                    .partition_point(|e| (e.time, e.key, e.seq) > key);
                self.make_room(None);
                self.active.insert(pos, entry);
                self.wheel_len += 1;
                return;
            }
            if slot > self.active_slot {
                let p = (slot & self.mask) as usize;
                self.make_room(Some(p));
                self.buckets[p].push(entry);
                self.set_bit(p);
                self.wheel_len += 1;
                return;
            }
            // New wheel minimum below the active bucket: its bucket is
            // provably empty (invariant 3), so it becomes the new active
            // bucket and the old one retires whole.
            self.retire_active();
        }
        self.active_slot = slot;
        self.active.push(entry);
        self.wheel_len += 1;
    }

    /// Remove and return the `(time, key, seq)`-minimum entry.
    pub fn remove_min(&mut self) -> Option<Entry<E>> {
        if self.wheel_len == 0 {
            // Tier order: with an empty wheel the overflow top is the
            // global minimum. Promote its same-window successors so the
            // wheel resumes service.
            let entry = self.overflow.pop()?;
            self.promote(entry.time);
            if self.wheel_len > 0 {
                self.activate_next(entry.time);
            }
            return Some(entry);
        }
        let entry = self
            .active
            .pop()
            .expect("wheel_len > 0 implies a non-empty active bucket");
        self.wheel_len -= 1;
        self.promote(entry.time);
        if self.active.is_empty() && self.wheel_len > 0 {
            self.activate_next(entry.time);
        }
        Some(entry)
    }

    /// Timestamp of the minimum entry, without removing it. O(1).
    #[inline]
    pub fn min_time(&self) -> Option<SimTime> {
        if self.wheel_len > 0 {
            self.active.last().map(|e| e.time)
        } else {
            self.overflow.peek().map(|e| e.time)
        }
    }

    /// `(time, key)` of the minimum entry, without removing it. O(1) —
    /// the sharded engine's merge loop peeks every shard per step.
    #[inline]
    pub fn min_time_key(&self) -> Option<(SimTime, u32)> {
        if self.wheel_len > 0 {
            self.active.last().map(|e| (e.time, e.key))
        } else {
            self.overflow.peek().map(|e| (e.time, e.key))
        }
    }

    /// Number of pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when no entries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Move every pending entry into `out`, in arbitrary order, leaving
    /// the queue empty.
    pub fn drain_into(&mut self, out: &mut Vec<Entry<E>>) {
        out.reserve(self.len());
        out.append(&mut self.active);
        for w in 0..self.occ.len() {
            let mut bits = self.occ[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.append(&mut self.buckets[w * 64 + b]);
            }
            self.occ[w] = 0;
        }
        out.extend(self.overflow.drain());
        self.wheel_len = 0;
        self.active_slot = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_capacity<E>(q: &CalendarFel<E>) -> usize {
        q.active.capacity() + q.buckets.iter().map(Vec::capacity).sum::<usize>()
    }

    #[test]
    fn same_instant_bursts_reuse_grown_capacity() {
        // 256 same-instant entries (every balancer's tick on a k=16 fat
        // tree) every ~500 µs, drained in between, each burst in another
        // physical bucket of a 64-bucket wheel. Even bursts arrive from the
        // overflow tier (promotion path), odd ones are pushed just before
        // they fall due (active-bucket path). Only the first may grow the
        // wheel's storage; later bursts must borrow what it grew.
        let mut q = CalendarFel::for_lookahead(0, SimTime::from_micros(12));
        assert_eq!(q.buckets(), 64);
        let (mut now, mut seq) = (SimTime::ZERO, 0u64);
        let mut push = |q: &mut CalendarFel<()>, time: SimTime, key: u32, now: SimTime| {
            q.insert(
                Entry {
                    time,
                    key,
                    seq,
                    event: (),
                },
                now,
            );
            seq += 1;
        };
        let mut grown = None;
        for burst in 0..40u64 {
            let t = SimTime::from_micros(501 * (burst + 1));
            if burst % 2 == 1 {
                push(&mut q, t - SimTime::from_micros(1), u32::MAX, now);
                now = q.remove_min().expect("marker").time;
            }
            for key in 0..256 {
                push(&mut q, t, key, now);
            }
            let mut last = (SimTime::ZERO, 0);
            while let Some(e) = q.remove_min() {
                assert!((e.time, e.key) >= last, "pop order broke");
                last = (e.time, e.key);
                now = e.time;
            }
            if burst == 1 {
                grown = Some(total_capacity(&q));
            } else if burst > 1 {
                assert_eq!(
                    Some(total_capacity(&q)),
                    grown,
                    "burst {burst} grew a bucket"
                );
            }
        }
    }
}

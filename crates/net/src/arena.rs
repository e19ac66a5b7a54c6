//! A recycling arena for in-flight packets.
//!
//! Every packet crossing a link is one FEL event. Carrying the packet as a
//! `Box<Packet>` inside that event costs one heap round-trip per packet
//! per hop; the arena replaces that with a slab:
//! packets park in a flat `Vec`, events carry a 4-byte [`PacketSlot`]
//! handle, and freed slots go on a free list for reuse, so steady state
//! recycles storage instead of allocating.
//!
//! Handles are **generation-checked**: every slot carries an 8-bit
//! generation that increments each time the slot is freed, and the handle
//! embeds the generation it was issued under. [`PacketArena::take`] panics
//! on a mismatch, so a stale handle (use-after-free, double-take) is caught
//! at the moment of misuse rather than silently yielding another packet's
//! bytes. With 8 generation bits an ABA false-negative needs the same slot
//! to be recycled exactly 256·k times between issue and misuse — good
//! enough for a test oracle, and free: the handle still fits in 4 bytes,
//! which is what keeps the simulator's event payload one word.

use crate::packet::Packet;

/// Index bits in a [`PacketSlot`]; the rest hold the generation.
const IDX_BITS: u32 = 24;
const IDX_MASK: u32 = (1 << IDX_BITS) - 1;

/// A 4-byte generation-checked handle to a packet parked in a
/// [`PacketArena`]: 24 bits of slot index, 8 bits of generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketSlot(u32);

impl PacketSlot {
    #[inline]
    fn new(idx: u32, generation: u8) -> PacketSlot {
        debug_assert!(idx <= IDX_MASK);
        PacketSlot(idx | (u32::from(generation) << IDX_BITS))
    }

    /// The slot index this handle points at.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & IDX_MASK) as usize
    }

    /// The generation this handle was issued under.
    #[inline]
    pub fn generation(self) -> u8 {
        (self.0 >> IDX_BITS) as u8
    }
}

struct Slot {
    generation: u8,
    pkt: Packet,
}

/// A slab of in-flight packets with free-list recycling and
/// generation-checked handles. See the module docs for the design.
#[derive(Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
}

impl PacketArena {
    /// An empty arena that has not allocated yet.
    pub fn new() -> PacketArena {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    /// An arena pre-sized for `cap` concurrently live packets: neither the
    /// slot slab nor the free list reallocates until occupancy exceeds it.
    pub fn with_capacity(cap: usize) -> PacketArena {
        let cap = cap.min(IDX_MASK as usize + 1);
        PacketArena {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
            peak_live: 0,
        }
    }

    /// Park a packet, returning its handle. Reuses a freed slot when one
    /// exists; grows the slab (the only allocating path) otherwise.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketSlot {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.pkt = pkt;
            PacketSlot::new(idx, slot.generation)
        } else {
            let idx = self.slots.len();
            assert!(
                idx <= IDX_MASK as usize,
                "packet arena exhausted its 24-bit index space"
            );
            self.slots.push(Slot { generation: 0, pkt });
            PacketSlot::new(idx as u32, 0)
        }
    }

    /// Take a packet back out, freeing its slot for reuse.
    ///
    /// Panics if the handle is stale — the slot was already freed (and
    /// possibly reissued) since this handle was created.
    #[inline]
    pub fn take(&mut self, handle: PacketSlot) -> Packet {
        let slot = &mut self.slots[handle.index()];
        assert_eq!(
            slot.generation,
            handle.generation(),
            "stale PacketSlot {handle:?}: slot was freed since this handle was issued"
        );
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index() as u32);
        self.live -= 1;
        slot.pkt
    }

    /// Packets currently parked.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True when no packet is parked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of concurrently parked packets.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Slots the slab has materialized (== peak live occupancy so far,
    /// since freed slots are reused before the slab grows).
    pub fn slots_allocated(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use tlb_engine::SimTime;

    fn pkt(seq: u32) -> Packet {
        Packet::data(
            FlowId(1),
            HostId(0),
            HostId(5),
            seq,
            1460,
            40,
            SimTime::ZERO,
        )
    }

    #[test]
    fn roundtrip_preserves_packet() {
        let mut a = PacketArena::new();
        let h = a.insert(pkt(7));
        assert_eq!(a.live(), 1);
        let p = a.take(h);
        assert_eq!(p.seq, 7);
        assert!(a.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_not_grown() {
        let mut a = PacketArena::new();
        for round in 0..100u32 {
            let h = a.insert(pkt(round));
            assert_eq!(a.take(h).seq, round);
        }
        assert_eq!(
            a.slots_allocated(),
            1,
            "sequential insert/take must recycle one slot"
        );
        assert_eq!(a.peak_live(), 1);
    }

    #[test]
    fn interleaved_handles_stay_distinct() {
        let mut a = PacketArena::with_capacity(8);
        let hs: Vec<PacketSlot> = (0..8).map(|s| a.insert(pkt(s))).collect();
        assert_eq!(a.live(), 8);
        // Take in a scrambled order; every handle must yield its own packet.
        for &i in &[3usize, 0, 7, 1, 6, 2, 5, 4] {
            assert_eq!(a.take(hs[i]).seq, i as u32);
        }
        assert_eq!(a.slots_allocated(), 8);
        assert_eq!(a.peak_live(), 8);
    }

    #[test]
    #[should_panic(expected = "stale PacketSlot")]
    fn double_take_panics() {
        let mut a = PacketArena::new();
        let h = a.insert(pkt(0));
        let _ = a.take(h);
        let _ = a.take(h);
    }

    #[test]
    #[should_panic(expected = "stale PacketSlot")]
    fn use_after_reissue_panics() {
        let mut a = PacketArena::new();
        let stale = a.insert(pkt(0));
        let _ = a.take(stale);
        // The slot is reissued under a new generation; the old handle must
        // not be able to steal the new occupant.
        let fresh = a.insert(pkt(1));
        assert_eq!(fresh.index(), stale.index());
        assert_ne!(fresh.generation(), stale.generation());
        let _ = a.take(stale);
    }

    #[test]
    fn handle_packs_index_and_generation() {
        let h = PacketSlot::new(0x00AB_CDEF, 0x7F);
        assert_eq!(h.index(), 0x00AB_CDEF);
        assert_eq!(h.generation(), 0x7F);
        assert_eq!(std::mem::size_of::<PacketSlot>(), 4);
    }

    #[test]
    fn with_capacity_does_not_grow_within_bound() {
        let mut a = PacketArena::with_capacity(16);
        let cap_slots = a.slots.capacity();
        let cap_free = a.free.capacity();
        let hs: Vec<_> = (0..16).map(|s| a.insert(pkt(s))).collect();
        for h in hs {
            a.take(h);
        }
        assert_eq!(a.slots.capacity(), cap_slots);
        assert_eq!(a.free.capacity(), cap_free);
    }
}

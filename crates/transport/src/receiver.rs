//! The receiving endpoint: cumulative ACKs, out-of-order buffering,
//! per-packet ECN echo, reordering statistics.

use tlb_engine::SimTime;
use tlb_net::{packet::PktFlags, FlowId, HostId, Packet, PktKind};

/// Counters the evaluation reads off each receiver.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReceiverStats {
    /// Data segments that arrived in order (== `rcv_nxt`).
    pub in_order: u64,
    /// Data segments that arrived beyond `rcv_nxt` (a gap — the receiver
    /// buffered them and emitted a duplicate ACK). This is the
    /// "out-of-order packets" series of Fig. 4(b)/Fig. 9(a).
    pub out_of_order: u64,
    /// Data segments that were already delivered or buffered (spurious
    /// retransmissions / duplicates).
    pub duplicates: u64,
    /// Duplicate ACKs emitted.
    pub dup_acks_sent: u64,
    /// Data segments carrying a CE mark.
    pub ce_marked: u64,
    /// Total data segments received (any disposition).
    pub total_data: u64,
}

/// One flow's receiver. Acks every data packet (no delayed ACKs) with the
/// cumulative next-expected sequence and echoes CE marks per packet.
#[derive(Debug)]
pub struct TcpReceiver {
    flow: FlowId,
    /// This endpoint's host (source of the ACKs).
    host: HostId,
    /// The sender's host (destination of the ACKs).
    peer: HostId,
    /// Next expected in-order segment.
    rcv_nxt: u32,
    /// Buffered out-of-order segments, kept sorted ascending. Bounded by
    /// the sender's window (≤ `rwnd_segs` entries), so a flat sorted Vec
    /// beats a tree: binary-search insert, first-element min, prefix-drain
    /// on heal — and the backing storage can be pooled and recycled across
    /// flows (see [`crate::pool::OooPool`]) instead of node-allocating.
    ooo: Vec<u32>,
    /// High-water mark of `rcv_nxt`, kept separately so the monotone
    /// in-order-delivery invariant is checked against recorded history
    /// rather than re-derived from the value it guards.
    delivered_watermark: u32,
    /// First recorded violation of the delivery invariants (sticky).
    violation: Option<String>,
    stats: ReceiverStats,
}

impl TcpReceiver {
    /// Create the receiver side of `flow`, living on `host`, talking back
    /// to `peer`.
    pub fn new(flow: FlowId, host: HostId, peer: HostId) -> TcpReceiver {
        TcpReceiver::with_ooo_buf(flow, host, peer, Vec::new())
    }

    /// Like [`TcpReceiver::new`], but adopting `buf` (cleared) as the
    /// out-of-order buffer — the hook the simulator uses to hand receivers
    /// pooled, pre-sized storage instead of letting each flow grow its own.
    pub fn with_ooo_buf(
        flow: FlowId,
        host: HostId,
        peer: HostId,
        mut buf: Vec<u32>,
    ) -> TcpReceiver {
        buf.clear();
        TcpReceiver {
            flow,
            host,
            peer,
            rcv_nxt: 0,
            ooo: buf,
            delivered_watermark: 0,
            violation: None,
            stats: ReceiverStats::default(),
        }
    }

    /// Reclaim the out-of-order buffer for pooling, leaving an empty
    /// unallocated Vec behind. Called at flow teardown (FIN delivery), or
    /// once every segment of a hybrid flow's packet prefix is delivered
    /// while its tail runs on the fluid tier; either way the buffer is
    /// necessarily empty: the cumulative point has passed every segment
    /// the sender emitted. Idempotent — a second call returns a
    /// capacity-0 Vec, which pools ignore.
    pub fn take_ooo_buf(&mut self) -> Vec<u32> {
        debug_assert!(
            self.ooo.is_empty(),
            "ooo buffer non-empty at teardown (rcv_nxt {})",
            self.rcv_nxt
        );
        std::mem::take(&mut self.ooo)
    }

    /// Give a receiver whose buffer was reclaimed by
    /// [`TcpReceiver::take_ooo_buf`] a buffer from `pool` again, before
    /// more data can arrive (a hybrid flow demoted back to the packet
    /// path). A no-op while the receiver still holds one.
    pub fn rearm_ooo_buf(&mut self, pool: &mut crate::OooPool, min_capacity: usize) {
        if self.ooo.capacity() == 0 {
            self.ooo = pool.get(min_capacity);
        }
    }

    /// Highest in-order segment delivered so far (`rcv_nxt`).
    #[inline]
    pub fn delivered_segs(&self) -> u32 {
        self.rcv_nxt
    }

    /// Segments currently buffered out of order.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.ooo.len()
    }

    /// Statistics snapshot.
    #[inline]
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }

    /// End-of-run receiver invariant check, mirroring
    /// `TcpSender::invariant_violation` — `None` when healthy.
    ///
    /// Checked: monotone in-order delivery (`rcv_nxt` never moved
    /// backwards, recorded against a separate high-water mark on every
    /// segment), the out-of-order buffer only holds segments beyond
    /// `rcv_nxt`, delivery never outruns distinct received segments, and
    /// the disposition counters partition `total_data`. The conservation
    /// audit and the scenario fuzzer both consume this.
    pub fn invariant_violation(&self) -> Option<String> {
        if let Some(v) = &self.violation {
            return Some(v.clone());
        }
        if let Some(&lo) = self.ooo.first() {
            if lo <= self.rcv_nxt {
                return Some(format!(
                    "ooo buffer holds already-delivered segment {lo} (rcv_nxt {})",
                    self.rcv_nxt
                ));
            }
        }
        let distinct = self.stats.in_order + self.stats.out_of_order;
        if u64::from(self.rcv_nxt) > distinct {
            return Some(format!(
                "delivered {} segments but only {distinct} distinct ones arrived",
                self.rcv_nxt
            ));
        }
        let parts = distinct + self.stats.duplicates;
        if self.stats.total_data != parts {
            return Some(format!(
                "disposition counters {parts} do not partition total_data {}",
                self.stats.total_data
            ));
        }
        None
    }

    /// Respond to a SYN with a SYN-ACK (idempotent — handles retransmitted
    /// SYNs).
    pub fn on_syn(&self, now: SimTime) -> Packet {
        Packet::control(self.flow, self.host, self.peer, PktKind::SynAck, 0, now)
    }

    /// Accept a data segment, returning the cumulative ACK to send back.
    ///
    /// The ACK's `seq` is the next expected segment after processing; its
    /// ECE flag echoes the data packet's CE mark (per-packet echo, the
    /// simplified DCTCP receiver state machine for one-ACK-per-packet).
    pub fn on_data(&mut self, pkt: &Packet, now: SimTime) -> Packet {
        debug_assert_eq!(pkt.kind, PktKind::Data);
        debug_assert_eq!(pkt.flow, self.flow);
        self.stats.total_data += 1;
        if pkt.ce() {
            self.stats.ce_marked += 1;
        }

        let seq = pkt.seq;
        let advanced = if seq == self.rcv_nxt {
            self.stats.in_order += 1;
            self.rcv_nxt += 1;
            // Drain any buffered continuation: with `ooo` sorted and every
            // entry > the old rcv_nxt, the healed run is exactly the
            // longest prefix of consecutive values starting at rcv_nxt.
            let mut run = 0usize;
            while run < self.ooo.len() && self.ooo[run] == self.rcv_nxt + run as u32 {
                run += 1;
            }
            if run > 0 {
                self.rcv_nxt += run as u32;
                self.ooo.copy_within(run.., 0);
                self.ooo.truncate(self.ooo.len() - run);
            }
            true
        } else if seq > self.rcv_nxt {
            match self.ooo.binary_search(&seq) {
                Ok(_) => self.stats.duplicates += 1,
                Err(pos) => {
                    self.ooo.insert(pos, seq);
                    self.stats.out_of_order += 1;
                }
            }
            false
        } else {
            // Already delivered: a spurious retransmission or duplicate.
            self.stats.duplicates += 1;
            false
        };

        if !advanced {
            self.stats.dup_acks_sent += 1;
        }
        // Monotone-delivery bookkeeping: the cumulative point must never
        // regress. Record (rather than assert) so release runs surface it
        // through the audit instead of aborting mid-flight.
        if self.rcv_nxt < self.delivered_watermark && self.violation.is_none() {
            self.violation = Some(format!(
                "rcv_nxt moved backwards: {} after watermark {}",
                self.rcv_nxt, self.delivered_watermark
            ));
        }
        self.delivered_watermark = self.delivered_watermark.max(self.rcv_nxt);
        let mut ack = Packet::control(
            self.flow,
            self.host,
            self.peer,
            PktKind::Ack,
            self.rcv_nxt,
            now,
        );
        if pkt.ce() {
            ack.flags.set(PktFlags::ECE, true);
        }
        ack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rx() -> TcpReceiver {
        TcpReceiver::new(FlowId(1), HostId(9), HostId(0))
    }

    fn seg(seq: u32, ce: bool) -> Packet {
        let mut p = Packet::data(
            FlowId(1),
            HostId(0),
            HostId(9),
            seq,
            1460,
            40,
            SimTime::ZERO,
        );
        if ce {
            p.mark_ce();
        }
        p
    }

    #[test]
    fn in_order_stream_advances() {
        let mut r = rx();
        for s in 0..10 {
            let ack = r.on_data(&seg(s, false), SimTime::ZERO);
            assert_eq!(ack.seq, s + 1);
            assert_eq!(ack.kind, PktKind::Ack);
            assert!(!ack.ece());
        }
        assert_eq!(r.delivered_segs(), 10);
        assert_eq!(r.stats().in_order, 10);
        assert_eq!(r.stats().out_of_order, 0);
        assert_eq!(r.stats().dup_acks_sent, 0);
    }

    #[test]
    fn gap_generates_dup_acks_then_heals() {
        let mut r = rx();
        r.on_data(&seg(0, false), SimTime::ZERO);
        // Segment 1 lost; 2, 3, 4 arrive.
        for s in [2, 3, 4] {
            let ack = r.on_data(&seg(s, false), SimTime::ZERO);
            assert_eq!(ack.seq, 1, "cumulative ACK stuck at the hole");
        }
        assert_eq!(r.stats().dup_acks_sent, 3);
        assert_eq!(r.stats().out_of_order, 3);
        assert_eq!(r.buffered(), 3);
        // The retransmission fills the hole: ACK jumps to 5.
        let ack = r.on_data(&seg(1, false), SimTime::ZERO);
        assert_eq!(ack.seq, 5);
        assert_eq!(r.buffered(), 0);
        assert_eq!(r.delivered_segs(), 5);
    }

    #[test]
    fn duplicates_are_counted_not_delivered() {
        let mut r = rx();
        r.on_data(&seg(0, false), SimTime::ZERO);
        let ack = r.on_data(&seg(0, false), SimTime::ZERO);
        assert_eq!(ack.seq, 1);
        assert_eq!(r.stats().duplicates, 1);
        assert_eq!(r.delivered_segs(), 1);
        // Duplicate of a buffered out-of-order segment.
        r.on_data(&seg(5, false), SimTime::ZERO);
        r.on_data(&seg(5, false), SimTime::ZERO);
        assert_eq!(r.stats().duplicates, 2);
        assert_eq!(r.stats().out_of_order, 1);
    }

    #[test]
    fn ce_is_echoed_per_packet() {
        let mut r = rx();
        let a0 = r.on_data(&seg(0, true), SimTime::ZERO);
        assert!(a0.ece());
        let a1 = r.on_data(&seg(1, false), SimTime::ZERO);
        assert!(!a1.ece());
        assert_eq!(r.stats().ce_marked, 1);
    }

    #[test]
    fn pooled_buffer_roundtrip() {
        // A recycled buffer (dirty, pre-sized) is adopted cleanly…
        let mut dirty = Vec::with_capacity(44);
        dirty.extend_from_slice(&[7, 9, 11]);
        let cap = dirty.capacity();
        let mut r = TcpReceiver::with_ooo_buf(FlowId(1), HostId(9), HostId(0), dirty);
        assert_eq!(r.buffered(), 0, "adopted buffer must be cleared");
        // …used through a gap-and-heal cycle without growing…
        r.on_data(&seg(0, false), SimTime::ZERO);
        for s in [2, 4, 3] {
            r.on_data(&seg(s, false), SimTime::ZERO);
        }
        r.on_data(&seg(1, false), SimTime::ZERO);
        assert_eq!(r.delivered_segs(), 5);
        assert_eq!(r.buffered(), 0);
        // …and reclaimed at teardown with its capacity intact.
        let buf = r.take_ooo_buf();
        assert_eq!(buf.capacity(), cap);
        // A second take is idempotent: capacity-0, which pools ignore.
        assert_eq!(r.take_ooo_buf().capacity(), 0);
        // Re-arming draws a buffer from the pool once, then holds it.
        let mut pool = crate::OooPool::new();
        pool.put(buf);
        r.rearm_ooo_buf(&mut pool, 44);
        assert_eq!(pool.parked(), 0);
        r.rearm_ooo_buf(&mut pool, 44);
        assert_eq!(pool.stats(), (1, 0), "the second re-arm must not draw");
        r.on_data(&seg(6, false), SimTime::ZERO);
        assert_eq!(r.buffered(), 1);
    }

    #[test]
    fn heal_drains_only_the_contiguous_prefix() {
        let mut r = rx();
        // Buffer 1, 2, 5 while 0 is missing.
        for s in [2, 5, 1] {
            r.on_data(&seg(s, false), SimTime::ZERO);
        }
        assert_eq!(r.buffered(), 3);
        // 0 arrives: 0-1-2 heal, 5 stays buffered.
        let ack = r.on_data(&seg(0, false), SimTime::ZERO);
        assert_eq!(ack.seq, 3);
        assert_eq!(r.buffered(), 1);
        assert!(r.invariant_violation().is_none());
    }

    #[test]
    fn synack_is_idempotent() {
        let r = rx();
        let s1 = r.on_syn(SimTime::ZERO);
        let s2 = r.on_syn(SimTime::from_micros(5));
        assert_eq!(s1.kind, PktKind::SynAck);
        assert_eq!(s2.kind, PktKind::SynAck);
        assert_eq!(s1.src, HostId(9));
        assert_eq!(s1.dst, HostId(0));
    }

    proptest! {
        /// Delivering any permutation of segments 0..n exactly once ends
        /// with rcv_nxt == n, an empty buffer, and consistent counters.
        #[test]
        fn prop_any_arrival_order_delivers_all(n in 1u32..60, seed in 0u64..1000) {
            let mut order: Vec<u32> = (0..n).collect();
            let mut rng = tlb_engine::SimRng::new(seed);
            rng.shuffle(&mut order);
            let mut r = rx();
            for &s in &order {
                r.on_data(&seg(s, false), SimTime::ZERO);
            }
            prop_assert_eq!(r.delivered_segs(), n);
            prop_assert_eq!(r.buffered(), 0);
            prop_assert_eq!(r.stats().in_order + r.stats().out_of_order, n as u64);
            prop_assert_eq!(r.stats().total_data, n as u64);
        }

        /// With duplicates mixed in, rcv_nxt still converges and never
        /// exceeds the highest contiguous prefix.
        #[test]
        fn prop_duplicates_are_harmless(
            arrivals in proptest::collection::vec(0u32..20, 1..200)
        ) {
            let mut r = rx();
            let mut seen = std::collections::HashSet::new();
            for &s in &arrivals {
                r.on_data(&seg(s, false), SimTime::ZERO);
                seen.insert(s);
            }
            // rcv_nxt equals the length of the contiguous prefix present.
            let mut expect = 0;
            while seen.contains(&expect) {
                expect += 1;
            }
            prop_assert_eq!(r.delivered_segs(), expect);
        }

        /// The receiver invariants hold after any arrival pattern,
        /// including duplicates and gaps that never heal.
        #[test]
        fn prop_receiver_invariants_always_hold(
            arrivals in proptest::collection::vec(0u32..40, 1..300)
        ) {
            let mut r = rx();
            for &s in &arrivals {
                r.on_data(&seg(s, false), SimTime::ZERO);
            }
            prop_assert!(
                r.invariant_violation().is_none(),
                "{:?}",
                r.invariant_violation()
            );
        }
    }
}

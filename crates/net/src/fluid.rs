//! Per-link fair-share rate state for the hybrid fidelity tier.
//!
//! Long flows that leave the packet path (see `tlb-simnet`'s
//! `FidelityKind::Hybrid`) are modeled as fluid transfers: each flow owns a
//! fixed directed-link path and receives the max-min-style rate
//! `min over links l of capacity(l) / n_fluid(l)`, where `n_fluid(l)`
//! counts the fluid flows crossing `l`. Rates depend only on link
//! populations, so they change exactly when a flow joins, leaves, or a
//! link's capacity changes — the driver calls back in at those events and
//! nowhere else (this is the dslab `FairThroughputSharingModel` shape:
//! event-driven recompute, no per-byte work).
//!
//! Fluid flows share capacity only among themselves; coupling with
//! concurrent packet traffic on the same links is the documented modeling
//! approximation the hybrid tolerance bands absorb.
//!
//! Everything is deterministic: affected flows are re-rated in flow-id
//! order, arithmetic is plain `f64` evaluated in a fixed order, and every
//! rate change bumps the flow's generation counter so a driver using an FEL
//! without removal can discard stale completion events on pop.
//!
//! Link membership is intrusive: each (flow, hop) pair owns one node of a
//! doubly linked per-link list, so joins and leaves are O(path length),
//! a re-rate scan costs O(flows on the touched links), and no list ever
//! grows or needs compacting after [`FluidNet::new`].

/// Maximum directed links on a fluid path: NIC, two LB uplinks, and the
/// descent (core→agg, agg→edge, edge→host) of a three-tier fat tree.
pub const MAX_FLUID_PATH: usize = 6;

/// One pending rate update the driver turns into a (re)scheduled
/// completion event.
#[derive(Clone, Copy, Debug)]
pub struct RateChange {
    /// The affected fluid flow.
    pub flow: u32,
    /// The flow's generation after this change; completion events carrying
    /// an older generation are stale.
    pub gen: u32,
    /// Absolute completion time in seconds (`now + remaining / rate`).
    pub done_at_s: f64,
}

#[derive(Clone, Copy, Debug)]
struct FluidFlow {
    path: [u32; MAX_FLUID_PATH],
    path_len: u8,
    active: bool,
    /// Bytes still to deliver, advanced lazily at `updated_at`.
    remaining: f64,
    /// Current fair-share rate in bytes/second.
    rate: f64,
    /// When `remaining` was last advanced, in seconds.
    updated_at: f64,
    /// Bumped on every rate change; stale completion events carry an old
    /// value and are ignored by the driver.
    gen: u32,
}

const DEAD: FluidFlow = FluidFlow {
    path: [0; MAX_FLUID_PATH],
    path_len: 0,
    active: false,
    remaining: 0.0,
    rate: 0.0,
    updated_at: 0.0,
    gen: 0,
};

/// End of a membership list.
const NIL: u32 = u32::MAX;

/// The fluid tier's whole state: per-link populations and per-flow rates.
#[derive(Debug)]
pub struct FluidNet {
    /// Per-directed-link capacity in bytes/second.
    caps: Vec<f64>,
    /// Live fluid flows crossing each link.
    n_on: Vec<u32>,
    /// First membership node of each link's list (`NIL`: no fluid flow).
    /// Node `flow * MAX_FLUID_PATH + hop` stands for `flow` on the
    /// `hop`-th link of its path.
    head: Vec<u32>,
    /// Per node: the next node on the same link.
    next: Vec<u32>,
    /// Per node: the previous node on the same link.
    prev: Vec<u32>,
    flows: Vec<FluidFlow>,
    /// Scratch epoch marks for deduplicating affected-flow scans.
    touched: Vec<u64>,
    epoch: u64,
    /// The current scan's affected flows, in discovery order (sorted
    /// before re-rating). Reserved for every flow up front.
    scan: Vec<u32>,
    /// Pending rate changes since the last drain. Reserved for every flow
    /// up front: one join, leave or `touch_link` emits at most one change
    /// per active flow (only a caller batching several before draining —
    /// failure demotions, both directions of a link change — can exceed
    /// it).
    changes: Vec<RateChange>,
    active: usize,
    peak_active: usize,
}

impl FluidNet {
    /// Fluid state for `n_links` directed links and up to `n_flows` flows.
    /// Capacities start at zero; the driver sets them before any join.
    pub fn new(n_links: usize, n_flows: usize) -> FluidNet {
        let n_nodes = n_flows * MAX_FLUID_PATH;
        assert!(
            n_nodes < NIL as usize,
            "{n_flows} flows overflow the node ids"
        );
        FluidNet {
            caps: vec![0.0; n_links],
            n_on: vec![0; n_links],
            head: vec![NIL; n_links],
            next: vec![NIL; n_nodes],
            prev: vec![NIL; n_nodes],
            flows: vec![DEAD; n_flows],
            touched: vec![0; n_flows],
            epoch: 0,
            scan: Vec::with_capacity(n_flows),
            changes: Vec::with_capacity(n_flows),
            active: 0,
            peak_active: 0,
        }
    }

    /// Set a directed link's capacity (bytes/second). Call
    /// [`FluidNet::touch_link`] afterwards if flows may already cross it.
    pub fn set_capacity(&mut self, link: u32, bytes_per_sec: f64) {
        self.caps[link as usize] = bytes_per_sec;
    }

    /// Whether `flow` is currently in the fluid tier.
    #[inline]
    pub fn is_active(&self, flow: u32) -> bool {
        self.flows[flow as usize].active
    }

    /// `flow`'s current generation (valid while active).
    #[inline]
    pub fn gen(&self, flow: u32) -> u32 {
        self.flows[flow as usize].gen
    }

    /// Live fluid flows right now.
    #[inline]
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// High-water mark of concurrently live fluid flows.
    #[inline]
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Run `f` for every active fluid flow and its path (insertion order of
    /// flow ids — deterministic).
    pub fn for_each_active(&self, mut f: impl FnMut(u32, &[u32])) {
        for (i, fl) in self.flows.iter().enumerate() {
            if fl.active {
                f(i as u32, &fl.path[..fl.path_len as usize]);
            }
        }
    }

    /// Enter `flow` into the fluid tier with `bytes` to deliver over
    /// `path` (directed links). Emits rate changes for the joiner and every
    /// flow sharing a path link.
    pub fn join(&mut self, flow: u32, path: &[u32], bytes: f64, now_s: f64) {
        let fi = flow as usize;
        assert!(!self.flows[fi].active, "fluid join of an active flow");
        assert!(
            !path.is_empty() && path.len() <= MAX_FLUID_PATH,
            "fluid path length {} out of range",
            path.len()
        );
        assert!(bytes > 0.0, "fluid join with no bytes");
        // Advance sharers at their old rates before the populations move.
        self.begin_scan();
        for &l in path {
            self.collect_on(l, now_s);
        }
        // Populations: the joiner enters every path link.
        for (hop, &l) in path.iter().enumerate() {
            let li = l as usize;
            self.n_on[li] += 1;
            let node = (fi * MAX_FLUID_PATH + hop) as u32;
            let first = self.head[li];
            self.next[node as usize] = first;
            self.prev[node as usize] = NIL;
            if first != NIL {
                self.prev[first as usize] = node;
            }
            self.head[li] = node;
        }
        let mut fixed = [0u32; MAX_FLUID_PATH];
        fixed[..path.len()].copy_from_slice(path);
        let f = &mut self.flows[fi];
        f.path = fixed;
        f.path_len = path.len() as u8;
        f.active = true;
        f.remaining = bytes;
        f.updated_at = now_s;
        f.rate = 0.0;
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
        // New rates for the joiner and everything it displaced.
        self.rerate(flow, now_s);
        self.finish_scan(now_s);
    }

    /// Remove `flow` from the fluid tier (completion or demotion back to
    /// the packet path), returning the bytes it still had to deliver.
    /// Sharers get their freed share back via emitted rate changes.
    pub fn leave(&mut self, flow: u32, now_s: f64) -> f64 {
        let fi = flow as usize;
        assert!(self.flows[fi].active, "fluid leave of an inactive flow");
        self.advance(flow, now_s);
        let remaining = self.flows[fi].remaining;
        let path = self.flows[fi].path;
        let path_len = self.flows[fi].path_len as usize;
        // Advance sharers before the populations move; the leaver itself is
        // already advanced and must not be re-rated, so mark it first.
        self.begin_scan();
        self.touched[fi] = self.epoch;
        for &l in &path[..path_len] {
            self.collect_on(l, now_s);
        }
        for (hop, &l) in path[..path_len].iter().enumerate() {
            let li = l as usize;
            self.n_on[li] -= 1;
            let node = fi * MAX_FLUID_PATH + hop;
            let (before, after) = (self.prev[node], self.next[node]);
            if before == NIL {
                self.head[li] = after;
            } else {
                self.next[before as usize] = after;
            }
            if after != NIL {
                self.prev[after as usize] = before;
            }
        }
        self.flows[fi] = FluidFlow {
            gen: self.flows[fi].gen + 1,
            ..DEAD
        };
        self.active -= 1;
        self.finish_scan(now_s);
        remaining
    }

    /// A link's capacity changed (degradation/repair): re-rate every flow
    /// crossing it.
    pub fn touch_link(&mut self, link: u32, now_s: f64) {
        self.begin_scan();
        self.collect_on(link, now_s);
        self.finish_scan(now_s);
    }

    /// Drain the pending rate changes (deterministic order). The driver
    /// schedules one completion event per entry.
    pub fn drain_changes(&mut self) -> std::vec::Drain<'_, RateChange> {
        self.changes.drain(..)
    }

    /// Move the pending rate changes into `into` (same order as
    /// [`FluidNet::drain_changes`]).
    pub fn take_changes(&mut self, into: &mut Vec<RateChange>) {
        into.append(&mut self.changes);
    }

    // ---- internals -------------------------------------------------------

    fn begin_scan(&mut self) {
        self.epoch += 1;
    }

    /// Advance every not-yet-touched flow on `link` at its old rate and
    /// queue it for re-rating in [`FluidNet::finish_scan`].
    fn collect_on(&mut self, link: u32, now_s: f64) {
        let mut node = self.head[link as usize];
        while node != NIL {
            let f = node / MAX_FLUID_PATH as u32;
            if self.touched[f as usize] != self.epoch {
                self.touched[f as usize] = self.epoch;
                self.advance(f, now_s);
                self.scan.push(f);
            }
            node = self.next[node as usize];
        }
    }

    /// Re-rate every flow queued in this scan (the whole affected set),
    /// in flow-id order for determinism.
    fn finish_scan(&mut self, now_s: f64) {
        let mut scan = std::mem::take(&mut self.scan);
        scan.sort_unstable();
        for &f in &scan {
            self.rerate(f, now_s);
        }
        scan.clear();
        self.scan = scan;
    }

    /// Move `flow`'s byte clock to `now_s` at its current rate.
    fn advance(&mut self, flow: u32, now_s: f64) {
        let f = &mut self.flows[flow as usize];
        let dt = now_s - f.updated_at;
        if dt > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        f.updated_at = now_s;
    }

    /// Recompute `flow`'s fair share from current populations, bump its
    /// generation, and emit the change.
    fn rerate(&mut self, flow: u32, now_s: f64) {
        let fi = flow as usize;
        let (path, path_len) = (self.flows[fi].path, self.flows[fi].path_len as usize);
        let mut rate = f64::INFINITY;
        for &l in &path[..path_len] {
            let li = l as usize;
            debug_assert!(self.n_on[li] > 0, "flow on a link with zero population");
            rate = rate.min(self.caps[li] / self.n_on[li] as f64);
        }
        assert!(
            rate.is_finite() && rate > 0.0,
            "fluid rate must be positive (zero-capacity link on a fluid path?)"
        );
        let f = &mut self.flows[fi];
        f.rate = rate;
        f.gen += 1;
        debug_assert_eq!(f.updated_at, now_s, "rerate before advance");
        self.changes.push(RateChange {
            flow,
            gen: f.gen,
            done_at_s: now_s + f.remaining / rate,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn last_change_for(net: &mut FluidNet, flow: u32) -> RateChange {
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        *ch.iter()
            .rev()
            .find(|c| c.flow == flow)
            .expect("no change for flow")
    }

    #[test]
    fn lone_flow_gets_full_capacity() {
        let mut net = FluidNet::new(3, 4);
        for l in 0..3 {
            net.set_capacity(l, 1000.0);
        }
        net.join(0, &[0, 1, 2], 500.0, 1.0);
        let c = last_change_for(&mut net, 0);
        assert_eq!(c.gen, 1);
        assert!((c.done_at_s - 1.5).abs() < 1e-12, "500 B at 1000 B/s");
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn sharing_halves_the_rate_and_leaving_restores_it() {
        let mut net = FluidNet::new(2, 4);
        net.set_capacity(0, 1000.0);
        net.set_capacity(1, 1000.0);
        net.join(0, &[0], 1000.0, 0.0);
        // Flow 1 shares link 0: both drop to 500 B/s.
        net.join(1, &[0, 1], 1000.0, 0.0);
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        let c0 = ch.iter().rev().find(|c| c.flow == 0).unwrap();
        assert!((c0.done_at_s - 2.0).abs() < 1e-12, "1000 B at 500 B/s");
        // At t=1, flow 1 leaves with 500 B left; flow 0 also has 500 B
        // left and speeds back up to 1000 B/s -> done at 1.5.
        let rem = net.leave(1, 1.0);
        assert!((rem - 500.0).abs() < 1e-12);
        let c0 = last_change_for(&mut net, 0);
        assert!((c0.done_at_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_is_the_min_share_across_the_path() {
        let mut net = FluidNet::new(2, 4);
        net.set_capacity(0, 1000.0);
        net.set_capacity(1, 100.0);
        net.join(0, &[0, 1], 200.0, 0.0);
        let c = last_change_for(&mut net, 0);
        assert!((c.done_at_s - 2.0).abs() < 1e-12, "200 B at 100 B/s");
    }

    #[test]
    fn capacity_touch_rerates_only_crossing_flows() {
        let mut net = FluidNet::new(2, 4);
        net.set_capacity(0, 1000.0);
        net.set_capacity(1, 1000.0);
        net.join(0, &[0], 1000.0, 0.0);
        net.join(1, &[1], 1000.0, 0.0);
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        net.set_capacity(0, 500.0);
        net.touch_link(0, 1.0);
        ch.clear();
        net.take_changes(&mut ch);
        assert_eq!(ch.len(), 1, "only the crossing flow re-rates");
        assert_eq!(ch[0].flow, 0);
        // 1000 B of flow 0: 1 s at 1000 B/s leaves 0... it finished at
        // t=1.0 exactly; remaining clamped to 0 -> done immediately.
        assert!((ch[0].done_at_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generations_increase_monotonically() {
        let mut net = FluidNet::new(1, 4);
        net.set_capacity(0, 1000.0);
        net.join(0, &[0], 1000.0, 0.0);
        net.join(1, &[0], 1000.0, 0.0);
        net.join(2, &[0], 1000.0, 0.0);
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        let gens: Vec<u32> = ch.iter().filter(|c| c.flow == 0).map(|c| c.gen).collect();
        assert_eq!(gens, vec![1, 2, 3], "one bump per membership change");
        assert_eq!(net.gen(0), 3);
    }

    /// The flows on `link`'s membership list, sorted.
    fn members(net: &FluidNet, link: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut node = net.head[link as usize];
        while node != NIL {
            out.push(node / MAX_FLUID_PATH as u32);
            node = net.next[node as usize];
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn churn_keeps_link_lists_exact() {
        let mut net = FluidNet::new(2, 64);
        net.set_capacity(0, 1000.0);
        net.set_capacity(1, 1000.0);
        for f in 0..40 {
            net.join(f, &[0, 1], 10.0, f as f64);
            if f >= 1 {
                net.leave(f - 1, f as f64);
            }
        }
        assert_eq!(net.active_flows(), 1);
        assert!(net.peak_active() >= 2);
        assert_eq!(members(&net, 0), vec![39]);
        assert_eq!(members(&net, 1), vec![39]);
        net.leave(39, 40.0);
        assert_eq!(net.head, vec![NIL, NIL]);
    }

    #[test]
    fn rejoining_on_another_path_leaves_the_old_links() {
        // Flow 0 crosses link 0, leaves, and comes back on link 1 only. A
        // later change on link 0 must not re-rate it.
        let mut net = FluidNet::new(2, 4);
        net.set_capacity(0, 1000.0);
        net.set_capacity(1, 1000.0);
        net.join(0, &[0], 1000.0, 0.0);
        net.leave(0, 0.5);
        net.join(0, &[1], 500.0, 0.5);
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        ch.clear();
        net.join(1, &[0], 1000.0, 0.6);
        net.take_changes(&mut ch);
        assert_eq!(ch.len(), 1, "only the joiner re-rates: {ch:?}");
        assert_eq!(ch[0].flow, 1);
        assert_eq!(members(&net, 0), vec![1]);
        assert_eq!(members(&net, 1), vec![0]);
    }

    /// One active flow of [`FullScan`].
    #[derive(Clone)]
    struct ModelFlow {
        path: Vec<u32>,
        remaining: f64,
        rate: f64,
        updated_at: f64,
    }

    /// Reference model of the fluid tier: no membership lists at all.
    /// Every operation finds the affected flows and the link populations
    /// by scanning every flow's path.
    struct FullScan {
        caps: Vec<f64>,
        flows: Vec<Option<ModelFlow>>,
        gens: Vec<u32>,
        changes: Vec<RateChange>,
    }

    impl FullScan {
        fn new(n_links: usize, n_flows: usize) -> FullScan {
            FullScan {
                caps: vec![0.0; n_links],
                flows: vec![None; n_flows],
                gens: vec![0; n_flows],
                changes: Vec::new(),
            }
        }

        fn crossing(&self, links: &[u32], except: usize) -> Vec<usize> {
            (0..self.flows.len())
                .filter(|&f| f != except)
                .filter(|&f| {
                    self.flows[f]
                        .as_ref()
                        .is_some_and(|m| m.path.iter().any(|l| links.contains(l)))
                })
                .collect()
        }

        fn advance(&mut self, f: usize, now_s: f64) {
            let m = self.flows[f].as_mut().unwrap();
            let dt = now_s - m.updated_at;
            if dt > 0.0 {
                m.remaining = (m.remaining - m.rate * dt).max(0.0);
            }
            m.updated_at = now_s;
        }

        fn rerate(&mut self, f: usize, now_s: f64) {
            let path = self.flows[f].as_ref().unwrap().path.clone();
            let mut rate = f64::INFINITY;
            for &l in &path {
                let n = self.crossing(&[l], usize::MAX).len();
                rate = rate.min(self.caps[l as usize] / n as f64);
            }
            let m = self.flows[f].as_mut().unwrap();
            m.rate = rate;
            self.gens[f] += 1;
            self.changes.push(RateChange {
                flow: f as u32,
                gen: self.gens[f],
                done_at_s: now_s + m.remaining / rate,
            });
        }

        fn rerate_all(&mut self, affected: &[usize], now_s: f64) {
            for &f in affected {
                self.advance(f, now_s);
            }
            for &f in affected {
                self.rerate(f, now_s);
            }
        }

        fn join(&mut self, f: usize, path: &[u32], bytes: f64, now_s: f64) {
            let affected = self.crossing(path, f);
            for &g in &affected {
                self.advance(g, now_s);
            }
            self.flows[f] = Some(ModelFlow {
                path: path.to_vec(),
                remaining: bytes,
                rate: 0.0,
                updated_at: now_s,
            });
            self.rerate(f, now_s);
            for &g in &affected {
                self.rerate(g, now_s);
            }
        }

        fn leave(&mut self, f: usize, now_s: f64) -> f64 {
            self.advance(f, now_s);
            let m = self.flows[f].take().unwrap();
            self.gens[f] += 1;
            let affected = self.crossing(&m.path, f);
            self.rerate_all(&affected, now_s);
            m.remaining
        }

        fn touch_link(&mut self, link: u32, now_s: f64) {
            let affected = self.crossing(&[link], usize::MAX);
            self.rerate_all(&affected, now_s);
        }
    }

    proptest! {
        /// Differential: random join/leave/capacity-change scripts give
        /// bit-identical `RateChange` streams, leave remainders and
        /// generations on the membership-list tier as on the full-scan
        /// model.
        #[test]
        fn prop_matches_the_full_scan_model(
            ops in proptest::collection::vec((0u8..3, 0u16..u16::MAX, 0u16..u16::MAX), 1..200)
        ) {
            const LINKS: u32 = 8;
            const FLOWS: usize = 12;
            let mut net = FluidNet::new(LINKS as usize, FLOWS);
            let mut model = FullScan::new(LINKS as usize, FLOWS);
            for l in 0..LINKS {
                let cap = 1000.0 * (1 + l % 3) as f64;
                net.set_capacity(l, cap);
                model.caps[l as usize] = cap;
            }
            let mut now = 0.0;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for &(kind, a, b) in &ops {
                now += (b % 7) as f64 * 1e-3;
                match kind {
                    // Join an idle flow, or remove an active one.
                    0 | 1 => {
                        let f = a as usize % FLOWS;
                        if model.flows[f].is_some() {
                            let left = net.leave(f as u32, now);
                            prop_assert_eq!(left.to_bits(), model.leave(f, now).to_bits());
                        } else {
                            // 1-6 distinct links, rotated by `b`.
                            let len = 1 + b as usize % MAX_FLUID_PATH;
                            let path: Vec<u32> =
                                (0..len as u32).map(|h| (h * 3 + b as u32) % LINKS).collect();
                            let bytes = 500.0 + a as f64;
                            net.join(f as u32, &path, bytes, now);
                            model.join(f, &path, bytes, now);
                        }
                    }
                    // Capacity change on one link.
                    _ => {
                        let l = a as u32 % LINKS;
                        let cap = 100.0 + (b % 2000) as f64;
                        net.set_capacity(l, cap);
                        model.caps[l as usize] = cap;
                        net.touch_link(l, now);
                        model.touch_link(l, now);
                    }
                }
                net.take_changes(&mut got);
                want.append(&mut model.changes);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(
                        (g.flow, g.gen, g.done_at_s.to_bits()),
                        (w.flow, w.gen, w.done_at_s.to_bits())
                    );
                }
                got.clear();
                want.clear();
                for f in 0..FLOWS {
                    prop_assert_eq!(net.is_active(f as u32), model.flows[f].is_some());
                }
            }
        }
    }
}

//! Deterministic multi-core execution of a single simulation via
//! conservative fabric sharding.
//!
//! One simulation is split into **shards**, one per worker thread: the
//! fabric's natural units (leaves of a leaf-spine fabric, pods of a fat
//! tree) are cut into contiguous groups, spines/cores ride with a unit,
//! and hosts stay with their leaf/edge switch. Each shard owns a full
//! replica of the [`super::Net`] state but touches only its own entities:
//! its switches' ports, its hosts' senders/receivers, its slice of the
//! FEL. Shards advance in barrier-synchronized **windows** bounded by the
//! conservative lookahead `Δ` = the minimum propagation delay over any
//! cross-shard link (folded over the whole [`crate::config::LinkEvent`]
//! schedule): an event a shard executes at time `t` can only influence
//! another shard at `t + Δ` or later, so every shard may freely run
//! `[T, T + Δ)` where `T` is the global minimum pending timestamp.
//! Cross-shard packets travel as [`XMsg`] handoffs through per-shard
//! inboxes; each inbox also carries its earliest pending timestamp, which
//! the coordinator folds into `T` (the null-message horizon update of
//! classic conservative PDES, carried on the data path).
//!
//! ## Why the merged schedule is bit-identical to the serial engine
//!
//! Both engines order events by `(time, key, seq)` where
//! [`super::event_key`] encodes `(class, entity)`. Every key is pushed by
//! exactly one shard (see the table in `event_key`'s docs), so:
//!
//! * same-`(time, key)` ties are always same-shard, and the shard's local
//!   FIFO `seq` assigns them exactly the relative order the serial engine
//!   would (pushes happen in the same causal order);
//! * cross-shard order at a timestamp is settled by `key` alone, which
//!   the serial engine respects by construction.
//!
//! Nothing above depends on *which* partition is used, only on every
//! entity having one owner, so digests equal serial for any valid
//! partition — and therefore at every worker count, although the shard
//! count follows the worker count. Nor does it depend on which OS thread
//! runs a shard: each shard's event stream is deterministic and message
//! order per key is the sender's FIFO order regardless of scheduling.
//!
//! ## Global events and the serialized tail
//!
//! [`super::Event::Failure`] / [`super::Event::LinkChange`] mutate fabric
//! state every replica reads (`recompute_reach` scans the whole port
//! table). They are seeded only into shard 0's FEL and executed in
//! **micro-steps**: parallel windows never cross the next scheduled admin
//! time; when it becomes the global minimum the coordinator runs every
//! event at exactly that timestamp through the cross-shard merge loop and
//! mirrors the state mutation into every replica.
//!
//! The serial engine stops at the instant the last flow completes,
//! possibly mid-window. To reproduce that exactly, a parallel window with
//! end `E` is only opened when the run provably cannot finish inside it:
//!
//! * some flow starts at or after `E` — its `FlowStart` is not processed
//!   in the window (events run strictly before `E`), so it cannot
//!   complete there; or
//! * some host is **far**: it still has more distinct data segments to
//!   take in than one window can deliver. Each replica keeps, for the
//!   hosts it owns, `excess[h]` = (segments of incomplete flows to `h`
//!   not yet taken in) − `cap_h`, where `cap_h = Δ/tx_h(min_wire) + 2`.
//!   A flow completes only when its receiver has taken in every segment
//!   (Hybrid fluid completions are rejected up front); one data delivery
//!   adds at most one distinct segment; and deliveries to `h` are
//!   serialized by its downlink, whose props no
//!   [`crate::config::LinkEvent`] ever rewrites (they target fabric
//!   uplinks) — so a window delivers at most `cap_h` new segments to `h`.
//!   A host with `excess[h] > 0` therefore still has an incomplete flow
//!   when the window ends. The count of far hosts is kept in O(1) per
//!   delivery and published beside the completion count.
//!
//! Once neither holds — every flow has started and no host is far — the
//! coordinator finishes the run in a **serialized tail**: a global
//! `(time, key)` merge across the shard FELs with the serial loop's exact
//! termination conditions. The tail is the last few segments per host
//! (hundreds of events on the paper's web-search run), so parallel
//! windows cover almost the whole run.
//!
//! ## What the sharded engine refuses (and falls back to serial on)
//!
//! Hybrid fidelity (fluid flows span shards), closed-loop chains (a
//! completion on one shard would have to start a flow on another),
//! `fault_drop_nth` (a global arrival counter), single-unit topologies,
//! zero lookahead, and ≥ 2²⁷ flows (key-space). [`try_run`] returns the
//! [`ShardFallback`] reason and [`super::run_with`] runs the serial
//! engine — which is the digest reference anyway — and records the reason
//! in [`crate::report::RunReport::engine_fallback`].

use super::{Net, NodeRef, PlanKind, PortId, PortMap, SimConfig};
use crate::report::ShardFallback;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tlb_engine::{SimTime, SpinBarrier};
use tlb_net::Packet;
use tlb_workload::FlowSpec;

/// Which shard owns each entity, plus the derived per-port tables. Built
/// once per run and shared by every replica.
pub(crate) struct ShardMap {
    /// Per switch id (LB switches first, like [`PortMap::sw`]).
    pub sw_owner: Vec<u16>,
    /// Per host id (hosts live with their leaf/edge switch).
    pub host_owner: Vec<u16>,
    /// Per port: owner of the switch/host the port belongs to.
    pub port_owner: Vec<u16>,
    /// Per port: owner of the node a packet reaches after crossing the
    /// port's link — the shard that must execute the `Arrive`.
    pub arrive_owner: Vec<u16>,
}

impl ShardMap {
    /// The fabric's natural partition units: leaves of a leaf-spine
    /// fabric, pods of a fat tree.
    fn units(pmap: &PortMap) -> u16 {
        match pmap.plan {
            PlanKind::LeafSpine { n_leaves, .. } => n_leaves as u16,
            PlanKind::FatTree { half, n_edges, .. } => (n_edges / half) as u16,
        }
    }

    /// Partition the fabric into `n_shards` (2 ≤ `n_shards` ≤ units)
    /// contiguous groups of units: unit `u` → shard `u·n_shards/units`.
    /// Spine `s` rides with leaf `s % n_leaves`, core `c` with pod
    /// `c % n_pods`; hosts follow their leaf/edge, so host links are
    /// never cross-shard.
    fn new(pmap: &PortMap, n_shards: u16) -> ShardMap {
        let units = Self::units(pmap);
        debug_assert!((2..=units).contains(&n_shards));
        let group = |u: u16| (u32::from(u) * u32::from(n_shards) / u32::from(units)) as u16;
        let sw_owner: Vec<u16> = match pmap.plan {
            PlanKind::LeafSpine { n_spines, .. } => (0..units)
                .chain((0..n_spines as u16).map(|s| s % units))
                .map(group)
                .collect(),
            PlanKind::FatTree {
                half,
                n_edges,
                n_aggs,
            } => {
                let half = half as u16;
                (0..n_edges as u16)
                    .map(|e| e / half)
                    .chain((0..n_aggs as u16).map(|a| a / half))
                    .chain((0..half * half).map(|c| c % units))
                    .map(group)
                    .collect()
            }
        };
        debug_assert_eq!(sw_owner.len(), pmap.sw.len());
        let hpl = pmap.hosts_per_lb();
        let host_owner: Vec<u16> = (0..pmap.n_hosts)
            .map(|h| sw_owner[(h / hpl) as usize])
            .collect();
        let owner_of = |n: NodeRef| match n {
            NodeRef::Host(h) => host_owner[h as usize],
            NodeRef::Switch(sw) => sw_owner[sw as usize],
        };
        let port_owner: Vec<u16> = (0..pmap.n_ports() as u32)
            .map(|p| match pmap.decode(p) {
                super::PortRef::HostNic(h) => host_owner[h as usize],
                super::PortRef::Up { sw, .. } | super::PortRef::Down { sw, .. } => {
                    sw_owner[sw as usize]
                }
            })
            .collect();
        let arrive_owner: Vec<u16> = (0..pmap.n_ports() as u32)
            .map(|p| owner_of(pmap.next_node(p)))
            .collect();
        ShardMap {
            sw_owner,
            host_owner,
            port_owner,
            arrive_owner,
        }
    }
}

/// One replica's runtime handle on the partition.
pub(crate) struct ShardCtx {
    pub id: u16,
    pub map: Arc<ShardMap>,
    /// Cross-shard handoffs produced by this shard's events, drained and
    /// routed after every window (or every merged step).
    pub outbox: Vec<XMsg>,
    /// Per host (owned ones only; others stay non-positive): distinct
    /// data segments still to be taken in, minus the most one window can
    /// deliver (see the module docs). Positive = the host is far.
    excess: Vec<i64>,
    /// Owned hosts with a positive `excess`.
    far_hosts: usize,
}

impl ShardCtx {
    pub fn owns_host(&self, h: u32) -> bool {
        self.map.host_owner[h as usize] == self.id
    }
    pub fn owns_sw(&self, sw: usize) -> bool {
        self.map.sw_owner[sw] == self.id
    }

    /// Host `h`'s receiver took in one more distinct data segment.
    #[inline]
    pub fn segment_taken(&mut self, h: u32) {
        let e = &mut self.excess[h as usize];
        *e -= 1;
        if *e == 0 {
            self.far_hosts -= 1;
        }
    }
}

/// A packet crossing a shard boundary: "this packet finishes crossing
/// `port`'s link at `at`" — everything the owning shard needs to schedule
/// the `Arrive` with the exact key and timestamp the serial engine uses.
pub(crate) struct XMsg {
    pub port: PortId,
    pub at: SimTime,
    pub pkt: Packet,
}

/// A shard's mailbox: messages other shards routed to it, plus the
/// earliest pending within-horizon timestamp (`u64::MAX` when none) —
/// folded into the coordinator's global minimum so in-flight handoffs
/// keep the clock honest (the null-message role).
struct Inbox {
    msgs: Vec<XMsg>,
    min_at: u64,
}

const STATE_RUN: u8 = 0;
const STATE_DONE: u8 = 1;

/// Coordinator → workers control block, published between barriers.
struct Ctl {
    state: AtomicU8,
    window_end: AtomicU64,
}

/// Run `cfg` sharded, or return why a precondition fails and the caller
/// should use the serial engine.
pub(crate) fn try_run(
    cfg: &SimConfig,
    flows: &[FlowSpec],
    next_flow: &[Option<u32>],
    workers: Option<u32>,
    wall_start: std::time::Instant,
) -> Result<crate::report::RunReport, ShardFallback> {
    for (refused, reason) in [
        (
            cfg.fidelity == super::FidelityKind::Hybrid,
            ShardFallback::Hybrid,
        ),
        (
            next_flow.iter().any(Option::is_some),
            ShardFallback::Chained,
        ),
        (cfg.fault_drop_nth.is_some(), ShardFallback::FaultDropNth),
        (
            flows.len() >= 1 << super::KEY_ENTITY_BITS,
            ShardFallback::KeySpace,
        ),
    ] {
        if refused {
            return Err(reason);
        }
    }
    let pmap = PortMap::new(&cfg.topo);
    let units = ShardMap::units(&pmap);
    if units < 2 {
        return Err(ShardFallback::OneShard);
    }
    let workers = workers.map(|w| w as usize).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let n_shards = workers.clamp(2, units as usize);
    let n_workers = workers.clamp(1, n_shards);
    let map = ShardMap::new(&pmap, n_shards as u16);
    let lookahead = lookahead(cfg, &pmap, &map);
    if lookahead.is_zero() {
        return Err(ShardFallback::ZeroLookahead);
    }
    let map = Arc::new(map);
    let caps = segment_caps(cfg, lookahead);

    // Build every replica (in parallel — builds are independent).
    let mut slots: Vec<Option<Net>> = (0..n_shards).map(|_| None).collect();
    std::thread::scope(|sc| {
        for (sid, slot) in slots.iter_mut().enumerate() {
            let (map, caps) = (map.clone(), &caps);
            sc.spawn(move || {
                let ctx = ShardCtx {
                    id: sid as u16,
                    map,
                    outbox: Vec::new(),
                    excess: caps.iter().map(|&c| -c).collect(),
                    far_hosts: 0,
                };
                let mut net = Net::build(cfg, flows, next_flow.to_vec(), Some(ctx));
                let ctx = net.shard.as_mut().expect("just built sharded");
                for (f, &segs) in flows.iter().zip(&net.total_segs) {
                    if ctx.owns_host(f.dst.0) {
                        ctx.excess[f.dst.index()] += i64::from(segs);
                    }
                }
                ctx.far_hosts = ctx.excess.iter().filter(|&&e| e > 0).count();
                *slot = Some(net);
            });
        }
    });
    let nets: Vec<Mutex<Net>> = slots
        .into_iter()
        .map(|n| Mutex::new(n.expect("replica build panicked")))
        .collect();

    let run = Run {
        nets: &nets,
        inboxes: (0..n_shards)
            .map(|_| {
                Mutex::new(Inbox {
                    msgs: Vec::new(),
                    min_at: u64::MAX,
                })
            })
            .collect(),
        next_time: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
        far_hosts: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
        ctl: Ctl {
            state: AtomicU8::new(STATE_RUN),
            window_end: AtomicU64::new(0),
        },
        barrier: SpinBarrier::new(n_workers),
        sched: admin_schedule(cfg),
        horizon: cfg.horizon,
        total_flows: flows.len(),
        last_start: flows.iter().map(|f| f.start.as_nanos()).max().unwrap_or(0),
        lookahead,
        n_workers,
        windows: AtomicU64::new(0),
        tail_events: AtomicU64::new(0),
    };

    // Seed the published per-shard minimums so the coordinator's first
    // decision sees the real schedule.
    for (s, net) in nets.iter().enumerate() {
        let net = net.lock().unwrap();
        run.publish(s, &net);
    }

    std::thread::scope(|sc| {
        for w in 1..n_workers {
            let run = &run;
            sc.spawn(move || run.worker_loop(w));
        }
        run.worker_loop(0);
    });
    let windows = run.windows.into_inner();
    let tail_events = run.tail_events.into_inner();

    // Fold every replica into shard 0 and report from the merged state.
    let mut nets: Vec<Net> = nets.into_iter().map(|m| m.into_inner().unwrap()).collect();
    let mut base = nets.remove(0);
    for other in nets {
        base.absorb_shard(other);
    }
    base.finish_sharded_traces();
    base.shard = None;
    let mut report = base.into_report(wall_start.elapsed());
    report.engine_workers = Some(n_workers as u32);
    report.sharded_windows = windows;
    report.sharded_tail_events = tail_events;
    Ok(report)
}

/// The conservative lookahead: minimum propagation delay over every
/// cross-shard directed link, folded over the whole `LinkEvent` schedule
/// (a mid-run rewrite may shrink a delay; the lookahead must lower-bound
/// every state the link ever reaches).
fn lookahead(cfg: &SimConfig, pmap: &PortMap, map: &ShardMap) -> SimTime {
    let props_of = |p: PortId| match pmap.decode(p) {
        super::PortRef::HostNic(h) => cfg.topo.host_link_of(tlb_net::HostId(h)),
        super::PortRef::Up { sw, up } => cfg.topo.uplink_props(sw as usize, up as usize),
        super::PortRef::Down { .. } => {
            let rev = pmap.rev[p as usize];
            match pmap.decode(rev) {
                super::PortRef::HostNic(h) => cfg.topo.host_link_of(tlb_net::HostId(h)),
                super::PortRef::Up { sw, up } => cfg.topo.uplink_props(sw as usize, up as usize),
                super::PortRef::Down { .. } => unreachable!("downlink paired with a downlink"),
            }
        }
    };
    let mut min = SimTime::from_nanos(u64::MAX);
    for p in 0..pmap.n_ports() as u32 {
        if map.port_owner[p as usize] == map.arrive_owner[p as usize] {
            continue;
        }
        let mut prop = props_of(p).prop_delay;
        min = min.min(prop);
        // Replay this link's event schedule exactly like the serial
        // engine's pipe sizing does, tracking the smallest delay reached.
        let mut evs: Vec<&crate::config::LinkEvent> = cfg
            .link_events
            .iter()
            .filter(|ev| {
                let up = pmap.sw_up(ev.leaf.index() as u32, ev.spine.index() as u32);
                up == p || pmap.rev[up as usize] == p
            })
            .collect();
        evs.sort_by_key(|ev| ev.at);
        for ev in evs {
            prop = ev.new_prop_delay.unwrap_or(prop) + ev.extra_delay;
            min = min.min(prop);
        }
    }
    debug_assert!(min.as_nanos() < u64::MAX, "no cross-shard links");
    min
}

/// Per host: the most data segments one parallel window can deliver,
/// `Δ / tx_h(min_wire) + 2` — deliveries to a host are serialized by its
/// downlink (see the module docs).
fn segment_caps(cfg: &SimConfig, lookahead: SimTime) -> Vec<i64> {
    let min_wire = cfg.tcp.header_bytes.max(1) as u64;
    (0..cfg.topo.n_hosts())
        .map(|h| {
            let link = cfg.topo.host_link_of(tlb_net::HostId(h as u32));
            let tx = tlb_engine::time::tx_time(min_wire, link.bytes_per_sec)
                .as_nanos()
                .max(1);
            (lookahead.as_nanos() / tx + 2) as i64
        })
        .collect()
}

/// The merged, sorted schedule of admin (failure/link-change) event
/// times. Parallel windows never cross the next entry; micro-steps
/// consume entries as they execute.
fn admin_schedule(cfg: &SimConfig) -> Vec<u64> {
    let mut at: Vec<u64> = cfg
        .link_events
        .iter()
        .map(|e| e.at.as_nanos())
        .chain(cfg.failure_events.iter().map(|e| e.at.as_nanos()))
        .collect();
    at.sort_unstable();
    at
}

/// Everything the window protocol shares across worker threads.
struct Run<'n, 'a> {
    nets: &'n [Mutex<Net<'a>>],
    inboxes: Vec<Mutex<Inbox>>,
    next_time: Vec<AtomicU64>,
    /// Per shard: its far-host count (see the module docs).
    far_hosts: Vec<AtomicUsize>,
    ctl: Ctl,
    barrier: SpinBarrier,
    sched: Vec<u64>,
    horizon: SimTime,
    total_flows: usize,
    /// Latest flow start time (ns). A window whose end is at or before
    /// this cannot contain the final completion.
    last_start: u64,
    lookahead: SimTime,
    n_workers: usize,
    /// Parallel windows opened (surfaces in
    /// [`crate::report::RunReport::sharded_windows`]).
    windows: AtomicU64,
    /// Events run by the coordinator's merged loop (surfaces in
    /// [`crate::report::RunReport::sharded_tail_events`]).
    tail_events: AtomicU64,
}

impl<'n, 'a> Run<'n, 'a> {
    /// Publish shard `s`'s next within-horizon timestamp and far-host
    /// count (read by the coordinator after the barrier).
    fn publish(&self, s: usize, net: &Net) {
        let t = match net.q.peek_time() {
            Some(t) if t <= self.horizon => t.as_nanos(),
            _ => u64::MAX,
        };
        self.next_time[s].store(t, Ordering::Release);
        let far = net.shard.as_ref().map_or(0, |c| c.far_hosts);
        self.far_hosts[s].store(far, Ordering::Release);
    }

    /// The window protocol, from every worker's point of view. Worker 0
    /// doubles as the coordinator: it decides each window (running
    /// micro-steps and the serialized tail itself, while the other
    /// workers are parked at the barrier), publishes the decision, and
    /// then works its own shards like everyone else.
    fn worker_loop(&self, w: usize) {
        let n_shards = self.nets.len();
        let mut scratch: Vec<Vec<XMsg>> = (0..n_shards).map(|_| Vec::new()).collect();
        // Coordinator-only: index of the next unconsumed admin time.
        let mut sched_at = 0usize;
        loop {
            if w == 0 {
                self.decide(&mut sched_at);
            }
            self.barrier.wait();
            if self.ctl.state.load(Ordering::Acquire) == STATE_DONE {
                break;
            }
            let end = SimTime::from_nanos(self.ctl.window_end.load(Ordering::Acquire));
            let mut s = w;
            while s < n_shards {
                self.phase_a(s, end, &mut scratch);
                s += self.n_workers;
            }
            self.barrier.wait();
        }
    }

    /// One shard's share of a parallel window: ingest handoffs, run every
    /// local event strictly before `end`, route produced handoffs, publish
    /// the new local minimum.
    fn phase_a(&self, s: usize, end: SimTime, scratch: &mut [Vec<XMsg>]) {
        let mut net = self.nets[s].lock().unwrap();
        let msgs = {
            let mut ib = self.inboxes[s].lock().unwrap();
            ib.min_at = u64::MAX;
            std::mem::take(&mut ib.msgs)
        };
        for m in msgs {
            net.inject_arrival(m.port, m.at, m.pkt);
        }
        net.run_window(end, self.horizon);
        self.route_outbox(&mut net, scratch);
        self.publish(s, &net);
    }

    /// Drain a shard's outbox into the target shards' inboxes, batched
    /// per target (one lock per destination; per-port message order — the
    /// only order that matters — is preserved).
    fn route_outbox(&self, net: &mut Net, scratch: &mut [Vec<XMsg>]) {
        let ctx = net.shard.as_mut().expect("sharded net without ctx");
        let ShardCtx { map, outbox, .. } = ctx;
        if outbox.is_empty() {
            return;
        }
        for m in outbox.drain(..) {
            scratch[map.arrive_owner[m.port as usize] as usize].push(m);
        }
        for (t, batch) in scratch.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let bmin = batch
                .iter()
                .map(|m| m.at)
                .filter(|&at| at <= self.horizon)
                .min()
                .map(|t| t.as_nanos());
            let mut ib = self.inboxes[t].lock().unwrap();
            if let Some(bmin) = bmin {
                ib.min_at = ib.min_at.min(bmin);
            }
            ib.msgs.append(batch);
        }
    }

    /// The coordinator's between-windows step: find the global minimum,
    /// then either declare the run done (nothing left before the
    /// horizon), execute a micro-step (admin event), finish serially
    /// (completion tail), or open the next parallel window. Every window
    /// and micro-step leaves a flow incomplete (see the module docs), so
    /// completion is only ever reached inside the tail. Runs with every
    /// other worker parked at the barrier, so locking all shards is
    /// deadlock-free.
    fn decide(&self, sched_at: &mut usize) {
        loop {
            let mut t_min = u64::MAX;
            for s in 0..self.nets.len() {
                t_min = t_min.min(self.next_time[s].load(Ordering::Acquire));
                t_min = t_min.min(self.inboxes[s].lock().unwrap().min_at);
            }
            if t_min == u64::MAX {
                self.finish();
                return;
            }
            let next_sched = self.sched.get(*sched_at).copied().unwrap_or(u64::MAX);
            let end = t_min
                .saturating_add(self.lookahead.as_nanos())
                .min(next_sched);
            // The run can only end inside the candidate window if every
            // flow starts strictly before its end (events run strictly
            // before `end`, so a later FlowStart cannot even be popped)
            // AND no host is far. Only then fall back to the serialized
            // tail.
            let far: usize = self
                .far_hosts
                .iter()
                .map(|f| f.load(Ordering::Acquire))
                .sum();
            if self.last_start < end && far == 0 {
                self.merged_loop(None);
                self.finish();
                return;
            }
            if next_sched <= t_min {
                debug_assert_eq!(next_sched, t_min, "admin event skipped a window");
                self.merged_loop(Some(SimTime::from_nanos(next_sched)));
                while self.sched.get(*sched_at).copied() == Some(next_sched) {
                    *sched_at += 1;
                }
                continue;
            }
            self.windows.fetch_add(1, Ordering::Relaxed);
            self.ctl.window_end.store(end, Ordering::Release);
            self.ctl.state.store(STATE_RUN, Ordering::Release);
            return;
        }
    }

    fn finish(&self) {
        // Flush still-parked handoffs into their owners' FELs so the
        // end-of-run audit counts them as propagating residuals, exactly
        // like the serial engine's leftover in-flight packets.
        self.flush_inboxes();
        self.ctl.state.store(STATE_DONE, Ordering::Release);
    }

    fn flush_inboxes(&self) {
        for (s, ib) in self.inboxes.iter().enumerate() {
            let mut ib = ib.lock().unwrap();
            if ib.msgs.is_empty() {
                continue;
            }
            ib.min_at = u64::MAX;
            let mut net = self.nets[s].lock().unwrap();
            for m in ib.msgs.drain(..) {
                net.inject_arrival(m.port, m.at, m.pkt);
            }
        }
    }

    /// The cross-shard merge: ingest every parked handoff, then
    /// repeatedly pop the `(time, key)`-minimum event over all shard FELs
    /// and dispatch it on its shard, routing handoffs immediately; finally
    /// publish every shard's new state. `Some(at)` = micro-step (only
    /// events at exactly `at`, mirroring admin mutations into every
    /// replica); `None` = completion tail (the serial loop's termination:
    /// stop the instant the last flow completes, never pop past the
    /// horizon).
    ///
    /// Single-origin-per-key makes the tie order exact: a `(time, key)`
    /// collision across two shards is impossible, and within a shard the
    /// FEL's own `(time, key, seq)` order applies.
    fn merged_loop(&self, only_at: Option<SimTime>) {
        self.flush_inboxes();
        let mut guards: Vec<_> = self.nets.iter().map(|m| m.lock().unwrap()).collect();
        let mut done: usize = guards.iter().map(|g| g.n_completed).sum();
        let mut outbox = Vec::new();
        let mut events = 0u64;
        loop {
            if only_at.is_none() && done >= self.total_flows {
                break;
            }
            let mut best: Option<(u64, u32, usize)> = None;
            for (s, g) in guards.iter().enumerate() {
                if let Some((t, k)) = g.q.peek_time_key() {
                    let cand = (t.as_nanos(), k, s);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            let Some((t, key, s)) = best else { break };
            match only_at {
                Some(at) if t != at.as_nanos() => break,
                _ => {}
            }
            if t > self.horizon.as_nanos() {
                break;
            }
            // Admin events mutate state every replica reads: dispatch on
            // the owning shard (accounting included), then mirror the
            // mutation everywhere else.
            let class = key >> super::KEY_ENTITY_BITS;
            let entity = (key & ((1 << super::KEY_ENTITY_BITS) - 1)) as usize;
            let before = guards[s].n_completed;
            guards[s].step();
            events += 1;
            done += guards[s].n_completed - before;
            if class == 6 || class == 7 {
                for (r, g) in guards.iter_mut().enumerate() {
                    if r == s {
                        continue;
                    }
                    if class == 6 {
                        g.apply_link_change(entity);
                    } else {
                        g.apply_failure(entity);
                    }
                }
            }
            // Route this event's handoffs immediately — the merge may
            // reach their timestamps before the next barrier.
            let ctx = guards[s].shard.as_mut().expect("sharded net without ctx");
            if !ctx.outbox.is_empty() {
                outbox.append(&mut ctx.outbox);
                for m in outbox.drain(..) {
                    let target = guards[s]
                        .shard
                        .as_ref()
                        .expect("sharded net without ctx")
                        .map
                        .arrive_owner[m.port as usize] as usize;
                    guards[target].inject_arrival(m.port, m.at, m.pkt);
                }
            }
        }
        self.tail_events.fetch_add(events, Ordering::Relaxed);
        for (s, g) in guards.iter().enumerate() {
            self.publish(s, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::Scheme;

    /// Every shard owns a switch and a host, unit owners are contiguous
    /// and cover `0..n_shards` in order, every host lives with its
    /// leaf/edge (its NIC link never crosses shards), and the lookahead
    /// equals the one-shard-per-unit partition's.
    fn check_grouped(cfg: &SimConfig, unit_of_lb: impl Fn(usize) -> usize, n_shards: u16) {
        let pmap = PortMap::new(&cfg.topo);
        let units = ShardMap::units(&pmap);
        let map = ShardMap::new(&pmap, n_shards);
        for s in 0..n_shards {
            assert!(map.sw_owner.contains(&s), "shard {s} owns no switch");
            assert!(map.host_owner.contains(&s), "shard {s} owns no host");
        }
        let mut unit_owner = vec![None; units as usize];
        for l in 0..pmap.n_lb as usize {
            let u = unit_of_lb(l);
            assert!(
                unit_owner[u].is_none_or(|o| o == map.sw_owner[l]),
                "unit {u} split across shards"
            );
            unit_owner[u] = Some(map.sw_owner[l]);
        }
        let unit_owner: Vec<u16> = unit_owner.into_iter().map(Option::unwrap).collect();
        assert_eq!(unit_owner[0], 0);
        for w in unit_owner.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1, "non-contiguous groups");
        }
        assert_eq!(*unit_owner.last().unwrap(), n_shards - 1);
        let hpl = pmap.hosts_per_lb();
        for h in 0..pmap.n_hosts {
            assert_eq!(map.host_owner[h as usize], map.sw_owner[(h / hpl) as usize]);
            let nic = pmap.host_nic(h);
            assert_eq!(map.port_owner[nic as usize], map.arrive_owner[nic as usize]);
        }
        let per_unit = ShardMap::new(&pmap, units);
        assert_eq!(
            lookahead(cfg, &pmap, &map),
            lookahead(cfg, &pmap, &per_unit)
        );
    }

    #[test]
    fn leaf_spine_8x8_groups_leaves_contiguously() {
        let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = tlb_net::LeafSpineBuilder::new(8, 8, 4).build().into();
        for n_shards in [2, 3, 8] {
            check_grouped(&cfg, |leaf| leaf, n_shards);
        }
        // Every cross-shard link is a leaf↔spine pair; the minimum is the
        // fabric's uplink propagation delay.
        let pmap = PortMap::new(&cfg.topo);
        let la = lookahead(&cfg, &pmap, &ShardMap::new(&pmap, 2));
        assert_eq!(la, cfg.topo.uplink_props(0, 1).prop_delay);
    }

    #[test]
    fn fat_tree_k8_groups_pods_contiguously() {
        let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = tlb_net::FatTreeBuilder::new(8).build().into();
        let ft = cfg.topo.as_fat_tree().unwrap().clone();
        // LB switches are edges, then aggs; both sit in pod `index / half`.
        let half = ft.half();
        let n_edges = ft.n_edges();
        let unit = move |l: usize| if l < n_edges { l } else { l - n_edges } / half;
        for n_shards in [2, 4] {
            check_grouped(&cfg, unit, n_shards);
        }
    }
}

//! The event-driven network: forwarding, serialization, endpoints, metrics.
//!
//! Node/queue layout for a leaf-spine fabric (all queues are
//! [`tlb_switch::OutPort`]s):
//!
//! ```text
//! host NIC ──> leaf { uplinks[spine] ──> spine { downlinks[leaf] ──> leaf { downlinks[host] ──> host
//! ```
//!
//! A three-tier fat tree adds one more load-balanced tier: edge uplinks
//! spray over the pod's aggs, agg uplinks spray over their core group, and
//! cores/aggs/edges route deterministically downward by destination pod /
//! edge / host slot.
//!
//! The load balancers run at the *upstream* switches: every packet headed
//! to a higher tier goes through `LoadBalancer::choose_uplink` at each
//! LB switch it climbs. Downward forwarding is single-path.
//!
//! ## Hot-path layout
//!
//! All output ports live in one flat `Vec<OutPort>` indexed by [`PortId`]
//! (hosts' NICs, then per switch its uplinks followed by its downlinks —
//! see [`PortMap`]), with the next-hop node precomputed per port. Load
//! balancers dispatch statically through [`crate::AnyLb`].
//!
//! ## Failures
//!
//! [`crate::config::FailureEvent`]s flip ports administratively down/up at
//! their scheduled time: queued and in-service packets drain normally,
//! new admissions drop with ordinary accounting, and per-destination
//! reachability masks are recomputed so every LB decision sees only the
//! uplinks that can still reach the packet's destination group. Runs
//! without failure events never consult the masks and are bit-identical
//! to the historical static-fabric paths.
//!
//! ## Arrivals
//!
//! Every packet crossing a link is one `Arrive` event: when a port
//! finishes serializing, the packet parks in the [`PacketArena`] and the
//! event carries its 4-byte slot handle, scheduled one propagation delay
//! later. The serial and the sharded engine share this one arrival path —
//! a cross-shard handoff is the same `Arrive`, scheduled by the receiving
//! shard. FEL occupancy is therefore at most one `TxDone` per port, one
//! `Arrive` per packet in flight (exactly the arena's live slots), and the
//! pending flow starts, timers, housekeeping and fluid completions; the
//! run loop enforces that bound whenever the audit is on.

use crate::audit::{AuditLedger, PortAudit};
use crate::config::{FidelityKind, SimConfig};
use crate::dispatch::AnyLb;
use crate::report::{AllocAudit, ClassCounters, RunReport};
use tlb_engine::{alloc_audit, EventQueue, SimRng, SimTime};
use tlb_metrics::{FctRecorder, FlowClass, SampleSet, TimeSeries};
use tlb_net::{
    Fabric, FluidNet, HostId, LinkProps, Packet, PacketArena, PacketSlot, PktKind, MAX_FLUID_PATH,
};
use tlb_switch::{Enqueued, LoadBalancer, OutPort, PortView};
use tlb_transport::{OooPool, SenderOutput, TcpReceiver, TcpSender};
use tlb_workload::FlowSpec;

/// Index into the flat port table (see [`PortMap`]).
type PortId = u32;

/// A specific output queue in the fabric — the decoded form of a
/// [`PortId`], used for traces and audit labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PortRef {
    /// Host `h`'s NIC queue (towards its leaf/edge).
    HostNic(u32),
    /// Switch `sw`'s uplink `up`. Only LB switches have uplinks, so `sw`
    /// always indexes `PortMap::sw[0..n_lb]`.
    Up { sw: u16, up: u16 },
    /// Switch `sw`'s downlink `down` (towards a host, or a lower tier).
    Down { sw: u16, down: u16 },
}

/// Where a packet lands after crossing a link.
#[derive(Clone, Copy, Debug)]
enum NodeRef {
    Host(u32),
    Switch(u16),
}

/// One switch's port spans in the flat table: uplinks first, then
/// downlinks.
#[derive(Clone, Copy, Debug)]
struct SwPorts {
    up_base: u32,
    n_up: u32,
    down_base: u32,
    n_down: u32,
}

/// Fabric-specific routing constants, resolved once at build.
#[derive(Clone, Copy, Debug)]
enum PlanKind {
    /// Two tiers: leaves (LB) under spines.
    LeafSpine {
        n_leaves: u32,
        n_spines: u32,
        hpl: u32,
    },
    /// Three tiers: edges and aggs (both LB) under cores; `k = 2 * half`.
    FatTree {
        half: u32,
        n_edges: u32,
        n_aggs: u32,
    },
}

/// The flat port-table layout: hosts' NICs first, then per switch its
/// uplinks followed by its downlinks. Switch order is leaves-then-spines
/// (leaf-spine) or edges-then-aggs-then-cores (fat tree), so the LB
/// switches are exactly `sw[0..n_lb]` and their uplinks are contiguous —
/// the load balancer's [`PortView`] is a plain slice of the table.
struct PortMap {
    /// Hosts' NIC ports occupy `[0, n_hosts)`.
    n_hosts: u32,
    /// Per-switch port spans (LB switches first).
    sw: Vec<SwPorts>,
    /// Switches that run a load balancer: `sw[0..n_lb]`.
    n_lb: u32,
    n_ports: u32,
    plan: PlanKind,
    /// Decoded form of every port (traces, audit labels, hop metrics).
    port_ref: Vec<PortRef>,
    /// The reverse-direction port of each port's (undirected) link.
    rev: Vec<PortId>,
}

impl PortMap {
    fn new(topo: &Fabric) -> PortMap {
        let n_hosts = topo.n_hosts() as u32;
        let n_lb = topo.n_lb_switches() as u32;
        let (plan, shape): (PlanKind, Vec<(u32, u32)>) = match topo {
            Fabric::LeafSpine(t) => {
                let (nl, ns) = (t.n_leaves() as u32, t.n_spines() as u32);
                let hpl = t.hosts_per_leaf() as u32;
                let mut sh = Vec::with_capacity((nl + ns) as usize);
                sh.extend((0..nl).map(|_| (ns, hpl)));
                sh.extend((0..ns).map(|_| (0, nl)));
                (
                    PlanKind::LeafSpine {
                        n_leaves: nl,
                        n_spines: ns,
                        hpl,
                    },
                    sh,
                )
            }
            Fabric::FatTree(t) => {
                let half = t.half() as u32;
                let (ne, na, nc) = (t.n_edges() as u32, t.n_aggs() as u32, t.n_cores() as u32);
                let mut sh = Vec::with_capacity((ne + na + nc) as usize);
                sh.extend((0..ne + na).map(|_| (half, half)));
                sh.extend((0..nc).map(|_| (0, t.k() as u32)));
                (
                    PlanKind::FatTree {
                        half,
                        n_edges: ne,
                        n_aggs: na,
                    },
                    sh,
                )
            }
        };
        let mut sw = Vec::with_capacity(shape.len());
        let mut next = n_hosts;
        for (n_up, n_down) in shape {
            sw.push(SwPorts {
                up_base: next,
                n_up,
                down_base: next + n_up,
                n_down,
            });
            next += n_up + n_down;
        }
        let mut pm = PortMap {
            n_hosts,
            sw,
            n_lb,
            n_ports: next,
            plan,
            port_ref: Vec::new(),
            rev: Vec::new(),
        };
        pm.port_ref = (0..next).map(|p| pm.decode_arith(p)).collect();
        // Every downlink is the reverse of exactly one host NIC or uplink;
        // fill both directions of each pair from the NIC/uplink side.
        let mut rev = vec![u32::MAX; next as usize];
        for p in 0..next {
            let d = match pm.port_ref[p as usize] {
                PortRef::HostNic(h) => {
                    let hpl = pm.hosts_per_lb();
                    pm.sw_down(h / hpl, h % hpl)
                }
                PortRef::Up { sw, up } => pm.up_peer_down(sw as u32, up as u32),
                PortRef::Down { .. } => continue,
            };
            rev[p as usize] = d;
            rev[d as usize] = p;
        }
        debug_assert!(rev.iter().all(|&r| r != u32::MAX), "unpaired port");
        pm.rev = rev;
        pm
    }

    /// Hosts attached per LB switch at the bottom tier.
    #[inline]
    fn hosts_per_lb(&self) -> u32 {
        match self.plan {
            PlanKind::LeafSpine { hpl, .. } => hpl,
            PlanKind::FatTree { half, .. } => half,
        }
    }

    /// The downlink on the far switch that terminates LB switch `s`'s
    /// uplink `u`.
    fn up_peer_down(&self, s: u32, u: u32) -> PortId {
        match self.plan {
            // leaf s, uplink u <-> spine u's downlink s.
            PlanKind::LeafSpine { n_leaves, .. } => self.sw_down(n_leaves + u, s),
            PlanKind::FatTree {
                half,
                n_edges,
                n_aggs,
            } => {
                if s < n_edges {
                    // edge (pod p) uplink j <-> agg (p, j)'s downlink to it.
                    let p = s / half;
                    self.sw_down(n_edges + p * half + u, s % half)
                } else {
                    // agg (p, j) uplink m <-> core (j, m)'s downlink to pod p.
                    let a = s - n_edges;
                    let (p, j) = (a / half, a % half);
                    self.sw_down(n_edges + n_aggs + j * half + u, p)
                }
            }
        }
    }

    /// Decode a port id arithmetically (build-time; the hot path uses the
    /// precomputed `port_ref` table via [`PortMap::decode`]).
    fn decode_arith(&self, p: PortId) -> PortRef {
        if p < self.n_hosts {
            return PortRef::HostNic(p);
        }
        let rel = p - self.n_hosts;
        match self.plan {
            PlanKind::LeafSpine {
                n_leaves,
                n_spines,
                hpl,
            } => {
                let leaf_stride = n_spines + hpl;
                let leaf_ports = n_leaves * leaf_stride;
                if rel < leaf_ports {
                    let (sw, off) = (rel / leaf_stride, rel % leaf_stride);
                    if off < n_spines {
                        PortRef::Up {
                            sw: sw as u16,
                            up: off as u16,
                        }
                    } else {
                        PortRef::Down {
                            sw: sw as u16,
                            down: (off - n_spines) as u16,
                        }
                    }
                } else {
                    let srel = rel - leaf_ports;
                    PortRef::Down {
                        sw: (n_leaves + srel / n_leaves) as u16,
                        down: (srel % n_leaves) as u16,
                    }
                }
            }
            PlanKind::FatTree {
                half,
                n_edges,
                n_aggs,
            } => {
                // Every fat-tree switch has exactly k = 2*half ports.
                let k = 2 * half;
                let (sw, off) = (rel / k, rel % k);
                if sw < n_edges + n_aggs && off < half {
                    PortRef::Up {
                        sw: sw as u16,
                        up: off as u16,
                    }
                } else if sw < n_edges + n_aggs {
                    PortRef::Down {
                        sw: sw as u16,
                        down: (off - half) as u16,
                    }
                } else {
                    PortRef::Down {
                        sw: sw as u16,
                        down: off as u16,
                    }
                }
            }
        }
    }

    #[inline]
    fn n_ports(&self) -> usize {
        self.n_ports as usize
    }

    #[inline]
    fn host_nic(&self, h: u32) -> PortId {
        h
    }

    #[inline]
    fn sw_up(&self, s: u32, up: u32) -> PortId {
        self.sw[s as usize].up_base + up
    }

    #[inline]
    fn sw_down(&self, s: u32, down: u32) -> PortId {
        self.sw[s as usize].down_base + down
    }

    /// The contiguous slice of LB switch `s`'s uplinks in the port table.
    #[inline]
    fn up_range(&self, s: usize) -> std::ops::Range<usize> {
        let sp = &self.sw[s];
        sp.up_base as usize..(sp.up_base + sp.n_up) as usize
    }

    /// Whether `p` is an LB switch's uplink (the queues the balancers
    /// control — the short-flow qdelay metric samples exactly these).
    #[inline]
    fn is_lb_up(&self, p: PortId) -> bool {
        matches!(self.port_ref[p as usize], PortRef::Up { .. })
    }

    #[inline]
    fn decode(&self, p: PortId) -> PortRef {
        self.port_ref[p as usize]
    }

    /// The node a packet reaches after crossing port `p`'s link: the far
    /// end of the reverse port's switch, or the host behind a NIC pair.
    fn next_node(&self, p: PortId) -> NodeRef {
        match self.port_ref[self.rev[p as usize] as usize] {
            PortRef::HostNic(h) => NodeRef::Host(h),
            PortRef::Up { sw, .. } | PortRef::Down { sw, .. } => NodeRef::Switch(sw),
        }
    }
}

#[derive(Debug)]
enum Event {
    /// A flow's start time arrived.
    FlowStart(u32),
    /// The packet in service on `port` finished serializing.
    TxDone(PortId),
    /// A packet arrives after crossing `port`'s link. The packet itself
    /// parks in the [`PacketArena`]; the event carries its 4-byte
    /// generation-checked handle, so the hot enum stays one word of payload
    /// with no heap round-trip per packet.
    Arrive { port: PortId, slot: PacketSlot },
    /// A sender's retransmission timer fires.
    Timer { flow: u32 },
    /// An LB switch balancer's periodic tick.
    LbTick { sw: u16 },
    /// Apply the `i`-th configured [`crate::config::LinkEvent`].
    LinkChange(u32),
    /// Apply the `i`-th configured [`crate::config::FailureEvent`].
    Failure(u32),
    /// Sample leaf-0's uplink queues (Fig. 5 visualization).
    QueueSample,
    /// A fluid-tier flow's projected completion time arrived (hybrid
    /// fidelity only). The FEL has no removal, so superseded projections
    /// stay queued and are filtered at the pop by the flow's fluid
    /// generation counter.
    FluidDone { flow: u32, gen: u32 },
}

/// Bits of an event-ordering key reserved for the entity index; the top
/// five bits hold the class rank.
const KEY_ENTITY_BITS: u32 = 27;

#[inline]
fn key_of(class: u32, entity: u32) -> u32 {
    debug_assert!(class < 32);
    debug_assert!(entity < (1 << KEY_ENTITY_BITS), "entity overflows its key");
    (class << KEY_ENTITY_BITS) | entity
}

/// The FEL ordering key of an event: `(class rank << 27) | entity`. Both
/// engines order same-timestamp events by this key before falling back to
/// per-queue FIFO, which is what makes the sharded engine's cross-shard
/// merge reconstruct the serial schedule: each `(class, entity)` pair is
/// pushed by exactly one shard, so same-`(time, key)` ties are always
/// same-shard (ordered by that shard's local FIFO `seq`, exactly the
/// relative order a serial run assigns) and cross-shard order is settled
/// by `(time, key)` alone. An `Arrive` is keyed by its transmitting port,
/// so a cross-shard handoff — scheduled by the receiving shard — sorts
/// exactly where the sending shard's own push would have.
#[inline]
fn event_key(ev: &Event) -> u32 {
    match *ev {
        Event::FlowStart(f) => key_of(0, f),
        Event::Timer { flow } => key_of(1, flow),
        Event::Arrive { port, .. } => key_of(2, port),
        Event::TxDone(p) => key_of(3, p),
        Event::LbTick { sw } => key_of(4, sw as u32),
        Event::QueueSample => key_of(5, 0),
        Event::LinkChange(i) => key_of(6, i),
        Event::Failure(i) => key_of(7, i),
        Event::FluidDone { flow, .. } => key_of(8, flow),
    }
}

/// Push `ev` with its ordering key (every FEL insertion in this module
/// goes through here, so both engines realize the same `(time, key, seq)`
/// order).
#[inline]
fn push_ev(q: &mut EventQueue<Event>, at: SimTime, ev: Event) {
    let key = event_key(&ev);
    q.push_keyed(at, key, ev);
}

/// An LB switch's control state (its ports live in the flat table).
struct LbSw {
    lb: AnyLb,
    rng: SimRng,
}

/// One configured simulation, ready to run.
pub struct Simulation {
    cfg: SimConfig,
    flows: Vec<FlowSpec>,
    /// `next[i] = Some(j)`: flow `j` starts when flow `i` completes
    /// (closed-loop chains). Chain heads start at their `start` time;
    /// chained flows' `start` fields are ignored.
    next: Vec<Option<u32>>,
}

struct Net<'a> {
    cfg: &'a SimConfig,
    flows: &'a [FlowSpec],
    pmap: PortMap,
    /// Every output queue in the fabric, laid out per [`PortMap`].
    ports: Vec<OutPort>,
    /// Precomputed next hop per port.
    next_node: Vec<NodeRef>,
    /// One balancer per LB switch (leaves, or edges then aggs).
    lb_sws: Vec<LbSw>,
    /// Whether any failure events are configured (constant per run):
    /// gates every mask lookup so failure-free runs never touch them.
    has_failures: bool,
    /// Per-(LB switch, destination group) usable-uplink masks, indexed
    /// `sw * n_groups + group`; groups are destination leaves
    /// (leaf-spine) or destination edges (fat tree). Empty unless
    /// `has_failures`.
    reach: Vec<u64>,
    /// Columns of `reach`.
    n_groups: usize,
    /// Per-port FIFO floor: the latest arrival time already scheduled on
    /// each link. A mid-run propagation-delay *decrease* would otherwise
    /// let later packets overtake earlier ones on the same wire — links
    /// are FIFO, so arrivals clamp to this floor (a no-op whenever a
    /// link's delay never shrinks, which keeps legacy runs bit-identical).
    link_fifo: Vec<SimTime>,
    senders: Vec<Option<TcpSender>>,
    receivers: Vec<Option<TcpReceiver>>,
    next_flow: Vec<Option<u32>>,
    total_segs: Vec<u32>,
    /// Per-flow short/long classification, precomputed at build so the
    /// per-packet paths index a bitvec instead of re-deriving it from the
    /// flow table.
    is_short: Vec<bool>,
    completed: Vec<bool>,
    n_completed: usize,
    q: EventQueue<Event>,
    /// Parking lot for in-flight packets (`Event::Arrive` carries a slot
    /// handle).
    arena: PacketArena,
    /// Recycles receivers' out-of-order buffers across flow lifetimes.
    ooo_pool: OooPool,
    out_buf: Vec<SenderOutput>,
    /// Allocation counters captured when `events` crossed the configured
    /// warmup boundary (see [`SimConfig::alloc_warmup_events`]).
    alloc_at_warmup: Option<alloc_audit::AllocCounters>,
    /// Steady-state allocation report, filled at run-loop exit.
    alloc_report: Option<AllocAudit>,
    // FEL-occupancy bound bookkeeping.
    /// `FlowStart` events pending in the FEL.
    starts_pending: u64,
    /// `Timer` events pending in the FEL.
    timers_live: u64,
    /// `LbTick`/`LinkChange`/`QueueSample` events pending in the FEL.
    misc_pending: u64,
    /// Peak of the occupancy bound over the depth-sample schedule.
    fel_bound_peak: u64,
    // Metrics.
    fct: FctRecorder,
    short_qlen: SampleSet,
    long_qlen: SampleSet,
    short_qdelay: SampleSet,
    /// FEL occupancy sampled every [`FEL_DEPTH_SAMPLE_EVERY`] events.
    fel_depth: SampleSet,
    short_qdelay_series: TimeSeries,
    short_reorder: TimeSeries,
    long_reorder: TimeSeries,
    long_goodput: TimeSeries,
    qth_series: Vec<(f64, f64)>,
    traced: Vec<bool>,
    traces: Vec<crate::report::TraceEvent>,
    queue_series: Vec<(f64, Vec<u32>)>,
    lb_state_peak: usize,
    lb_decisions: u64,
    events: u64,
    /// Packet-lifecycle ledger (no-op unless [`SimConfig::audit`]).
    audit: AuditLedger,
    /// Arrival events seen, for [`SimConfig::fault_drop_nth`].
    arrive_seen: u64,
    // Hybrid fidelity (long-flow fluid tails). `fluid` is `Some` iff the
    // run uses [`FidelityKind::Hybrid`]; every hybrid code path is gated
    // on it, so packet-fidelity runs execute the historical per-packet
    // paths bit-for-bit.
    fluid: Option<FluidNet>,
    /// Per-flow: has ever migrated packet→fluid (audit bookkeeping). A
    /// flow demoted by a failure reroutes at packet fidelity, then may
    /// migrate *again* once it re-qualifies over a healthy path; stale
    /// `FluidDone`s from earlier residencies die on the generation
    /// counter.
    migrated: Vec<bool>,
    /// Per-flow: fluid tail still in flight (completion waits for it).
    fluid_pend: Vec<bool>,
    /// Per-flow payload bytes handed to the fluid tier at the *latest*
    /// migration. Allocated only under hybrid fidelity.
    fluid_tail_bytes: Vec<u64>,
    /// Per-flow payload bytes the fluid tier actually delivered, summed
    /// over every residency — equal to the tail sizes handed over unless
    /// a demotion returned a remainder mid-tail. Allocated only under
    /// hybrid fidelity.
    fluid_credit: Vec<u64>,
    /// `FluidDone` events pending in the FEL, stale ones included (part of
    /// the FEL occupancy bound).
    fluid_events_pending: u64,
    fluid_migrations: u64,
    fluid_demotions: u64,
    fluid_bytes: u64,
    /// Scratch for collecting failure-demoted fluid flows.
    demote_scratch: Vec<u32>,
    /// Sharded-engine context: `Some` iff this `Net` is one shard's
    /// replica of the fabric (see [`sharded`]). Serial runs never set it
    /// and every sharded hook is gated on it.
    shard: Option<sharded::ShardCtx>,
    /// Ordering key of the event currently dispatching (trace tagging).
    cur_key: u32,
    /// Per-row ordering keys for `traces`, recorded only under sharding:
    /// the report merge stable-sorts the concatenated shard traces by
    /// `(at, key)`, which reconstructs the serial emission order.
    trace_keys: Vec<u32>,
    /// Event count at which to capture the allocation-audit baseline
    /// (`u64::MAX` = off; sharded replicas never arm it).
    warmup_at: u64,
}

impl Simulation {
    /// Configure a simulation over the given flow set (all flows start at
    /// their `start` time).
    pub fn new(cfg: SimConfig, flows: Vec<FlowSpec>) -> Simulation {
        cfg.validate().expect("invalid simulation configuration");
        let n = flows.len();
        Simulation {
            cfg,
            flows,
            next: vec![None; n],
        }
    }

    /// Configure a closed-loop simulation: `next[i] = Some(j)` makes flow
    /// `j` start back-to-back when flow `i` delivers its last byte — the
    /// way a request/response client keeps a sustained number of flows in
    /// flight. Chained flows must not also have their own start event, so
    /// every index that appears as someone's `next` is launched only by its
    /// predecessor.
    pub fn new_chained(cfg: SimConfig, flows: Vec<FlowSpec>, next: Vec<Option<u32>>) -> Simulation {
        cfg.validate().expect("invalid simulation configuration");
        assert_eq!(
            flows.len(),
            next.len(),
            "next pointers must cover all flows"
        );
        // No flow may be the successor of two predecessors.
        let mut seen = vec![false; flows.len()];
        for &n in next.iter().flatten() {
            let i = n as usize;
            assert!(i < flows.len(), "next pointer out of range");
            assert!(!seen[i], "flow {i} chained twice");
            seen[i] = true;
        }
        Simulation { cfg, flows, next }
    }

    /// Run to completion (all flows done or horizon reached) and report.
    pub fn run(self) -> RunReport {
        run_with(&self.cfg, &self.flows, self.next)
    }
}

/// Run one simulation over borrowed inputs. [`Simulation::run`] and the
/// clone-free [`crate::runner::run_one_ref`] both land here.
pub(crate) fn run_with(
    cfg: &SimConfig,
    flows: &[FlowSpec],
    next_flow: Vec<Option<u32>>,
) -> RunReport {
    let wall_start = std::time::Instant::now();
    // Preconditions unmet (hybrid fidelity, chained flows, injected
    // drops, a single-unit topology, or zero lookahead): the serial
    // engine is the sharded engine's own fallback, digest-identical by
    // definition.
    let fallback = match cfg.engine {
        tlb_engine::EngineKind::Sharded { workers } => {
            match sharded::try_run(cfg, flows, &next_flow, workers, wall_start) {
                Ok(report) => return report,
                Err(reason) => Some(reason),
            }
        }
        tlb_engine::EngineKind::Serial => None,
    };
    let mut net = Net::build(cfg, flows, next_flow, None);
    net.run_loop();
    let mut report = net.into_report(wall_start.elapsed());
    report.engine_fallback = fallback;
    report
}

impl<'a> Net<'a> {
    fn build(
        cfg: &'a SimConfig,
        flows: &'a [FlowSpec],
        next_flow: Vec<Option<u32>>,
        shard: Option<sharded::ShardCtx>,
    ) -> Net<'a> {
        let topo = &cfg.topo;
        let mut master_rng = SimRng::new(cfg.seed);
        let pmap = PortMap::new(topo);

        // Every directed port takes its link physics from the undirected
        // link it serializes onto: host links for NIC pairs, the fabric's
        // uplink table for switch-to-switch pairs (downlinks read through
        // the reverse-port table).
        let uplink_side_props = |r: PortRef| -> LinkProps {
            match r {
                PortRef::HostNic(h) => topo.host_link_of(HostId(h)),
                PortRef::Up { sw, up } => topo.uplink_props(sw as usize, up as usize),
                PortRef::Down { .. } => unreachable!("downlink paired with a downlink"),
            }
        };
        let mut ports = Vec::with_capacity(pmap.n_ports());
        for p in 0..pmap.n_ports() as u32 {
            let (props, qcfg) = match pmap.decode(p) {
                r @ PortRef::HostNic(_) => (uplink_side_props(r), cfg.host_queue),
                r @ PortRef::Up { .. } => (uplink_side_props(r), cfg.queue),
                PortRef::Down { .. } => (
                    uplink_side_props(pmap.decode(pmap.rev[p as usize])),
                    cfg.queue,
                ),
            };
            ports.push(OutPort::new(props, qcfg));
        }
        debug_assert_eq!(ports.len(), pmap.n_ports());
        let next_node = (0..ports.len() as u32).map(|p| pmap.next_node(p)).collect();
        // Bound the packets ever in flight on each link from its physics:
        // one serializer feeds the wire, every packet costs at least the
        // smallest packet's serialization time, and packets stay on the
        // wire exactly one propagation delay — so at most
        // `prop/tx(min_wire) + 1` are ever in flight. A mid-run
        // [`LinkEvent`] can stretch prop_delay or (bw_factor > 1) shrink
        // serialization time, either of which *raises* the ceiling — so
        // replay each port's whole event schedule in time order and take
        // the worst state it ever reaches. The sum sizes the FEL and the
        // packet arena, keeping their growth out of the steady-state
        // allocation gate.
        //
        // The same replay yields the hop look-ahead: a hop schedules its
        // `TxDone` one serialization time ahead (at most a full MSS
        // segment's) and its `Arrive` one propagation delay ahead, so no
        // packet-path event ever lands further out than the largest of
        // those over every state of every link. It sizes the FEL's
        // calendar wheel.
        let min_wire = cfg.tcp.header_bytes.max(1) as u64;
        let max_wire = min_wire + cfg.tcp.mss as u64;
        let in_flight_bound = |l: &LinkProps| -> usize {
            let tx = tlb_engine::time::tx_time(min_wire, l.bytes_per_sec)
                .as_nanos()
                .max(1);
            (l.prop_delay.as_nanos() / tx + 2).min(4096) as usize
        };
        let hop = |l: &LinkProps| -> SimTime {
            l.prop_delay
                .max(tlb_engine::time::tx_time(max_wire, l.bytes_per_sec))
        };
        let mut in_flight = 0usize;
        let mut lookahead = SimTime::ZERO;
        for p in 0..ports.len() as u32 {
            let mut link = ports[p as usize].link();
            let mut worst = in_flight_bound(&link);
            lookahead = lookahead.max(hop(&link));
            let mut evs: Vec<&crate::config::LinkEvent> = cfg
                .link_events
                .iter()
                .filter(|ev| {
                    let up = pmap.sw_up(ev.leaf.index() as u32, ev.spine.index() as u32);
                    up == p || pmap.rev[up as usize] == p
                })
                .collect();
            // Stable by-time sort: same-time events keep config order,
            // exactly how the FEL applies them.
            evs.sort_by_key(|ev| ev.at);
            for ev in evs {
                link.bytes_per_sec = ((link.bytes_per_sec as f64) * ev.bw_factor).max(1.0) as u64;
                link.prop_delay = ev.new_prop_delay.unwrap_or(link.prop_delay) + ev.extra_delay;
                worst = worst.max(in_flight_bound(&link));
                lookahead = lookahead.max(hop(&link));
            }
            in_flight += worst;
        }

        let lb_sws = (0..pmap.n_lb as usize)
            .map(|l| LbSw {
                lb: cfg.scheme.build(l as u64 + 1),
                rng: master_rng.fork(l as u64),
            })
            .collect();

        let n = flows.len();
        // Size the FEL so steady state never reallocates: one `TxDone` per
        // port, one `Arrive` per packet in flight, plus pending flow
        // starts and timers. (The capacity reserves the calendar's
        // overflow tier, which is exactly where the build-time bulk of
        // not-yet-started flows lands.) The wheel spans twice the hop
        // look-ahead and no more.
        let n_ports = pmap.n_ports();
        let fel_cap = 2 * n + 2 * n_ports + in_flight + 64;
        let mut q = EventQueue::for_lookahead(fel_cap, lookahead);
        // Only chain heads get their own start event; chained flows are
        // launched by their predecessor's completion.
        let mut is_chained = vec![false; n];
        for &nf in next_flow.iter().flatten() {
            is_chained[nf as usize] = true;
        }
        let mut starts_pending = 0u64;
        for (i, f) in flows.iter().enumerate() {
            let owned = shard.as_ref().is_none_or(|c| c.owns_host(f.src.0));
            if !is_chained[i] && owned {
                push_ev(&mut q, f.start, Event::FlowStart(i as u32));
                starts_pending += 1;
            }
        }
        // Pre-size every per-packet metric collector from workload bounds,
        // so steady state never grows them. `segs(class)` counts first
        // transmissions; the +25% headroom absorbs retransmissions (the
        // allocation gate pins typical runs well under that).
        let total_segs: Vec<u32> = flows
            .iter()
            .map(|f| f.size_bytes.div_ceil(cfg.tcp.mss as u64) as u32)
            .collect();
        let is_short: Vec<bool> = flows
            .iter()
            .map(|f| f.size_bytes < cfg.short_threshold)
            .collect();
        let segs = |short: bool| -> usize {
            total_segs
                .iter()
                .zip(&is_short)
                .filter(|&(_, &s)| s == short)
                .map(|(&t, _)| t as usize)
                .sum()
        };
        // The uplink queue samples (`short_qlen`, `long_qlen`,
        // `short_qdelay`) are taken at every balancer-chosen uplink a data
        // segment climbs: one on a leaf-spine route, two on an inter-pod
        // fat-tree route, none within a leaf or edge.
        let lb_hops = |f: &FlowSpec| -> usize {
            let (src, dst) = (f.src.0, f.dst.0);
            match pmap.plan {
                PlanKind::LeafSpine { hpl, .. } => usize::from(src / hpl != dst / hpl),
                PlanKind::FatTree { half, .. } => {
                    let (se, de) = (src / half, dst / half);
                    if se == de {
                        0
                    } else if se / half == de / half {
                        1
                    } else {
                        2
                    }
                }
            }
        };
        let uplink_samples = |short: bool| -> usize {
            flows
                .iter()
                .zip(&total_segs)
                .zip(&is_short)
                .filter(|&(_, &s)| s == short)
                .map(|((f, &t), _)| t as usize * lb_hops(f))
                .sum()
        };
        let sample_cap = |first_tx: usize| (first_tx + first_tx / 4 + 64).min(1 << 22);
        let short_segs = segs(true);
        let long_segs = segs(false);
        let (short_samples, long_samples) = (uplink_samples(true), uplink_samples(false));
        // FEL-depth samples: one per 4096 events; a data segment costs
        // O(2 hops·(TxDone+Arrive)) events each way, so 24·segs/4096 is a
        // generous event-count estimate.
        let depth_cap = ((short_segs + long_segs) * 24 / 4096 + 64).min(1 << 20);
        let mut fct = FctRecorder::new(cfg.short_threshold);
        fct.reserve(n);
        // A traced data segment records ~5 hops each way (NIC, uplink,
        // spine, downlink, delivery; same for its ACK), plus
        // handshake/teardown and retransmissions. 16 rows per segment
        // covers that with headroom, so tracing stays off the steady-state
        // allocation gate; capped like the other horizon-scaled collectors.
        let traced_segs: usize = cfg
            .trace_flows
            .iter()
            .filter_map(|f| total_segs.get(f.index()))
            .map(|&s| s as usize)
            .sum();
        let trace_rows = if traced_segs == 0 {
            0
        } else {
            (traced_segs * 16 + 64).min(1 << 20)
        };

        // Balancer ticks per leaf.
        let mut net = Net {
            total_segs,
            is_short,
            fct,
            short_qdelay_series: Self::series_for(cfg),
            short_reorder: Self::series_for(cfg),
            long_reorder: Self::series_for(cfg),
            long_goodput: Self::series_for(cfg),
            has_failures: !cfg.failure_events.is_empty(),
            reach: {
                let groups = match pmap.plan {
                    PlanKind::LeafSpine { n_leaves, .. } => n_leaves as usize,
                    PlanKind::FatTree { n_edges, .. } => n_edges as usize,
                };
                if cfg.failure_events.is_empty() {
                    Vec::new()
                } else {
                    vec![0u64; pmap.n_lb as usize * groups]
                }
            },
            n_groups: match pmap.plan {
                PlanKind::LeafSpine { n_leaves, .. } => n_leaves as usize,
                PlanKind::FatTree { n_edges, .. } => n_edges as usize,
            },
            pmap,
            ports,
            next_node,
            lb_sws,
            senders: (0..n).map(|_| None).collect(),
            receivers: (0..n).map(|_| None).collect(),
            next_flow,
            completed: vec![false; n],
            n_completed: 0,
            q,
            // Every in-flight packet parks here; size it like the FEL so
            // steady-state occupancy never grows the slab.
            arena: PacketArena::with_capacity(fel_cap),
            // The free stack parks at most one buffer per torn-down flow,
            // so `n` bounds it; capped like the other flow-scaled
            // collectors (24 bytes per parked handle).
            ooo_pool: OooPool::with_capacity(n.min(1 << 20)),
            // The sender state machine bounds its per-call output (see
            // `TcpConfig::max_outputs_per_call`); the allocation audit
            // asserts this buffer never regrows.
            out_buf: Vec::with_capacity(cfg.tcp.max_outputs_per_call()),
            alloc_at_warmup: None,
            alloc_report: None,
            starts_pending,
            timers_live: 0,
            misc_pending: 0,
            fel_bound_peak: 0,
            short_qlen: SampleSet::with_capacity(sample_cap(short_samples)),
            long_qlen: SampleSet::with_capacity(sample_cap(long_samples)),
            short_qdelay: SampleSet::with_capacity(sample_cap(short_samples)),
            fel_depth: SampleSet::with_capacity(depth_cap),
            qth_series: Vec::new(),
            traced: {
                let mut t = vec![false; n];
                for f in &cfg.trace_flows {
                    if f.index() < n {
                        t[f.index()] = true;
                    }
                }
                t
            },
            traces: Vec::with_capacity(trace_rows),
            queue_series: {
                // One row per series bucket up to the horizon, capped so a
                // long horizon with a fine bucket can't pre-allocate
                // unboundedly.
                let rows = if cfg.sample_queues {
                    (cfg.horizon.as_nanos() / cfg.series_bucket.as_nanos().max(1)) as usize + 1
                } else {
                    0
                };
                Vec::with_capacity(rows.min(1 << 16))
            },
            lb_state_peak: 0,
            lb_decisions: 0,
            events: 0,
            link_fifo: vec![SimTime::ZERO; n_ports],
            audit: AuditLedger::new(cfg.audit),
            arrive_seen: 0,
            fluid: None,
            migrated: vec![false; n],
            fluid_pend: vec![false; n],
            fluid_tail_bytes: Vec::new(),
            fluid_credit: Vec::new(),
            fluid_events_pending: 0,
            fluid_migrations: 0,
            fluid_demotions: 0,
            fluid_bytes: 0,
            demote_scratch: Vec::new(),
            cur_key: 0,
            trace_keys: if shard.is_some() {
                Vec::with_capacity(trace_rows)
            } else {
                Vec::new()
            },
            warmup_at: if shard.is_some() {
                // The allocation audit is a serial-engine gate; replica
                // plumbing (inboxes, handoffs) is outside its contract.
                u64::MAX
            } else {
                cfg.alloc_warmup_events.unwrap_or(u64::MAX)
            },
            shard,
            cfg,
            flows,
        };
        if cfg.fidelity == FidelityKind::Hybrid {
            // The fluid tier's per-link capacity is the link's payload
            // goodput: wire rate scaled by MSS/(MSS+header), i.e. what a
            // saturating packet flow can actually deliver end to end.
            let frac = cfg.tcp.mss as f64 / (cfg.tcp.mss as f64 + cfg.tcp.header_bytes as f64);
            let mut fluid = FluidNet::new(net.ports.len(), n);
            for (i, p) in net.ports.iter().enumerate() {
                fluid.set_capacity(i as u32, p.link().bytes_per_sec as f64 * frac);
            }
            net.fluid = Some(fluid);
            net.fluid_tail_bytes = vec![0; n];
            net.fluid_credit = vec![0; n];
            net.demote_scratch = Vec::with_capacity(64);
        }
        for l in 0..net.lb_sws.len() {
            if !net.shard.as_ref().is_none_or(|c| c.owns_sw(l)) {
                continue;
            }
            if let Some(iv) = net.lb_sws[l].lb.tick_interval() {
                push_ev(&mut net.q, iv, Event::LbTick { sw: l as u16 });
                net.misc_pending += 1;
                // Leaf 0's threshold trace grows by at most one row per
                // tick; materialize the worst case now (capped like
                // `queue_series`).
                if l == 0 {
                    let rows = (cfg.horizon.as_nanos() / iv.as_nanos().max(1)) as usize + 2;
                    net.qth_series.reserve(rows.min(1 << 16));
                }
            }
        }
        if net.shard.as_ref().is_none_or(|c| c.id == 0) {
            for (i, ev) in net.cfg.link_events.iter().enumerate() {
                push_ev(&mut net.q, ev.at, Event::LinkChange(i as u32));
                net.misc_pending += 1;
            }
            for (i, ev) in net.cfg.failure_events.iter().enumerate() {
                push_ev(&mut net.q, ev.at, Event::Failure(i as u32));
                net.misc_pending += 1;
            }
        }
        if net.has_failures {
            // Seed the reachability masks from the (fully live) fabric so
            // an `Up`-leading schedule still sees consistent state.
            net.recompute_reach();
        }
        if net.cfg.sample_queues && net.shard.as_ref().is_none_or(|c| c.id == 0) {
            push_ev(&mut net.q, net.cfg.series_bucket, Event::QueueSample);
            net.misc_pending += 1;
        }
        net
    }

    /// A per-class time series pre-sized to the run horizon, so bucket
    /// appends never resize mid-run (the cap mirrors `queue_series`).
    fn series_for(cfg: &SimConfig) -> TimeSeries {
        let mut s = TimeSeries::new(cfg.series_bucket);
        s.reserve_until(cfg.horizon, 1 << 16);
        s
    }

    /// Sample FEL occupancy once per this many processed events. The
    /// sample schedule depends only on the event count, which is identical
    /// across thread counts, so the samples are deterministic.
    const FEL_DEPTH_SAMPLE_EVERY: u64 = 4096;

    /// The FEL occupancy bound: at most one `TxDone` per port, one
    /// `Arrive` per arena slot, plus every pending flow start, timer,
    /// housekeeping and fluid-completion event (`fluid_events_pending` is
    /// zero under packet fidelity).
    #[inline]
    fn fel_bound(&self) -> u64 {
        self.ports.len() as u64
            + self.arena.live() as u64
            + self.starts_pending
            + self.timers_live
            + self.misc_pending
            + self.fluid_events_pending
    }

    fn run_loop(&mut self) {
        let horizon = self.cfg.horizon;
        while self.n_completed < self.flows.len() {
            // Peek before popping: an event past the horizon must stay in
            // the queue (end-of-run accounting counts it as in flight) and
            // must not advance the clock past the horizon (it would inflate
            // `sim_end` and every rate derived from it).
            match self.q.peek_time() {
                Some(t) if t <= horizon => {}
                _ => break, // queue empty, or nothing left before the horizon
            }
            self.step();
        }
        self.close_alloc_window();
    }

    /// Sharded engine: run every local event strictly before `end` (and at
    /// or before `horizon`). The global completion gate lives with the
    /// coordinator — the window protocol switches to a serialized tail
    /// before the run could possibly finish mid-window (see [`sharded`]).
    fn run_window(&mut self, end: SimTime, horizon: SimTime) {
        loop {
            match self.q.peek_time() {
                Some(t) if t < end && t <= horizon => {}
                _ => break,
            }
            self.step();
        }
    }

    /// Pop and dispatch one event — the shared body of the serial loop,
    /// the sharded window loop, and the coordinator's merged loops.
    fn step(&mut self) {
        let (now, ev) = self.q.pop().expect("peeked event vanished");
        self.events += 1;
        if self.events == self.warmup_at {
            self.alloc_at_warmup = Some(alloc_audit::counters());
        }
        if self.events.is_multiple_of(Self::FEL_DEPTH_SAMPLE_EVERY) {
            self.fel_depth.push(self.q.len() as f64);
            let bound = self.fel_bound();
            self.fel_bound_peak = self.fel_bound_peak.max(bound);
            // The occupancy oracle: every pending event is accounted for
            // by one of the bound's terms, in shard replicas too.
            if self.cfg.audit {
                assert!(
                    self.q.len() as u64 <= bound,
                    "FEL occupancy {} exceeds the bound {bound}",
                    self.q.len(),
                );
            }
        }
        self.cur_key = event_key(&ev);
        match ev {
            Event::FlowStart(i) => {
                self.starts_pending -= 1;
                self.on_flow_start(i, now);
            }
            Event::TxDone(p) => self.on_tx_done(p, now),
            Event::Arrive { port, slot } => {
                let pkt = self.arena.take(slot);
                self.arrive_seen += 1;
                if self.cfg.fault_drop_nth == Some(self.arrive_seen) {
                    // Injected driver bug (audit tests only): the packet
                    // vanishes without any accounting layer hearing of it.
                    return;
                }
                self.on_arrive(port, pkt, now);
            }
            Event::Timer { flow } => {
                self.timers_live -= 1;
                self.on_timer(flow, now);
            }
            Event::LbTick { sw } => {
                self.misc_pending -= 1;
                self.on_lb_tick(sw, now);
            }
            Event::LinkChange(i) => {
                self.misc_pending -= 1;
                self.on_link_change(i as usize, now);
            }
            Event::Failure(i) => {
                self.misc_pending -= 1;
                self.on_failure(i as usize, now);
            }
            Event::QueueSample => {
                self.misc_pending -= 1;
                self.on_queue_sample(now);
            }
            Event::FluidDone { flow, gen } => {
                self.fluid_events_pending -= 1;
                self.on_fluid_done(flow, gen, now);
            }
        }
    }

    /// Close the allocation-audit window at run-loop exit, *before* the
    /// reporting/audit phase — end-of-run summarization is allowed to
    /// allocate; the steady-state invariant covers event processing
    /// only. The probe runs after the final read so it cannot pollute
    /// the delta.
    fn close_alloc_window(&mut self) {
        if let Some(start) = self.alloc_at_warmup.take() {
            let d = start.delta(alloc_audit::counters());
            self.alloc_report = Some(AllocAudit {
                warmup_events: self.warmup_at,
                steady_events: self.events.saturating_sub(self.warmup_at),
                counting: alloc_audit::probe_counting(),
                allocs: d.allocs,
                reallocs: d.reallocs,
                deallocs: d.deallocs,
                bytes: d.bytes,
            });
        }
    }

    // ---- event handlers --------------------------------------------------

    fn on_flow_start(&mut self, i: u32, now: SimTime) {
        let spec = self.flows[i as usize];
        self.fct
            .flow_started(spec.id, spec.size_bytes, now, spec.deadline);
        let mut sender = TcpSender::new(self.cfg.tcp, spec.id, spec.src, spec.dst, spec.size_bytes);
        let mut out = std::mem::take(&mut self.out_buf);
        sender.start(now, &mut out);
        self.senders[i as usize] = Some(sender);
        self.process_outputs(i, &mut out, now);
        self.out_buf = out;
    }

    fn on_timer(&mut self, flow: u32, now: SimTime) {
        let mut out = std::mem::take(&mut self.out_buf);
        if let Some(sender) = self.senders[flow as usize].as_mut() {
            sender.on_timer(now, &mut out);
        }
        self.process_outputs(flow, &mut out, now);
        self.out_buf = out;
    }

    fn on_lb_tick(&mut self, sw: u16, now: SimTime) {
        let slice = &self.ports[self.pmap.up_range(sw as usize)];
        let view = if self.has_failures {
            // Ticks have no destination, so they see the switch's local
            // uplink liveness rather than a reach row; an all-dead switch
            // falls back to the full view (nothing routes through it
            // anyway — see `lb_forward`).
            let mut mask = 0u64;
            for (i, p) in slice.iter().enumerate() {
                if !p.is_down() {
                    mask |= 1 << i;
                }
            }
            if mask == 0 {
                PortView::new(slice)
            } else {
                PortView::with_mask(slice, mask)
            }
        } else {
            PortView::new(slice)
        };
        let l = &mut self.lb_sws[sw as usize];
        l.lb.on_tick(view, now);
        self.lb_state_peak = self.lb_state_peak.max(l.lb.state_bytes());
        if sw == 0 {
            if let Some(qth) = l.lb.q_threshold() {
                // Saturate "infinite" to a plottable sentinel.
                let v = if qth == u64::MAX {
                    f64::INFINITY
                } else {
                    qth as f64
                };
                self.qth_series.push((now.as_secs_f64(), v));
            }
        }
        if let Some(iv) = l.lb.tick_interval() {
            let next = now + iv;
            if next <= self.cfg.horizon {
                push_ev(&mut self.q, next, Event::LbTick { sw });
                self.misc_pending += 1;
            }
        }
    }

    /// Apply a sender's outputs: transmit packets from its host NIC, arm
    /// timers.
    fn process_outputs(&mut self, flow: u32, out: &mut Vec<SenderOutput>, now: SimTime) {
        let src = self.flows[flow as usize].src;
        for o in out.drain(..) {
            match o {
                SenderOutput::Send(pkt) => {
                    self.audit.emitted(&pkt);
                    self.enqueue(self.pmap.host_nic(src.0), pkt, now);
                }
                SenderOutput::ArmTimer { deadline } => {
                    push_ev(&mut self.q, deadline.max(now), Event::Timer { flow });
                    self.timers_live += 1;
                }
                SenderOutput::Finished => {
                    // Sender-side completion; FCT is recorded at the
                    // receiver when the last byte arrives.
                }
            }
        }
    }

    /// Record leaf-0's uplink occupancy and re-arm the sampler.
    fn on_queue_sample(&mut self, now: SimTime) {
        let lens: Vec<u32> = self.ports[self.pmap.up_range(0)]
            .iter()
            .map(|p| p.len_pkts() as u32)
            .collect();
        self.queue_series.push((now.as_secs_f64(), lens));
        let next = now + self.cfg.series_bucket;
        if next <= self.cfg.horizon {
            push_ev(&mut self.q, next, Event::QueueSample);
            self.misc_pending += 1;
        }
    }

    /// Apply a configured mid-run link change to both directions of the
    /// targeted uplink pair.
    fn on_link_change(&mut self, i: usize, now: SimTime) {
        let (up, down) = self.apply_link_change(i);
        if self.fluid.is_some() {
            self.fluid_link_update(up, down, now);
        }
    }

    /// The state mutation of a link change — everything except the fluid
    /// tier's rerating. Factored out so the sharded coordinator can mirror
    /// the change into every replica (all replicas read link physics on
    /// their own ports at build and per-event). Returns the port pair.
    fn apply_link_change(&mut self, i: usize) -> (PortId, PortId) {
        let ev = self.cfg.link_events[i];
        let change = |port: &mut OutPort| {
            let mut l = port.link();
            l.bytes_per_sec = ((l.bytes_per_sec as f64) * ev.bw_factor).max(1.0) as u64;
            l.prop_delay = ev.new_prop_delay.unwrap_or(l.prop_delay) + ev.extra_delay;
            port.set_link(l);
        };
        let up = self
            .pmap
            .sw_up(ev.leaf.index() as u32, ev.spine.index() as u32);
        let down = self.pmap.rev[up as usize];
        change(&mut self.ports[up as usize]);
        change(&mut self.ports[down as usize]);
        (up, down)
    }

    /// Apply the `i`-th configured failure/repair: flip the admin state
    /// of the target port(s) and their reverse directions, then
    /// reconverge routing by recomputing the reachability masks.
    fn on_failure(&mut self, i: usize, now: SimTime) {
        self.apply_failure(i);
        if self.fluid.is_some() {
            self.demote_failed(now);
        }
    }

    /// The state mutation of a failure/repair — admin flips plus routing
    /// reconvergence, without the hybrid-tier demotions. Factored out so
    /// the sharded coordinator can mirror it into every replica: each
    /// replica's `recompute_reach` reads the admin state of the *whole*
    /// fabric, so all replicas must agree on it.
    fn apply_failure(&mut self, i: usize) {
        use crate::config::{FailureAction, FailureTarget};
        let ev = self.cfg.failure_events[i];
        let down = ev.action == FailureAction::Down;
        match ev.target {
            FailureTarget::Link { sw, up } => {
                let p = self.pmap.sw_up(sw.index() as u32, up.index() as u32);
                self.set_link_state(p, down);
            }
            FailureTarget::Switch { sw } => {
                let spans = self.pmap.sw[sw];
                for p in spans.up_base..spans.up_base + spans.n_up {
                    self.set_link_state(p, down);
                }
                for p in spans.down_base..spans.down_base + spans.n_down {
                    self.set_link_state(p, down);
                }
            }
        }
        self.recompute_reach();
    }

    /// Take one directed port and its reverse down (or back up). Queued
    /// and in-service packets drain normally; while down, new admissions
    /// drop at the port with ordinary accounting.
    fn set_link_state(&mut self, p: PortId, down: bool) {
        // Explicitly idempotent: a failure targeting an already-dead port
        // (duplicate schedule entries, or a switch failure overlapping a
        // dead link) is a deterministic no-op, never a second drain.
        for q in [p, self.pmap.rev[p as usize]] {
            if self.ports[q as usize].is_down() != down {
                self.ports[q as usize].set_down(down);
            }
        }
    }

    /// Brute-force recompute of the per-(LB switch, destination group)
    /// usable-uplink masks from port admin state. Runs only at failure
    /// events — never on the per-packet path — and writes into the
    /// preallocated `reach` table (no allocation, so a failure inside an
    /// allocation-audit window stays clean).
    fn recompute_reach(&mut self) {
        let mut reach = std::mem::take(&mut self.reach);
        let ng = self.n_groups;
        let pmap = &self.pmap;
        let ports = &self.ports;
        let up_ok = |s: u32, u: u32| !ports[pmap.sw_up(s, u) as usize].is_down();
        let down_ok = |s: u32, d: u32| !ports[pmap.sw_down(s, d) as usize].is_down();
        match pmap.plan {
            PlanKind::LeafSpine {
                n_leaves, n_spines, ..
            } => {
                for l in 0..n_leaves {
                    for d in 0..n_leaves {
                        let mut m = 0u64;
                        for sp in 0..n_spines {
                            if up_ok(l, sp) && down_ok(n_leaves + sp, d) {
                                m |= 1 << sp;
                            }
                        }
                        reach[l as usize * ng + d as usize] = m;
                    }
                }
            }
            PlanKind::FatTree {
                half,
                n_edges,
                n_aggs,
            } => {
                let full = PortView::full_mask(half as usize);
                // Phase 1 — aggs: for agg (p, j) and a destination edge in
                // another pod, uplink m works iff agg->core(j,m) and
                // core(j,m)->pod(dst) are both live. Intra-pod traffic
                // descends at the agg, so its row stays full (unused).
                for a in 0..n_aggs {
                    let (p, j) = (a / half, a % half);
                    let g = n_edges + a;
                    for d in 0..n_edges {
                        let pd = d / half;
                        let m = if pd == p {
                            full
                        } else {
                            let mut mm = 0u64;
                            for mi in 0..half {
                                let core = n_edges + n_aggs + j * half + mi;
                                if up_ok(g, mi) && down_ok(core, pd) {
                                    mm |= 1 << mi;
                                }
                            }
                            mm
                        };
                        reach[g as usize * ng + d as usize] = m;
                    }
                }
                // Phase 2 — edges, composing over the aggs' rows: uplink j
                // works iff edge->agg(pe, j) is live and agg(pe, j) can
                // complete the path (straight down for intra-pod, through
                // some core and agg(pd, j)'s downlink otherwise).
                for e in 0..n_edges {
                    let pe = e / half;
                    for d in 0..n_edges {
                        if d == e {
                            reach[e as usize * ng + d as usize] = full;
                            continue;
                        }
                        let pd = d / half;
                        let mut m = 0u64;
                        for j in 0..half {
                            if !up_ok(e, j) {
                                continue;
                            }
                            let agg_src = n_edges + pe * half + j;
                            let ok = if pd == pe {
                                down_ok(agg_src, d % half)
                            } else {
                                reach[agg_src as usize * ng + d as usize] != 0
                                    && down_ok(n_edges + pd * half + j, d % half)
                            };
                            if ok {
                                m |= 1 << j;
                            }
                        }
                        reach[e as usize * ng + d as usize] = m;
                    }
                }
            }
        }
        self.reach = reach;
    }

    // ---- forwarding ------------------------------------------------------

    fn enqueue(&mut self, p: PortId, pkt: Packet, now: SimTime) {
        if self.traced[pkt.flow.index()] {
            self.trace(p, &pkt, now);
        }
        self.audit.enqueue_attempt(&pkt);
        match self.ports[p as usize].enqueue(pkt, now) {
            Enqueued::Queued { was_idle, .. } => {
                self.audit.enqueued(&pkt);
                if was_idle {
                    self.start_tx(p, now);
                }
            }
            Enqueued::Dropped => {
                // Loss is recovered by the transport; counters live in the
                // port stats.
                self.audit.dropped(&pkt);
            }
        }
    }

    fn start_tx(&mut self, p: PortId, now: SimTime) {
        let pi = p as usize;
        let pkt = *self.ports[pi]
            .start_service()
            .expect("start_tx on an empty port");
        // The port memoized this packet's serialization time when service
        // started — one division per packet-hop instead of three.
        let tx_time = self.ports[pi].service_tx_time();
        // Leaf-uplink queueing delay of short-flow data (Fig. 8(b)) — the
        // queues the load balancer controls; NIC and downlink waits are the
        // same for every scheme and would only dilute the comparison.
        if self.pmap.is_lb_up(p) && pkt.kind == PktKind::Data && self.is_short[pkt.flow.index()] {
            let w = now.saturating_sub(pkt.enqueued_at).as_secs_f64();
            self.short_qdelay.push(w);
            self.short_qdelay_series.add(now, w);
        }
        self.audit.tx_started(&pkt);
        push_ev(&mut self.q, now + tx_time, Event::TxDone(p));
    }

    fn on_tx_done(&mut self, p: PortId, now: SimTime) {
        let pi = p as usize;
        let (pkt, more) = self.ports[pi].finish_service();
        self.audit.tx_done(&pkt);
        let prop = self.ports[pi].link().prop_delay;
        if more {
            self.start_tx(p, now);
        }
        // FIFO wire: never arrive before a packet that entered the link
        // earlier (matters only after a prop-delay-shrinking LinkEvent).
        let at = (now + prop).max(self.link_fifo[pi]);
        self.link_fifo[pi] = at;
        if let Some(ctx) = self.shard.as_mut() {
            if ctx.map.arrive_owner[pi] != ctx.id {
                // The next hop lives in another shard: hand the packet
                // off as a message; the owner schedules the arrival.
                ctx.outbox.push(sharded::XMsg { port: p, at, pkt });
                return;
            }
        }
        self.schedule_arrival(p, at, pkt);
    }

    /// Park `pkt` in the arena and schedule its arrival at `at` after
    /// crossing `port`'s link — the one arrival path. A cross-shard
    /// handoff lands here on the receiving shard; the `Arrive` is keyed by
    /// the transmitting port either way, so the merged `(time, key, seq)`
    /// schedule equals a serial run's.
    fn schedule_arrival(&mut self, port: PortId, at: SimTime, pkt: Packet) {
        let slot = self.arena.insert(pkt);
        push_ev(&mut self.q, at, Event::Arrive { port, slot });
    }

    /// A packet finished crossing port `p`'s link.
    fn on_arrive(&mut self, p: PortId, pkt: Packet, now: SimTime) {
        self.audit.arrived(&pkt);
        match self.next_node[p as usize] {
            NodeRef::Host(h) => self.deliver_to_host(h, pkt, now),
            NodeRef::Switch(sw) => self.forward_at_switch(sw, pkt, now),
        }
    }

    /// Route `pkt` at switch `sw`: descend when the destination sits below
    /// this switch, otherwise hand the choice to the switch's balancer.
    fn forward_at_switch(&mut self, sw: u16, pkt: Packet, now: SimTime) {
        let s = sw as u32;
        let dst = pkt.dst.0;
        match self.pmap.plan {
            PlanKind::LeafSpine { n_leaves, hpl, .. } => {
                let dl = dst / hpl;
                if s >= n_leaves {
                    // Spine: one downlink per leaf.
                    self.enqueue(self.pmap.sw_down(s, dl), pkt, now);
                } else if dl == s {
                    // Downstream (or intra-rack): single path to the host.
                    self.enqueue(self.pmap.sw_down(s, dst % hpl), pkt, now);
                } else {
                    self.lb_forward(sw, dl, pkt, now);
                }
            }
            PlanKind::FatTree {
                half,
                n_edges,
                n_aggs,
            } => {
                let de = dst / half;
                if s < n_edges {
                    if de == s {
                        self.enqueue(self.pmap.sw_down(s, dst % half), pkt, now);
                    } else {
                        self.lb_forward(sw, de, pkt, now);
                    }
                } else if s < n_edges + n_aggs {
                    let a = s - n_edges;
                    if de / half == a / half {
                        // Same pod: straight down to the destination edge.
                        self.enqueue(self.pmap.sw_down(s, de % half), pkt, now);
                    } else {
                        self.lb_forward(sw, de, pkt, now);
                    }
                } else {
                    // Core: one downlink per pod.
                    self.enqueue(self.pmap.sw_down(s, de / half), pkt, now);
                }
            }
        }
    }

    /// One balancer decision at LB switch `sw` toward destination group
    /// (leaf/edge) `group`: build the (failure-aware) port view and ask
    /// the switch's balancer. Factored out of [`Net::lb_forward`] so
    /// hybrid migration routes fluid tails through the exact same hooks —
    /// TLB/DiffFlow see a migrated flow like any other.
    fn choose_up(&mut self, sw: u16, group: u32, pkt: &Packet, now: SimTime) -> u32 {
        self.lb_decisions += 1;
        let range = self.pmap.up_range(sw as usize);
        let slice = &self.ports[range];
        let view = if self.has_failures {
            let m = self.reach[sw as usize * self.n_groups + group as usize];
            if m & PortView::full_mask(slice.len()) == 0 {
                // Destination unreachable from here: fall back to the full
                // view so the packet drops at a dead port with ordinary
                // accounting instead of vanishing untracked.
                PortView::new(slice)
            } else {
                PortView::with_mask(slice, m)
            }
        } else {
            PortView::new(slice)
        };
        let l = &mut self.lb_sws[sw as usize];
        l.lb.choose_uplink(pkt, view, now, &mut l.rng) as u32
    }

    /// LB switch `sw`'s balancer picks among its uplinks toward
    /// destination group (leaf/edge) `group`.
    fn lb_forward(&mut self, sw: u16, group: u32, pkt: Packet, now: SimTime) {
        let up = self.choose_up(sw, group, &pkt, now);
        let range = self.pmap.up_range(sw as usize);
        debug_assert!((up as usize) < range.len());
        // Fig. 3(a): queue length experienced at enqueue.
        if pkt.kind == PktKind::Data {
            let qlen = self.ports[range.start + up as usize].len_pkts() as f64;
            if self.is_short[pkt.flow.index()] {
                self.short_qlen.push(qlen);
            } else {
                self.long_qlen.push(qlen);
            }
        }
        self.enqueue(self.pmap.sw_up(sw as u32, up), pkt, now);
    }

    fn trace(&mut self, p: PortId, pkt: &Packet, now: SimTime) {
        use crate::report::{Hop, TraceEvent};
        let hop = match (self.pmap.decode(p), self.pmap.plan) {
            (PortRef::HostNic(h), _) => Hop::HostNic { host: h },
            // Leaf-spine keeps its historical hop names.
            (PortRef::Up { sw, up }, PlanKind::LeafSpine { .. }) => Hop::LeafUplink {
                leaf: sw,
                spine: up,
            },
            (PortRef::Down { sw, down }, PlanKind::LeafSpine { n_leaves, .. }) => {
                if (sw as u32) < n_leaves {
                    Hop::LeafDownlink {
                        leaf: sw,
                        slot: down,
                    }
                } else {
                    Hop::SpineDownlink {
                        spine: sw - n_leaves as u16,
                        leaf: down,
                    }
                }
            }
            (PortRef::Up { sw, up }, PlanKind::FatTree { .. }) => Hop::FabricUp { sw, up },
            (PortRef::Down { sw, down }, PlanKind::FatTree { .. }) => Hop::FabricDown { sw, down },
        };
        if self.shard.is_some() {
            self.trace_keys.push(self.cur_key);
        }
        self.traces.push(TraceEvent {
            flow: pkt.flow,
            kind: pkt.kind,
            seq: pkt.seq,
            at: now,
            hop,
        });
    }

    fn deliver_to_host(&mut self, h: u32, pkt: Packet, now: SimTime) {
        debug_assert_eq!(pkt.dst.0, h, "packet delivered to the wrong host");
        self.audit.delivered(&pkt);
        if self.traced[pkt.flow.index()] {
            if self.shard.is_some() {
                self.trace_keys.push(self.cur_key);
            }
            self.traces.push(crate::report::TraceEvent {
                flow: pkt.flow,
                kind: pkt.kind,
                seq: pkt.seq,
                at: now,
                hop: crate::report::Hop::Delivered { host: h },
            });
        }
        let fi = pkt.flow.index();
        match pkt.kind {
            PktKind::Syn => {
                if self.receivers[fi].is_none() {
                    // New connection: draw the out-of-order buffer from the
                    // pool (recycled from a torn-down flow in steady state).
                    let buf = self.ooo_pool.get(self.cfg.tcp.rwnd_segs() as usize);
                    self.receivers[fi] =
                        Some(TcpReceiver::with_ooo_buf(pkt.flow, pkt.dst, pkt.src, buf));
                }
                let receiver = self.receivers[fi].as_mut().expect("just inserted");
                let synack = receiver.on_syn(now);
                self.audit.emitted(&synack);
                self.enqueue(self.pmap.host_nic(h), synack, now);
            }
            PktKind::Data => {
                let is_short = self.is_short[fi];
                let Some(receiver) = self.receivers[fi].as_mut() else {
                    // Data before SYN can't happen; drop defensively.
                    debug_assert!(false, "data for unknown receiver");
                    return;
                };
                let before = receiver.delivered_segs();
                let ooo_before = receiver.stats().out_of_order;
                let ack = receiver.on_data(&pkt, now);
                let after = receiver.delivered_segs();
                let was_ooo = receiver.stats().out_of_order > ooo_before;
                if let Some(ctx) = self.shard.as_mut() {
                    // A fresh segment bumps exactly one of `in_order`
                    // (which advances `rcv_nxt`) or `out_of_order`.
                    if after > before || was_ooo {
                        ctx.segment_taken(h);
                    }
                }

                // Reordering time series per class.
                if is_short {
                    self.short_reorder.add(now, if was_ooo { 1.0 } else { 0.0 });
                } else {
                    self.long_reorder.add(now, if was_ooo { 1.0 } else { 0.0 });
                    if after > before {
                        let bytes = (after - before) as f64 * self.cfg.tcp.mss as f64;
                        self.long_goodput.add(now, bytes);
                    }
                }

                // Completion: every packet-path segment delivered in
                // order and — under hybrid fidelity — no fluid tail still
                // in flight.
                if after >= self.total_segs[fi] && !self.fluid_pend[fi] && !self.completed[fi] {
                    self.complete(fi, now);
                }
                self.park_ooo_buf(fi);
                self.audit.emitted(&ack);
                self.enqueue(self.pmap.host_nic(h), ack, now);
            }
            PktKind::SynAck | PktKind::Ack => {
                let mut out = std::mem::take(&mut self.out_buf);
                if let Some(sender) = self.senders[fi].as_mut() {
                    sender.on_packet(&pkt, now, &mut out);
                }
                self.process_outputs(pkt.flow.0, &mut out, now);
                self.out_buf = out;
                if self.fluid.is_some() {
                    self.maybe_migrate(fi, now);
                }
            }
            PktKind::Fin => {
                // Connection teardown carries no data; flow counting
                // happened at the leaf switch. Recycle the receiver's
                // out-of-order buffer: the sender only emits a FIN once
                // every data segment was cumulatively ACKed, so the buffer
                // is empty here. Idempotent on retransmitted/duplicate FINs
                // (a reclaimed receiver hands back a capacity-0 Vec, which
                // the pool ignores).
                if let Some(r) = self.receivers[fi].as_mut() {
                    self.ooo_pool.put(r.take_ooo_buf());
                }
            }
        }
    }

    /// Under hybrid fidelity, return the receiver's out-of-order buffer
    /// to the pool once its whole packet prefix is delivered and the tail
    /// rides the fluid tier: nothing more arrives until the FIN (or a
    /// demotion, which re-arms it), and long fluid tails would otherwise
    /// pin one buffer each while new flows keep drawing fresh ones.
    fn park_ooo_buf(&mut self, fi: usize) {
        if !self.fluid_pend[fi] {
            return;
        }
        if let Some(r) = self.receivers[fi].as_mut() {
            if r.delivered_segs() >= self.total_segs[fi] {
                self.ooo_pool.put(r.take_ooo_buf());
            }
        }
    }

    /// A flow delivered its last byte — the packet-path prefix at the
    /// receiver and, under hybrid fidelity, the fluid tail: record the
    /// FCT and launch any chained successor.
    fn complete(&mut self, fi: usize, now: SimTime) {
        debug_assert!(!self.completed[fi]);
        if self.cfg.audit && self.migrated[fi] {
            // Byte conservation across the migration seam: the packet
            // path's segment plan (shrunk at migration, possibly regrown
            // at demotion) plus what the fluid tier delivered must
            // reconstruct the flow exactly.
            let sender_bytes = self.senders[fi]
                .as_ref()
                .map_or(0, |s| s.payload_bytes_total());
            assert_eq!(
                sender_bytes + self.fluid_credit[fi],
                self.flows[fi].size_bytes,
                "flow {fi}: packet-path bytes + fluid credit disagree with the flow size"
            );
        }
        self.completed[fi] = true;
        self.n_completed += 1;
        self.fct.flow_completed(self.flows[fi].id, now);
        // Closed-loop chain: launch the successor back-to-back.
        if let Some(nf) = self.next_flow[fi] {
            push_ev(&mut self.q, now, Event::FlowStart(nf));
            self.starts_pending += 1;
        }
    }

    // ---- hybrid fidelity (fluid long-flow tails) -------------------------

    /// Consider moving flow `fi`'s unsent tail onto the fluid tier.
    /// Called after every processed ACK under hybrid fidelity; fires at
    /// the first ACK where the cumulatively acknowledged bytes cross the
    /// short/long threshold (the same 100 KB reclassification boundary
    /// TLB itself uses) while unsent data remains. Handshakes, short
    /// flows, retransmissions of the already emitted prefix, and all
    /// queue/ECN dynamics stay packet-level. A flow demoted by a failure
    /// re-qualifies here and migrates again once an ACK finds unsent data
    /// and a fully-up path — the `in_fluid`/`snd_nxt` gates keep a flow
    /// from double-joining or rejoining after its tail completed.
    fn maybe_migrate(&mut self, fi: usize, now: SimTime) {
        if self.is_short[fi] || self.completed[fi] {
            return;
        }
        let mss = self.cfg.tcp.mss as u64;
        let Some(sender) = self.senders[fi].as_ref() else {
            return;
        };
        if !sender.is_established()
            || sender.in_fluid()
            || (sender.acked_segs() as u64) * mss < self.cfg.short_threshold
            || sender.snd_nxt() >= sender.total_segs()
        {
            return;
        }
        // Route the tail once, through the same balancer hooks the packet
        // path uses. If any chosen hop is administratively down, stay
        // packet-level for now and let a later ACK retry — drops at the
        // dead port would only round-trip through retransmission anyway.
        let mut path = [0u32; MAX_FLUID_PATH];
        let len = self.fluid_route(fi, now, &mut path);
        if path[..len]
            .iter()
            .any(|&l| self.ports[l as usize].is_down())
        {
            return;
        }
        let sender = self.senders[fi].as_mut().expect("checked above");
        let tail = sender.hybrid_truncate();
        self.total_segs[fi] = sender.total_segs();
        self.migrated[fi] = true;
        self.fluid_pend[fi] = true;
        self.fluid_tail_bytes[fi] = tail;
        self.fluid_migrations += 1;
        self.fluid_bytes += tail;
        self.fluid
            .as_mut()
            .expect("hybrid path without FluidNet")
            .join(fi as u32, &path[..len], tail as f64, now.as_secs_f64());
        self.flush_fluid_changes(now);
        self.park_ooo_buf(fi);
    }

    /// The directed links flow `fi`'s fluid tail would occupy, chosen via
    /// [`Net::choose_up`] at each LB switch on the way — so the balancers
    /// count and track the migrated flow exactly like a packet-level one.
    /// Writes into `path` and returns the path length (1–6 links: NIC,
    /// up to two upward hops, and the downward hops to the host).
    fn fluid_route(&mut self, fi: usize, now: SimTime, path: &mut [u32; MAX_FLUID_PATH]) -> usize {
        let spec = self.flows[fi];
        let (src, dst) = (spec.src.0, spec.dst.0);
        // A representative data segment for the balancer hooks (flow and
        // flowlet tables key on the flow id).
        let probe = Packet::data(
            spec.id,
            spec.src,
            spec.dst,
            self.senders[fi].as_ref().map_or(0, |s| s.snd_nxt()),
            self.cfg.tcp.mss,
            self.cfg.tcp.header_bytes,
            now,
        );
        let mut len = 0;
        path[len] = self.pmap.host_nic(src);
        len += 1;
        match self.pmap.plan {
            PlanKind::LeafSpine { n_leaves, hpl, .. } => {
                let (sl, dl) = (src / hpl, dst / hpl);
                if sl == dl {
                    path[len] = self.pmap.sw_down(sl, dst % hpl);
                    len += 1;
                } else {
                    let up = self.choose_up(sl as u16, dl, &probe, now);
                    path[len] = self.pmap.sw_up(sl, up);
                    len += 1;
                    path[len] = self.pmap.sw_down(n_leaves + up, dl);
                    len += 1;
                    path[len] = self.pmap.sw_down(dl, dst % hpl);
                    len += 1;
                }
            }
            PlanKind::FatTree {
                half,
                n_edges,
                n_aggs,
            } => {
                let (se, de) = (src / half, dst / half);
                if se == de {
                    path[len] = self.pmap.sw_down(se, dst % half);
                    len += 1;
                } else {
                    let j = self.choose_up(se as u16, de, &probe, now);
                    path[len] = self.pmap.sw_up(se, j);
                    len += 1;
                    let agg_src = n_edges + (se / half) * half + j;
                    if de / half == se / half {
                        // Same pod: the agg descends straight to the edge.
                        path[len] = self.pmap.sw_down(agg_src, de % half);
                        len += 1;
                    } else {
                        let m = self.choose_up(agg_src as u16, de, &probe, now);
                        path[len] = self.pmap.sw_up(agg_src, m);
                        len += 1;
                        let core = n_edges + n_aggs + j * half + m;
                        path[len] = self.pmap.sw_down(core, de / half);
                        len += 1;
                        let agg_dst = n_edges + (de / half) * half + j;
                        path[len] = self.pmap.sw_down(agg_dst, de % half);
                        len += 1;
                    }
                    path[len] = self.pmap.sw_down(de, dst % half);
                    len += 1;
                }
            }
        }
        len
    }

    /// Propagate a mid-run link-quality change into the fluid tier:
    /// refresh both directions' capacities and rerate every fluid flow
    /// crossing either of them.
    fn fluid_link_update(&mut self, up: PortId, down: PortId, now: SimTime) {
        let frac =
            self.cfg.tcp.mss as f64 / (self.cfg.tcp.mss as f64 + self.cfg.tcp.header_bytes as f64);
        let now_s = now.as_secs_f64();
        let fluid = self.fluid.as_mut().expect("hybrid path without FluidNet");
        for p in [up, down] {
            let cap = self.ports[p as usize].link().bytes_per_sec as f64 * frac;
            fluid.set_capacity(p, cap);
            fluid.touch_link(p, now_s);
        }
        self.flush_fluid_changes(now);
    }

    /// Drain the fluid model's rate changes into `FluidDone` events. Each
    /// rerate projects a new completion time; older projections for the
    /// same flow go stale via the generation counter. The ceil keeps the
    /// integer event time at-or-after the real completion instant, so the
    /// pop-side residual is ≤ one rate·nanosecond of bytes.
    fn flush_fluid_changes(&mut self, now: SimTime) {
        let Some(fluid) = self.fluid.as_mut() else {
            return;
        };
        for ch in fluid.drain_changes() {
            let at = SimTime::from_nanos((ch.done_at_s * 1e9).ceil() as u64).max(now);
            push_ev(
                &mut self.q,
                at,
                Event::FluidDone {
                    flow: ch.flow,
                    gen: ch.gen,
                },
            );
            self.fluid_events_pending += 1;
        }
    }

    /// A fluid tail's projected completion time arrived. Stale unless the
    /// flow is still in the fluid tier at the same generation (reroutes,
    /// demotions and rerates all bump it).
    fn on_fluid_done(&mut self, flow: u32, gen: u32, now: SimTime) {
        let Some(fluid) = self.fluid.as_mut() else {
            return;
        };
        if !fluid.is_active(flow) || fluid.gen(flow) != gen {
            return;
        }
        let fi = flow as usize;
        let rem = fluid.leave(flow, now.as_secs_f64());
        // The event time was ceiled past the projected instant, so at most
        // one rate·nanosecond of bytes can remain; with caps ≤ 100 Gb/s
        // that is well under a byte.
        debug_assert!(rem < 16.0, "FluidDone fired with {rem} bytes left");
        self.flush_fluid_changes(now);
        self.fluid_pend[fi] = false;
        self.fluid_credit[fi] += self.fluid_tail_bytes[fi];
        let mut out = std::mem::take(&mut self.out_buf);
        if let Some(sender) = self.senders[fi].as_mut() {
            sender.fluid_done(now, &mut out);
        }
        self.process_outputs(flow, &mut out, now);
        self.out_buf = out;
        // If the receiver already delivered the whole packet prefix, the
        // tail was the last outstanding byte range — complete here (no
        // further data arrivals would re-run the receiver-side check).
        let prefix_done = self.receivers[fi]
            .as_ref()
            .is_some_and(|r| r.delivered_segs() >= self.total_segs[fi]);
        if prefix_done && !self.completed[fi] {
            self.complete(fi, now);
        }
    }

    /// After a failure reconverged routing: demote every fluid tail whose
    /// path lost a link back to the packet path. The sender's segment plan
    /// regrows by the undelivered remainder and resumes ordinary
    /// (re)transmission — the reroute happens at packet fidelity, exactly
    /// like a never-migrated flow. Once a later ACK re-qualifies the flow
    /// over a healthy path, [`Net::maybe_migrate`] moves the tail back to
    /// the fluid tier; `FluidDone`s left over from this residency are
    /// inert because [`tlb_net::FluidNet::leave`] bumped the generation.
    fn demote_failed(&mut self, now: SimTime) {
        let mut victims = std::mem::take(&mut self.demote_scratch);
        victims.clear();
        if let Some(fluid) = self.fluid.as_ref() {
            let ports = &self.ports;
            fluid.for_each_active(|f, path| {
                if path.iter().any(|&l| ports[l as usize].is_down()) {
                    victims.push(f);
                }
            });
        }
        let now_s = now.as_secs_f64();
        for &f in &victims {
            let fi = f as usize;
            let rem = self
                .fluid
                .as_mut()
                .expect("demotion without FluidNet")
                .leave(f, now_s);
            // Round the fluid remainder up to whole bytes for the packet
            // path; the clamp guards the f64 bookkeeping's edges (a tail
            // is ≥ 1 byte by construction).
            let rem_bytes = (rem.ceil() as u64).clamp(1, self.fluid_tail_bytes[fi]);
            self.fluid_pend[fi] = false;
            self.fluid_credit[fi] += self.fluid_tail_bytes[fi] - rem_bytes;
            self.fluid_demotions += 1;
            let mut out = std::mem::take(&mut self.out_buf);
            let add = self.senders[fi]
                .as_mut()
                .expect("demoted flow without a sender")
                .fluid_demote(rem_bytes, now, &mut out);
            self.total_segs[fi] += add;
            if let Some(r) = self.receivers[fi].as_mut() {
                r.rearm_ooo_buf(&mut self.ooo_pool, self.cfg.tcp.rwnd_segs() as usize);
            }
            self.process_outputs(f, &mut out, now);
            self.out_buf = out;
        }
        self.demote_scratch = victims;
        self.flush_fluid_changes(now);
    }

    // ---- sharded-engine plumbing (see `sharded`) ---------------------

    /// Fold one shard replica into this one (the coordinator folds every
    /// shard into shard 0, then calls [`Net::into_report`] on the result).
    /// Entities move wholesale to their owner; counters add; peaks max;
    /// the clocks join on the latest. Per the ownership partition every
    /// moved slot on `self` is still in its pristine build state, so the
    /// merged `Net` is field-for-field what a serial run would have
    /// produced — except for FEL-occupancy telemetry (`fel_depth`,
    /// `fel_bound_peak`), whose per-shard sampling schedules differ from
    /// the serial one (deterministically, but not identically).
    fn absorb_shard(&mut self, mut other: Net<'a>) {
        let octx = other.shard.take().expect("absorbing a serial net");
        let oid = octx.id;
        let map = &octx.map;
        debug_assert!(octx.outbox.is_empty(), "unrouted cross-shard messages");
        for pi in 0..self.ports.len() {
            if map.port_owner[pi] == oid {
                std::mem::swap(&mut self.ports[pi], &mut other.ports[pi]);
                self.link_fifo[pi] = other.link_fifo[pi];
            }
        }
        for l in 0..self.lb_sws.len() {
            if map.sw_owner[l] == oid {
                std::mem::swap(&mut self.lb_sws[l], &mut other.lb_sws[l]);
            }
        }
        for i in 0..self.flows.len() {
            if other.senders[i].is_some() {
                debug_assert!(self.senders[i].is_none());
                self.senders[i] = other.senders[i].take();
            }
            if other.receivers[i].is_some() {
                debug_assert!(self.receivers[i].is_none());
                self.receivers[i] = other.receivers[i].take();
            }
            if other.completed[i] {
                debug_assert!(!self.completed[i]);
                self.completed[i] = true;
            }
        }
        self.n_completed += other.n_completed;
        self.events += other.events;
        self.lb_decisions += other.lb_decisions;
        self.arrive_seen += other.arrive_seen;
        self.lb_state_peak = self.lb_state_peak.max(other.lb_state_peak);
        self.fel_bound_peak = self.fel_bound_peak.max(other.fel_bound_peak);
        self.fct.absorb(std::mem::take(&mut other.fct));
        self.short_qlen.merge(&other.short_qlen);
        self.long_qlen.merge(&other.long_qlen);
        self.short_qdelay.merge(&other.short_qdelay);
        self.fel_depth.merge(&other.fel_depth);
        self.short_qdelay_series.absorb(&other.short_qdelay_series);
        self.short_reorder.absorb(&other.short_reorder);
        self.long_reorder.absorb(&other.long_reorder);
        self.long_goodput.absorb(&other.long_goodput);
        // Leaf/edge 0 (and with it the qth/queue samplers) is always
        // shard 0's.
        debug_assert!(other.qth_series.is_empty());
        debug_assert!(other.queue_series.is_empty());
        self.traces.append(&mut other.traces);
        self.trace_keys.append(&mut other.trace_keys);
        self.audit.absorb(&other.audit);
        self.q.absorb_counters(&other.q);
        // Residual in-flight packets (end-of-run leftovers in the other
        // shard's FEL) feed the merged ledger; queued/in-service residuals
        // ride the moved ports, scanned later by `finish_audit`.
        let end = other.q.now();
        for (_, ev) in other.q.drain_unordered() {
            if let Event::Arrive { slot, .. } = ev {
                self.audit.residual_propagating(&other.arena.take(slot));
            }
        }
        self.q.join_clock(end);
    }

    /// After every shard is folded in: stable-sort the concatenated trace
    /// rows by `(at, key)`, reconstructing serial emission order (rows
    /// from one event keep their relative order; events are totally
    /// ordered by `(time, key)` since every key has a single origin).
    fn finish_sharded_traces(&mut self) {
        let keys = std::mem::take(&mut self.trace_keys);
        debug_assert_eq!(keys.len(), self.traces.len());
        let mut rows: Vec<(crate::report::TraceEvent, u32)> =
            self.traces.drain(..).zip(keys).collect();
        rows.sort_by_key(|(t, k)| (t.at, *k));
        self.traces.extend(rows.into_iter().map(|(t, _)| t));
    }

    // ---- reporting ---------------------------------------------------

    fn into_report(mut self, wall: std::time::Duration) -> RunReport {
        // The clock can only pass the horizon through a bug (the run loop
        // stops *before* popping any later event); clamp as a backstop so a
        // regression can't inflate every duration-derived rate.
        let sim_end = self.q.now().min(self.cfg.horizon);
        let dur = sim_end.as_secs_f64().max(1e-9);

        // The reusable sender-output buffer was sized from the state
        // machine's worst case (`TcpConfig::max_outputs_per_call`); a
        // regrowth means that bound went stale.
        debug_assert_eq!(
            self.out_buf.capacity(),
            self.cfg.tcp.max_outputs_per_call(),
            "out_buf regrew past the derived per-call output bound"
        );

        let audit = self.finish_audit();

        let mut short = ClassCounters::default();
        let mut long = ClassCounters::default();
        for (i, spec) in self.flows.iter().enumerate() {
            let c = if spec.size_bytes < self.cfg.short_threshold {
                &mut short
            } else {
                &mut long
            };
            if let Some(s) = &self.senders[i] {
                let st = s.stats();
                c.data_sent += st.data_sent;
                c.retransmits += st.retransmits;
                c.timeouts += st.timeouts;
                c.fast_retransmits += st.fast_retransmits;
                c.dup_acks += st.dup_acks;
            }
            if let Some(r) = &self.receivers[i] {
                let st = r.stats();
                c.data_received += st.total_data;
                c.out_of_order += st.out_of_order;
            }
        }

        let uplink_utilization = (0..self.pmap.n_lb as usize)
            .map(|l| {
                self.ports[self.pmap.up_range(l)]
                    .iter()
                    .map(|p| p.stats().busy.as_secs_f64() / dur)
                    .collect()
            })
            .collect();

        let mut drops = 0;
        let mut marks = 0;
        for p in &self.ports {
            drops += p.stats().dropped;
            marks += p.stats().marked;
        }

        let lb_state_final = self
            .lb_sws
            .iter()
            .map(|l| l.lb.state_bytes())
            .max()
            .unwrap_or(0);

        // Long-flow reroute total: present iff the scheme reports one
        // (TLB); `None` keeps non-TLB reports unambiguous.
        let tlb_long_reroutes = self
            .lb_sws
            .iter()
            .filter_map(|l| l.lb.long_reroutes())
            .fold(None, |acc: Option<u64>, n| Some(acc.unwrap_or(0) + n));

        // Failure-forced reroute total, same shape: present iff the scheme
        // distinguishes forced moves from voluntary ones.
        let forced_reroutes = self
            .lb_sws
            .iter()
            .filter_map(|l| l.lb.forced_reroutes())
            .fold(None, |acc: Option<u64>, n| Some(acc.unwrap_or(0) + n));

        RunReport {
            scheme: self.cfg.scheme.name().to_string(),
            total_flows: self.flows.len(),
            completed: self.n_completed,
            fct_short: self.fct.summary(FlowClass::Short),
            fct_long: self.fct.summary(FlowClass::Long),
            fct: self.fct,
            short,
            long,
            short_qlen: self.short_qlen,
            long_qlen: self.long_qlen,
            short_qdelay: self.short_qdelay,
            fel_depth: self.fel_depth,
            fel_bound_peak: self.fel_bound_peak,
            fel_buckets: self.q.wheel_buckets(),
            fel_bucket_ns: self.q.bucket_width().as_nanos(),
            fel_overflow_pushes: self.q.overflow_pushes(),
            short_reorder_series: self.short_reorder.means(),
            long_reorder_series: self.long_reorder.means(),
            long_goodput_series: self.long_goodput.rates(),
            short_qdelay_series: self.short_qdelay_series.means(),
            uplink_utilization,
            drops,
            marks,
            lb_state_bytes_peak: self.lb_state_peak.max(lb_state_final),
            qth_series: self.qth_series,
            traces: self.traces,
            queue_series: self.queue_series,
            lb_decisions: self.lb_decisions,
            fluid_migrations: self.fluid_migrations,
            fluid_demotions: self.fluid_demotions,
            fluid_bytes: self.fluid_bytes,
            tlb_long_reroutes,
            forced_reroutes,
            events: self.events,
            audit,
            alloc_audit: self.alloc_report,
            sim_end,
            wall,
            engine_workers: None,
            sharded_windows: 0,
            sharded_tail_events: 0,
            engine_fallback: None,
        }
    }

    /// Close the packet-conservation ledger: feed it the end-of-run
    /// residuals (queued packets, pending serializations, and propagations
    /// still in the FEL), per-port accounting snapshots, the
    /// engine's clock counter, and each live sender's invariant check,
    /// then let it verify everything (see [`crate::audit`]). Drains the
    /// event queue; call only from [`Net::into_report`].
    fn finish_audit(&mut self) -> Option<crate::audit::AuditReport> {
        let mut ledger = std::mem::replace(&mut self.audit, AuditLedger::new(false));
        if !ledger.enabled() {
            return None;
        }

        let labels: Vec<String> = (0..self.ports.len() as u32)
            .map(|p| match (self.pmap.decode(p), self.pmap.plan) {
                (PortRef::HostNic(h), _) => format!("host{h}.nic"),
                // Leaf-spine keeps its historical labels (tests match them).
                (PortRef::Up { sw, up }, PlanKind::LeafSpine { .. }) => {
                    format!("leaf{sw}.up{up}")
                }
                (PortRef::Down { sw, down }, PlanKind::LeafSpine { n_leaves, .. }) => {
                    if (sw as u32) < n_leaves {
                        format!("leaf{sw}.down{down}")
                    } else {
                        format!("spine{}.down{down}", sw as u32 - n_leaves)
                    }
                }
                (PortRef::Up { sw, up }, PlanKind::FatTree { n_edges, .. }) => {
                    if (sw as u32) < n_edges {
                        format!("edge{sw}.up{up}")
                    } else {
                        format!("agg{}.up{up}", sw as u32 - n_edges)
                    }
                }
                (
                    PortRef::Down { sw, down },
                    PlanKind::FatTree {
                        n_edges, n_aggs, ..
                    },
                ) => {
                    let sw = sw as u32;
                    if sw < n_edges {
                        format!("edge{sw}.down{down}")
                    } else if sw < n_edges + n_aggs {
                        format!("agg{}.down{down}", sw - n_edges)
                    } else {
                        format!("core{}.down{down}", sw - n_edges - n_aggs)
                    }
                }
            })
            .collect();

        for p in &self.ports {
            for pkt in p.iter_queued() {
                ledger.residual_queued(pkt);
            }
            if let Some(pkt) = p.in_service_pkt() {
                ledger.residual_in_service(pkt);
            }
        }
        let port_audits: Vec<PortAudit> = labels
            .into_iter()
            .zip(&self.ports)
            .map(|(label, p)| PortAudit::of(label, p))
            .collect();

        let monotonicity = self.q.monotonicity_violations();
        for (_, ev) in self.q.drain_unordered() {
            if let Event::Arrive { slot, .. } = ev {
                ledger.residual_propagating(&self.arena.take(slot));
            }
        }
        debug_assert!(
            self.arena.is_empty(),
            "{} arena slots leaked past the FEL drain",
            self.arena.live()
        );

        let mut senders_checked = 0;
        let mut sender_violations: Vec<(usize, String)> = Vec::new();
        for (i, s) in self.senders.iter().enumerate() {
            if let Some(s) = s {
                senders_checked += 1;
                if let Some(v) = s.invariant_violation() {
                    sender_violations.push((i, v));
                }
            }
        }
        let mut receivers_checked = 0;
        let mut receiver_violations: Vec<(usize, String)> = Vec::new();
        for (i, r) in self.receivers.iter().enumerate() {
            if let Some(r) = r {
                receivers_checked += 1;
                if let Some(v) = r.invariant_violation() {
                    receiver_violations.push((i, v));
                }
            }
        }

        ledger.finish(
            &port_audits,
            monotonicity,
            &sender_violations,
            senders_checked,
            &receiver_violations,
            receivers_checked,
        )
    }
}

mod sharded;

#[cfg(test)]
mod tests;

//! Simulation configuration: topology + transport + switch + scheme.

use crate::scheme::Scheme;
use tlb_engine::{EngineKind, SimTime};
use tlb_net::{Fabric, LeafId, LeafSpineBuilder, SpineId};
use tlb_switch::QueueCfg;
use tlb_transport::TcpConfig;

/// A scheduled mid-run change to one LB-switch uplink and its reverse
/// direction: at `at`, the link's bandwidth is multiplied by `bw_factor`
/// (of its *current* value) and its propagation delay becomes
/// `new_prop_delay.unwrap_or(current) + extra_delay` — in both directions.
/// Models failures/brownouts (paper §7's asymmetry, but dynamic), and with
/// `bw_factor > 1` or a shorter `new_prop_delay`, mid-run *improvements*
/// (repairs).
#[derive(Clone, Copy, Debug)]
pub struct LinkEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// The LB switch owning the uplink (leaf-spine: leaf; fat tree: edges
    /// then aggs, in global LB-switch order).
    pub leaf: LeafId,
    /// The uplink index within that switch.
    pub spine: SpineId,
    /// Multiplier on the current bandwidth; must be positive. Values above
    /// 1 model a repair/upgrade.
    pub bw_factor: f64,
    /// Replace the one-way propagation delay with this value (before
    /// `extra_delay` is added). `None` keeps the current delay.
    pub new_prop_delay: Option<SimTime>,
    /// Added one-way propagation delay.
    pub extra_delay: SimTime,
}

/// What a [`FailureEvent`] acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureTarget {
    /// One LB-switch uplink and its reverse direction (leaf<->spine,
    /// edge<->agg, or agg<->core).
    Link {
        /// The LB switch owning the uplink (same indexing as
        /// [`LinkEvent::leaf`]).
        sw: LeafId,
        /// The uplink index within that switch.
        up: SpineId,
    },
    /// Every port of one switch (and the reverse direction of each), i.e.
    /// the whole box goes dark.
    Switch {
        /// Global switch index in `0..topo.n_switches()`: LB switches
        /// first (leaves, or edges then aggs), then spines/cores.
        sw: usize,
    },
}

/// Whether a [`FailureEvent`] takes its target down or brings it back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureAction {
    /// Ports go administratively down: packets already queued or in
    /// service drain normally; new admissions are dropped (and counted as
    /// drops). Routing reconverges around the failure immediately.
    Down,
    /// Ports come back up and routing reconverges to use them again.
    Up,
}

/// A scheduled binary link/switch failure or repair. Unlike [`LinkEvent`]
/// (which degrades link *quality*), a failure removes capacity outright
/// and forces the fabric's reachability masks to be recomputed.
#[derive(Clone, Copy, Debug)]
pub struct FailureEvent {
    /// When the failure/repair takes effect.
    pub at: SimTime,
    /// What fails or recovers.
    pub target: FailureTarget,
    /// Down or up.
    pub action: FailureAction,
}

/// Everything needed to run one simulation (besides the flow set).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The fabric (two-tier leaf-spine or three-tier fat tree).
    pub topo: Fabric,
    /// Transport endpoints' parameters.
    pub tcp: TcpConfig,
    /// Switch output-queue parameters (buffer size, ECN threshold).
    pub queue: QueueCfg,
    /// Host NIC queue parameters (large buffer; same ECN marking).
    pub host_queue: QueueCfg,
    /// The load-balancing scheme under test.
    pub scheme: Scheme,
    /// Master seed: fixes the balancers' randomness. (Workload randomness
    /// is seeded separately by the generator.)
    pub seed: u64,
    /// Hard stop; flows unfinished by then count as incomplete/missed.
    pub horizon: SimTime,
    /// Metrics classification threshold for short vs long (paper: 100 KB).
    pub short_threshold: u64,
    /// Bucket width for "instantaneous" time series.
    pub series_bucket: SimTime,
    /// Mid-run link degradations (failure injection).
    pub link_events: Vec<LinkEvent>,
    /// Mid-run binary link/switch failures and repairs.
    pub failure_events: Vec<FailureEvent>,
    /// Flows whose packets should be path-traced into
    /// [`crate::RunReport::traces`] (diagnostics/tests; keep small — every
    /// hop of every traced packet is recorded).
    pub trace_flows: Vec<tlb_net::FlowId>,
    /// Sample leaf-0's uplink queue lengths every `series_bucket` into
    /// [`crate::RunReport::queue_series`] (the Fig. 5 queueing-process
    /// visualization).
    pub sample_queues: bool,
    /// Run the packet-conservation audit (see [`crate::audit`]): track
    /// every packet's lifecycle and prove conservation, per-port
    /// accounting consistency, clock monotonicity, and transport
    /// invariants at end of run, panicking with a labelled diff on any
    /// violation. The preset constructors enable it in debug builds
    /// (therefore in `cargo test` and every tier-1 run) and disable it in
    /// release figure runs so benchmarks are unaffected.
    pub audit: bool,
    /// Fault injection for audit tests: silently discard the Nth arrival
    /// event (1-based) *without* telling any accounting layer — the kind
    /// of driver bug the audit exists to catch. `None` (always, outside
    /// audit tests) disables it.
    #[doc(hidden)]
    pub fault_drop_nth: Option<u64>,
    /// Simulation fidelity. Presets take the process default
    /// (`TLB_FIDELITY` env var, else full packet fidelity).
    /// [`FidelityKind::Hybrid`] is a *modeling* change: long-flow tails
    /// ride a fluid fair-share rate model, so
    /// results agree with [`FidelityKind::Packet`] within tolerance bands
    /// (`tests/fidelity.rs`) rather than bit-for-bit.
    pub fidelity: FidelityKind,
    /// `Some(W)`: snapshot the process allocation counters when the run
    /// loop has processed `W` events and report the steady-state delta in
    /// [`crate::RunReport::alloc_audit`]. Only meaningful when the binary
    /// installs [`tlb_engine::CountingAlloc`] and the run executes
    /// serially (the counters are process-wide). Presets take the process
    /// default (`TLB_ALLOC_AUDIT` env var: `1` for a default warmup of
    /// 2^17 events, or an explicit event count); `None` when a run ends
    /// before `W` events. The simulator is deterministic, so the delta is
    /// exactly reproducible for a given (config, flows) pair.
    pub alloc_warmup_events: Option<u64>,
    /// Execution engine. Presets take the process default (`TLB_ENGINE`
    /// env var: `serial`, `sharded`, or `sharded:<workers>`, defaulting
    /// to serial). [`tlb_engine::EngineKind::Sharded`] executes the run
    /// across OS threads via conservative fabric sharding; results are
    /// bit-identical to serial for any worker count
    /// (`tests/determinism.rs`). Configurations the sharded engine cannot
    /// partition (hybrid fidelity, chained flows, single-shard
    /// topologies, …) silently run serially — see
    /// `network/sharded.rs` for the exact preconditions.
    pub engine: EngineKind,
}

/// The default warmup (in processed events) for `TLB_ALLOC_AUDIT=1`.
pub const DEFAULT_ALLOC_WARMUP_EVENTS: u64 = 1 << 17;

/// Parse `TLB_ALLOC_AUDIT`: unset/`0`/empty disables, `1` enables with
/// [`DEFAULT_ALLOC_WARMUP_EVENTS`], any other integer is the warmup event
/// count itself.
fn alloc_warmup_from_env() -> Option<u64> {
    tlb_engine::env_knob::parse_with("TLB_ALLOC_AUDIT", None, |s| match s {
        "0" => Ok(None),
        "1" => Ok(Some(DEFAULT_ALLOC_WARMUP_EVENTS)),
        other => other
            .parse::<u64>()
            .map(Some)
            .map_err(|_| "want 0, 1, or a warmup event count".to_string()),
    })
}

/// Which traffic runs at packet-level fidelity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FidelityKind {
    /// Everything is simulated packet by packet — the reference mode, and
    /// the default. Bit-identical to the pre-hybrid simulator.
    Packet,
    /// Long flows (past the 100 KB reclassification boundary, i.e.
    /// [`SimConfig::short_threshold`]) migrate their unsent bytes to a
    /// per-link fair-share rate model ([`tlb_net::FluidNet`]) whose rates
    /// are recomputed only on flow arrival/departure/reroute/failure
    /// events. Short flows, SYN/FIN handshakes, the packet prefix of every
    /// long flow, and all queue/ECN dynamics stay packet-level. Validated
    /// against [`FidelityKind::Packet`] by tolerance bands (see
    /// `tests/fidelity.rs`), not bit-equality.
    Hybrid,
}

impl FidelityKind {
    /// The fidelity selected by the environment: `TLB_FIDELITY=packet` or
    /// `=hybrid`, defaulting to [`FidelityKind::Packet`].
    pub fn from_env() -> FidelityKind {
        tlb_engine::env_knob::choice(
            "TLB_FIDELITY",
            FidelityKind::Packet,
            &[
                ("packet", FidelityKind::Packet),
                ("hybrid", FidelityKind::Hybrid),
            ],
        )
    }
}

impl SimConfig {
    /// The paper's basic NS2 setup (§4.2/§6.1): one sending rack and two
    /// receiving racks behind 15 spines, 1 Gbit/s links, 100 µs RTT,
    /// 256-packet buffers, DCTCP.
    pub fn basic_paper(scheme: Scheme) -> SimConfig {
        SimConfig {
            topo: LeafSpineBuilder::new(3, 15, 16)
                .link_gbps(1.0)
                .target_rtt(SimTime::from_micros(100))
                .build()
                .into(),
            tcp: TcpConfig::dctcp_default(),
            queue: QueueCfg {
                capacity_pkts: 256,
                ecn_threshold_pkts: Some(20),
            },
            host_queue: QueueCfg {
                capacity_pkts: 2048,
                ecn_threshold_pkts: Some(20),
            },
            scheme,
            seed: 1,
            horizon: SimTime::from_secs(10),
            short_threshold: 100_000,
            series_bucket: SimTime::from_millis(1),
            link_events: Vec::new(),
            failure_events: Vec::new(),
            trace_flows: Vec::new(),
            sample_queues: false,
            audit: cfg!(debug_assertions),
            fault_drop_nth: None,
            fidelity: FidelityKind::from_env(),
            alloc_warmup_events: alloc_warmup_from_env(),
            engine: EngineKind::from_env(),
        }
    }

    /// The §6.2 large-scale setup: 8 ToR × 8 core. The paper uses 256 hosts
    /// (32 per rack, 4:1 oversubscription); `hosts_per_leaf` scales that
    /// down for quicker runs while preserving the oversubscription shape
    /// when set ≥ `2 × spines`.
    pub fn large_scale(scheme: Scheme, hosts_per_leaf: usize) -> SimConfig {
        SimConfig {
            topo: LeafSpineBuilder::new(8, 8, hosts_per_leaf)
                .link_gbps(1.0)
                .target_rtt(SimTime::from_micros(100))
                .build()
                .into(),
            tcp: TcpConfig::dctcp_default(),
            queue: QueueCfg {
                capacity_pkts: 256,
                ecn_threshold_pkts: Some(20),
            },
            host_queue: QueueCfg {
                capacity_pkts: 2048,
                ecn_threshold_pkts: Some(20),
            },
            scheme,
            seed: 1,
            horizon: SimTime::from_secs(20),
            short_threshold: 100_000,
            series_bucket: SimTime::from_millis(5),
            link_events: Vec::new(),
            failure_events: Vec::new(),
            trace_flows: Vec::new(),
            sample_queues: false,
            audit: cfg!(debug_assertions),
            fault_drop_nth: None,
            fidelity: FidelityKind::from_env(),
            alloc_warmup_events: alloc_warmup_from_env(),
            engine: EngineKind::from_env(),
        }
    }

    /// The §7 Mininet-testbed setup: 10 equal-cost paths, 20 Mbit/s links,
    /// 1 ms per-link delay, 256-packet buffers, 200 ms min RTO.
    pub fn testbed(scheme: Scheme) -> SimConfig {
        SimConfig {
            topo: LeafSpineBuilder::new(2, 10, 12)
                .link_mbps(20.0)
                .prop_per_link(SimTime::from_millis(1))
                .build()
                .into(),
            tcp: TcpConfig::testbed_default(),
            queue: QueueCfg {
                capacity_pkts: 256,
                ecn_threshold_pkts: Some(20),
            },
            host_queue: QueueCfg {
                capacity_pkts: 2048,
                ecn_threshold_pkts: Some(20),
            },
            scheme,
            seed: 1,
            horizon: SimTime::from_secs(400),
            short_threshold: 100_000,
            series_bucket: SimTime::from_millis(500),
            link_events: Vec::new(),
            failure_events: Vec::new(),
            trace_flows: Vec::new(),
            sample_queues: false,
            audit: cfg!(debug_assertions),
            fault_drop_nth: None,
            fidelity: FidelityKind::from_env(),
            alloc_warmup_events: alloc_warmup_from_env(),
            engine: EngineKind::from_env(),
        }
    }

    /// Check configuration consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.tcp.validate()?;
        if self.queue.capacity_pkts == 0 || self.host_queue.capacity_pkts == 0 {
            return Err("queues need nonzero capacity".into());
        }
        if self.horizon.is_zero() {
            return Err("horizon must be positive".into());
        }
        if self.series_bucket.is_zero() {
            return Err("series bucket must be positive".into());
        }
        for (i, ev) in self.link_events.iter().enumerate() {
            if ev.bw_factor <= 0.0 || ev.bw_factor.is_nan() {
                return Err(format!("link event {i}: bw_factor must be positive"));
            }
            if ev.leaf.index() >= self.topo.n_lb_switches()
                || ev.spine.index() >= self.topo.n_spines()
            {
                return Err(format!("link event {i}: link out of range"));
            }
        }
        for (i, ev) in self.failure_events.iter().enumerate() {
            match ev.target {
                FailureTarget::Link { sw, up } => {
                    if sw.index() >= self.topo.n_lb_switches() || up.index() >= self.topo.n_spines()
                    {
                        return Err(format!("failure event {i}: link out of range"));
                    }
                }
                FailureTarget::Switch { sw } => {
                    if sw >= self.topo.n_switches() {
                        return Err(format!("failure event {i}: switch out of range"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::basic_paper(Scheme::Ecmp).validate().unwrap();
        SimConfig::large_scale(Scheme::Rps, 16).validate().unwrap();
        SimConfig::testbed(Scheme::tlb_default())
            .validate()
            .unwrap();
    }

    #[test]
    fn basic_matches_paper_parameters() {
        let c = SimConfig::basic_paper(Scheme::Ecmp);
        assert_eq!(c.topo.n_spines(), 15, "15 equal-cost paths");
        assert_eq!(c.topo.host_link().bytes_per_sec, 125_000_000, "1 Gbit/s");
        assert_eq!(c.queue.capacity_pkts, 256);
        assert_eq!(
            c.topo.min_rtt(tlb_net::HostId(0), tlb_net::HostId(20)),
            SimTime::from_micros(100)
        );
    }

    #[test]
    fn large_scale_matches_paper_shape() {
        let c = SimConfig::large_scale(Scheme::Ecmp, 32);
        assert_eq!(c.topo.n_leaves(), 8);
        assert_eq!(c.topo.n_spines(), 8);
        assert_eq!(c.topo.n_hosts(), 256);
    }

    #[test]
    fn testbed_matches_paper_shape() {
        let c = SimConfig::testbed(Scheme::Ecmp);
        assert_eq!(c.topo.n_spines(), 10, "10 equal-cost paths");
        assert_eq!(c.topo.host_link().bytes_per_sec, 2_500_000, "20 Mbit/s");
        assert_eq!(c.tcp.min_rto, SimTime::from_millis(200));
    }

    #[test]
    fn validation_catches_zero_horizon() {
        let mut c = SimConfig::basic_paper(Scheme::Ecmp);
        c.horizon = SimTime::ZERO;
        assert!(c.validate().is_err());
    }
}

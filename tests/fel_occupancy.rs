//! The FEL occupancy bound on a high-BDP fabric, and the calendar wheel's
//! fabric-sized geometry.
//!
//! Long fat links are where the future-event list grows: every packet in
//! flight is one pending `Arrive`, so occupancy scales with the
//! bandwidth-delay product. The bound `ports + packets in flight +
//! pending starts/timers/housekeeping` accounts for every pending event —
//! one `TxDone` per port, one `Arrive` per packet-arena slot — and the run
//! loop asserts it at every depth sample while the audit is on. This test
//! builds a 10 Gbit/s fabric with 500 µs per-link propagation (≈ 2 ms RTT
//! across the spine, a multi-megabyte BDP) and checks that the bound held
//! and was exercised by a BDP-sized event list.
//!
//! The FEL's calendar wheel is sized at build from the fabric's per-hop
//! look-ahead — the largest serialization time of a full segment or
//! propagation delay over every state of every link — to twice that span
//! in 512 ns buckets, between 64 and 4096 of them. The geometry tests read
//! it back from the report.

use tlb::engine::time::tx_time;
use tlb::prelude::*;

/// 2 leaves × 4 spines × 8 hosts, 10 Gbit/s everywhere, `prop` per link:
/// 16 cross-rack 4 MB long flows plus 32 staggered 20 KB short flows.
fn high_bdp_job(scheme: Scheme, seed: u64, prop: SimTime) -> (SimConfig, Vec<FlowSpec>) {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.seed = seed;
    cfg.audit = true; // arm the in-loop occupancy oracle
    cfg.topo = LeafSpineBuilder::new(2, 4, 8)
        .link_gbps(10.0)
        .prop_per_link(prop)
        .build()
        .into();
    cfg.horizon = SimTime::from_millis(60);
    let hosts_per_leaf = cfg.topo.hosts_per_leaf() as u32;
    let mut flows = Vec::new();
    for i in 0..16u32 {
        flows.push(FlowSpec {
            id: FlowId(i),
            src: HostId(i % hosts_per_leaf),
            dst: HostId(hosts_per_leaf + (i * 3) % hosts_per_leaf),
            size_bytes: 4_000_000,
            start: SimTime::from_micros(10 * i as u64),
            deadline: None,
        });
    }
    for i in 0..32u32 {
        flows.push(FlowSpec {
            id: FlowId(16 + i),
            src: HostId((i * 5) % hosts_per_leaf),
            dst: HostId(hosts_per_leaf + (i * 7) % hosts_per_leaf),
            size_bytes: 20_000,
            start: SimTime::from_micros(200 + 50 * i as u64),
            deadline: None,
        });
    }
    (cfg, flows)
}

#[test]
fn fel_depth_stays_within_the_occupancy_bound_on_high_bdp_links() {
    // 16 host NICs + 2 leaves × (4 up + 8 down) + 4 spines × 2 down.
    const PORTS: f64 = 48.0;
    for scheme in [Scheme::Rps, Scheme::tlb_default()] {
        let name = scheme.name();
        let (cfg, flows) = high_bdp_job(scheme, 11, SimTime::from_micros(500));
        let r = run_one_ref(&cfg, &flows);
        assert!(
            r.audit.is_some(),
            "{name}: the audit (and oracle) did not run"
        );
        assert!(r.fel_depth.len() > 10, "{name}: too few depth samples");

        // The bound itself: every occupancy sample stays within it. (The
        // run loop asserts this per sample; the report-level check keeps
        // it visible to integration callers.)
        let max = r.fel_depth.max();
        assert!(
            max <= r.fel_bound_peak as f64,
            "{name}: FEL depth {max} exceeds bound {}",
            r.fel_bound_peak
        );

        // And the scenario is BDP-bound: packets in flight, not the
        // fabric's per-port events, dominate the event list.
        assert!(
            max > 10.0 * PORTS,
            "{name}: FEL depth {max} is not BDP-bound"
        );
    }
}

/// The fabric's per-hop look-ahead, from the topology alone (every link of
/// these leaf-spine jobs keeps its build-time properties unless a
/// `LinkEvent` says otherwise).
fn hop_lookahead(cfg: &SimConfig) -> SimTime {
    let wire = (cfg.tcp.mss + cfg.tcp.header_bytes) as u64;
    let hop = |l: tlb::net::LinkProps| l.prop_delay.max(tx_time(wire, l.bytes_per_sec));
    let topo = &cfg.topo;
    let mut worst = (0..topo.n_hosts() as u32)
        .map(|h| hop(topo.host_link_of(HostId(h))))
        .max()
        .unwrap();
    for leaf in 0..topo.n_leaves() {
        for spine in 0..topo.n_spines() {
            worst = worst.max(hop(topo.uplink_props(leaf, spine)));
        }
    }
    worst
}

/// Wheel span of a run, in nanoseconds.
fn wheel_span_ns(r: &RunReport) -> u64 {
    r.fel_buckets as u64 * r.fel_bucket_ns
}

/// The paper's §6.2 fabric (8 × 8 leaf-spine, 1 Gbit/s, ≈100 µs RTT) with
/// 8 hosts per leaf under a short web-search Poisson load.
fn fig10_job() -> (SimConfig, Vec<FlowSpec>) {
    let dist = web_search();
    let cfg = SimConfig::large_scale(Scheme::tlb_default(), 8);
    let wl = PoissonWorkload {
        load: 0.6,
        dist: &dist,
        duration: SimTime::from_millis(2),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: 100_000,
        inter_leaf_only: true,
    };
    let flows = wl.generate(&cfg.topo, &mut SimRng::new(42));
    (cfg, flows)
}

#[test]
fn fig10_wheel_covers_twice_the_hop_lookahead_and_no_more() {
    let (cfg, flows) = fig10_job();
    let look = hop_lookahead(&cfg).as_nanos();
    let r = run_one_ref(&cfg, &flows);
    assert_eq!(r.fel_bucket_ns, 512);
    assert!(
        wheel_span_ns(&r) >= 2 * look,
        "{} buckets span less than 2 x {look} ns",
        r.fel_buckets
    );
    assert!(r.fel_buckets <= 4096, "wider than the default wheel");
    // No wider than the rule needs: half the wheel would not cover it
    // (or the wheel is already at its 64-bucket floor).
    assert!(
        r.fel_buckets == 64 || wheel_span_ns(&r) / 2 < 2 * look,
        "{} buckets for a {look} ns look-ahead",
        r.fel_buckets
    );
    // Timers and flow starts ride the overflow tier; packet events don't.
    assert!(r.fel_overflow_pushes > 0);
    assert!(
        r.fel_overflow_pushes * 10 < r.events,
        "{} of {} events overflowed the wheel",
        r.fel_overflow_pushes,
        r.events
    );

    // Every shard replica builds the same wheel.
    let mut sharded = cfg.clone();
    sharded.engine = tlb::engine::EngineKind::Sharded { workers: Some(2) };
    let rs = run_one_ref(&sharded, &flows);
    assert_eq!(rs.engine_workers, Some(2));
    assert_eq!(
        (rs.fel_buckets, rs.fel_bucket_ns),
        (r.fel_buckets, r.fel_bucket_ns)
    );
}

#[test]
fn high_bdp_wheel_spans_twice_the_propagation_delay() {
    let (cfg, mut flows) = high_bdp_job(Scheme::tlb_default(), 11, SimTime::from_micros(250));
    flows.truncate(4);
    let r = run_one_ref(&cfg, &flows);
    assert!(
        wheel_span_ns(&r) >= 500_000,
        "{} x {} ns wheel on 250 us links",
        r.fel_buckets,
        r.fel_bucket_ns
    );
    assert!(r.fel_buckets <= 4096);
}

#[test]
fn a_link_event_that_stretches_propagation_widens_the_wheel() {
    let (mut cfg, flows) = fig10_job();
    let base = run_one_ref(&cfg, &flows);
    let stretched = hop_lookahead(&cfg) + SimTime::from_micros(200);
    cfg.link_events.push(tlb::simnet::LinkEvent {
        at: SimTime::from_millis(1),
        leaf: LeafId(0),
        spine: SpineId(1),
        bw_factor: 1.0,
        new_prop_delay: None,
        extra_delay: SimTime::from_micros(200),
    });
    let r = run_one_ref(&cfg, &flows);
    assert!(
        wheel_span_ns(&r) >= 2 * stretched.as_nanos(),
        "{} buckets do not cover the stretched link",
        r.fel_buckets
    );
    assert!(
        r.fel_buckets > base.fel_buckets,
        "{} -> {} buckets",
        base.fel_buckets,
        r.fel_buckets
    );
}

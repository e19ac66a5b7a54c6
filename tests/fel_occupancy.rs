//! The FEL occupancy bound on a high-BDP fabric.
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

use tlb::prelude::*;

/// 2 leaves × 4 spines × 8 hosts, 10 Gbit/s everywhere, 500 µs per link:
/// 16 cross-rack 4 MB long flows plus 32 staggered 20 KB short flows.
fn high_bdp_job(scheme: Scheme, seed: u64) -> (SimConfig, Vec<FlowSpec>) {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.seed = seed;
    cfg.audit = true; // arm the in-loop occupancy oracle
    cfg.topo = LeafSpineBuilder::new(2, 4, 8)
        .link_gbps(10.0)
        .prop_per_link(SimTime::from_micros(500))
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
        let (cfg, flows) = high_bdp_job(scheme, 11);
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

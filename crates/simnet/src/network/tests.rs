//! End-to-end simulator tests: physics sanity (line rate, RTT), protocol
//! sanity (completion, conservation), and determinism.

use super::*;
use crate::scheme::Scheme;
use tlb_net::{FlowId, LeafId, SpineId};
use tlb_workload::FlowSpec;

fn one_flow(size: u64) -> Vec<FlowSpec> {
    vec![FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(16), // different leaf in the basic 3x15x16 topology
        size_bytes: size,
        start: SimTime::ZERO,
        deadline: None,
    }]
}

fn run_basic(scheme: Scheme, flows: Vec<FlowSpec>) -> RunReport {
    let cfg = crate::SimConfig::basic_paper(scheme);
    Simulation::new(cfg, flows).run()
}

#[test]
fn single_small_flow_fct_is_physical() {
    // 2 segments, IW=2: handshake (1 RTT) + one window. Lower bound is
    // 1.5 RTT + serialization of 2 packets over 4 hops; upper bound a few
    // RTTs. At 1 Gbit/s + 100 us RTT this is well under 1 ms.
    let r = run_basic(Scheme::Ecmp, one_flow(2 * 1460));
    assert_eq!(r.completed, 1);
    let fct = r.fct.fct_of(FlowId(0)).unwrap();
    assert!(fct > 150e-6, "fct {fct} below propagation floor");
    assert!(fct < 1e-3, "fct {fct} implausibly slow");
    assert_eq!(r.drops, 0);
    assert_eq!(r.short.retransmits, 0);
}

#[test]
fn long_flow_reaches_near_line_rate() {
    // A window-limited DCTCP flow: W=64KB over RTT=100us allows ~5 Gbit/s,
    // so the 1 Gbit/s link is the binding constraint; expect >= 80% of line
    // rate goodput.
    let r = run_basic(Scheme::Ecmp, one_flow(20_000_000));
    assert_eq!(r.completed, 1);
    let goodput = r.fct_long.mean_goodput; // bytes/s
    assert!(
        goodput > 0.8 * 125_000_000.0,
        "goodput {:.1} Mbit/s too low",
        goodput * 8.0 / 1e6
    );
    assert!(
        goodput <= 125_000_000.0,
        "goodput exceeds line rate: {goodput}"
    );
}

#[test]
fn conservation_sent_equals_received_plus_losses() {
    // With no drops, every first-transmission data segment is received
    // exactly once (no retransmissions on a clean single flow).
    let r = run_basic(Scheme::Ecmp, one_flow(5_000_000));
    assert_eq!(r.drops, 0);
    let c = &r.long;
    assert_eq!(c.data_sent, c.data_received);
    assert_eq!(c.retransmits, 0);
    assert_eq!(c.out_of_order, 0, "single path cannot reorder");
}

#[test]
fn rps_single_flow_may_reorder_but_completes() {
    let r = run_basic(Scheme::Rps, one_flow(5_000_000));
    assert_eq!(r.completed, 1);
    // All paths symmetric: spraying reorders rarely but the flow must
    // still finish with full delivery.
    assert!(r.fct_long.mean_goodput > 0.5 * 125_000_000.0);
}

#[test]
fn two_flows_share_a_bottleneck_fairly() {
    // Two long flows from different hosts to the same destination host:
    // the receiver's access link is the bottleneck; each should get ~half.
    let flows = vec![
        FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(16),
            size_bytes: 10_000_000,
            start: SimTime::ZERO,
            deadline: None,
        },
        FlowSpec {
            id: FlowId(1),
            src: HostId(1),
            dst: HostId(16),
            size_bytes: 10_000_000,
            start: SimTime::ZERO,
            deadline: None,
        },
    ];
    let r = run_basic(Scheme::Ecmp, flows);
    assert_eq!(r.completed, 2);
    let f0 = r.fct.fct_of(FlowId(0)).unwrap();
    let f1 = r.fct.fct_of(FlowId(1)).unwrap();
    // Perfect sharing: each 10 MB at ~62.5 MB/s ~ 0.16 s... allow wide
    // bands, but both must take clearly longer than a solo run (~0.08 s)
    // and be within 2x of each other.
    assert!(f0 > 0.12 && f1 > 0.12, "flows did not share: {f0} {f1}");
    let ratio = f0.max(f1) / f0.min(f1);
    assert!(ratio < 2.0, "unfair split: {f0} vs {f1}");
}

#[test]
fn ecn_marks_appear_under_congestion() {
    // Many senders into one receiver: the shared downlink queue must build
    // past K=20 and mark.
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: HostId(16),
            size_bytes: 2_000_000,
            start: SimTime::ZERO,
            deadline: None,
        })
        .collect();
    let r = run_basic(Scheme::Ecmp, flows);
    assert_eq!(r.completed, 8);
    assert!(r.marks > 0, "DCTCP congestion must produce CE marks");
}

#[test]
fn dctcp_keeps_queues_shallow() {
    // The same incast with DCTCP: drops should be rare or absent because
    // marking throttles senders before the 256-packet buffer fills.
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: HostId(i),
            dst: HostId(16),
            size_bytes: 2_000_000,
            start: SimTime::ZERO,
            deadline: None,
        })
        .collect();
    let r = run_basic(Scheme::Ecmp, flows);
    let sent = r.short.data_sent + r.long.data_sent;
    assert!(
        (r.drops as f64) < 0.01 * sent as f64,
        "{} drops out of {} packets under DCTCP",
        r.drops,
        sent
    );
}

#[test]
fn determinism_same_seed_same_everything() {
    let mk = || {
        let mut cfg = crate::SimConfig::basic_paper(Scheme::letflow_default());
        cfg.seed = 42;
        let mut mix = tlb_workload::BasicMixConfig::paper_default();
        mix.n_short = 30;
        mix.n_long = 2;
        mix.long_lo = 2_000_000;
        mix.long_hi = 4_000_000;
        let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(5));
        Simulation::new(cfg, flows).run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.events, b.events);
    assert_eq!(a.fct_short.afct, b.fct_short.afct);
    assert_eq!(a.fct_long.mean_goodput, b.fct_long.mean_goodput);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.marks, b.marks);
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        let mut cfg = crate::SimConfig::basic_paper(Scheme::Rps);
        cfg.seed = seed;
        let mut mix = tlb_workload::BasicMixConfig::paper_default();
        mix.n_short = 30;
        mix.n_long = 2;
        mix.long_lo = 2_000_000;
        mix.long_hi = 4_000_000;
        let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(5));
        Simulation::new(cfg, flows).run()
    };
    let a = mk(1);
    let b = mk(2);
    // Same workload, different spraying randomness: queue dynamics differ.
    // (Event counts can coincide when nothing is lost, so compare the
    // congestion-sensitive statistics instead.)
    assert!(
        a.fct_short.afct != b.fct_short.afct || a.marks != b.marks,
        "different seeds produced identical dynamics"
    );
}

#[test]
fn intra_leaf_flow_bypasses_uplinks() {
    let flows = vec![FlowSpec {
        id: FlowId(0),
        src: HostId(0),
        dst: HostId(1), // same leaf
        size_bytes: 1_000_000,
        start: SimTime::ZERO,
        deadline: None,
    }];
    let r = run_basic(Scheme::Ecmp, flows);
    assert_eq!(r.completed, 1);
    assert_eq!(
        r.lb_decisions, 0,
        "intra-rack traffic never consults the LB"
    );
    assert_eq!(r.mean_uplink_utilization(), 0.0);
}

#[test]
fn horizon_cuts_off_unfinished_flows() {
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    cfg.horizon = SimTime::from_millis(1); // far too short for 100 MB
    let r = Simulation::new(cfg, one_flow(100_000_000)).run();
    assert_eq!(r.completed, 0);
    assert_eq!(r.fct_long.unfinished, 1);
    assert!(r.sim_end <= SimTime::from_millis(2));
}

#[test]
fn deadline_miss_accounting_end_to_end() {
    // One short flow with an absurdly tight deadline (1 ns: must miss) and
    // one with a loose deadline (1 s: must meet).
    let flows = vec![
        FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(16),
            size_bytes: 50_000,
            start: SimTime::ZERO,
            deadline: Some(SimTime::from_nanos(1)),
        },
        FlowSpec {
            id: FlowId(1),
            src: HostId(1),
            dst: HostId(17),
            size_bytes: 50_000,
            start: SimTime::ZERO,
            deadline: Some(SimTime::from_secs(1)),
        },
    ];
    let r = run_basic(Scheme::tlb_default(), flows);
    assert_eq!(r.completed, 2);
    assert!((r.fct_short.deadline_miss - 0.5).abs() < 1e-9);
}

#[test]
fn tlb_records_qth_series() {
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 40;
    mix.n_long = 3;
    mix.long_lo = 3_000_000;
    mix.long_hi = 5_000_000;
    let cfg = crate::SimConfig::basic_paper(Scheme::tlb_default());
    let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(8));
    let r = Simulation::new(cfg, flows).run();
    assert_eq!(r.completed, r.total_flows);
    assert!(
        !r.qth_series.is_empty(),
        "TLB must report its threshold trajectory"
    );
    assert!(r.lb_state_bytes_peak > 0, "TLB keeps per-flow switch state");
}

#[test]
fn all_schemes_complete_the_basic_mix() {
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 20;
    mix.n_long = 2;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    for scheme in crate::Scheme::paper_set() {
        let name = scheme.name();
        let cfg = crate::SimConfig::basic_paper(scheme);
        let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(3));
        let r = Simulation::new(cfg, flows).run();
        assert_eq!(r.completed, r.total_flows, "{name} left flows unfinished");
        // Every byte of every flow must have been delivered in order.
        let delivered: u64 = r.short.data_received + r.long.data_received;
        assert!(delivered > 0);
    }
}

#[test]
fn asymmetric_topology_still_completes() {
    let mut cfg = crate::SimConfig::basic_paper(Scheme::letflow_default());
    cfg.topo
        .degrade_link(LeafId(0), SpineId(0), 0.25, SimTime::from_micros(200));
    cfg.topo
        .degrade_link(LeafId(0), SpineId(1), 0.25, SimTime::from_micros(200));
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 20;
    mix.n_long = 2;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(4));
    let r = Simulation::new(cfg, flows).run();
    assert_eq!(r.completed, r.total_flows);
}

#[test]
fn utilization_bounded_by_one() {
    let r = run_basic(Scheme::Rps, one_flow(10_000_000));
    for leaf in &r.uplink_utilization {
        for &u in leaf {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
    }
}

#[test]
fn report_one_line_formats() {
    let r = run_basic(Scheme::Ecmp, one_flow(100_000));
    let line = r.one_line();
    assert!(line.contains("ECMP"));
    assert!(line.contains("afct"));
}

#[test]
fn summary_digest_matches_report() {
    let r = run_basic(Scheme::Ecmp, one_flow(1_000_000));
    let s = r.to_summary();
    assert_eq!(s.scheme, r.scheme);
    assert_eq!(s.completed, r.completed);
    assert_eq!(s.short_afct_s, r.fct_short.afct);
    assert_eq!(s.long_goodput_bps, r.long_throughput());
    assert_eq!(s.events, r.events);
    // And it serializes.
    let json = serde_json::to_string(&s).unwrap();
    assert!(json.contains("\"scheme\":\"ECMP\""));
    let back: crate::report::Summary = serde_json::from_str(&json).unwrap();
    assert_eq!(back.events, s.events);
}

#[test]
fn tracing_disabled_by_default() {
    let r = run_basic(Scheme::Rps, one_flow(500_000));
    assert!(r.traces.is_empty(), "no trace_flows -> no trace records");
}

#[test]
fn tlb_tick_cadence_is_the_update_interval() {
    let mut mix = tlb_workload::BasicMixConfig::paper_default();
    mix.n_short = 10;
    mix.n_long = 1;
    mix.long_lo = 2_000_000;
    mix.long_hi = 2_000_000;
    let cfg = crate::SimConfig::basic_paper(Scheme::tlb_default());
    let flows = tlb_workload::basic_mix(&cfg.topo, &mix, &mut tlb_engine::SimRng::new(2));
    let r = Simulation::new(cfg, flows).run();
    // q_th samples arrive every 500 us (the paper's t).
    assert!(r.qth_series.len() >= 4);
    for w in r.qth_series.windows(2) {
        let dt = w[1].0 - w[0].0;
        assert!((dt - 500e-6).abs() < 1e-9, "tick spacing {dt}");
    }
}

#[test]
fn mid_run_link_change_applies() {
    use crate::config::LinkEvent;
    // One path only; brown out at t=1ms; a long flow must slow down after.
    let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    cfg.topo = tlb_net::LeafSpineBuilder::new(2, 1, 2)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build()
        .into();
    cfg.link_events.push(LinkEvent {
        at: SimTime::from_millis(1),
        leaf: LeafId(0),
        spine: SpineId(0),
        new_prop_delay: None,
        bw_factor: 0.5,
        extra_delay: SimTime::ZERO,
    });
    let r = Simulation::new(
        cfg,
        vec![FlowSpec {
            id: FlowId(0),
            src: HostId(0),
            dst: HostId(2),
            size_bytes: 5_000_000,
            start: SimTime::ZERO,
            deadline: None,
        }],
    )
    .run();
    assert_eq!(r.completed, 1);
    let fct = r.fct.fct_of(FlowId(0)).unwrap();
    // 5 MB at 1 Gbit/s ~ 40 ms; at 0.5 Gbit/s after the first ms ~ 79 ms.
    assert!(fct > 0.06, "brownout had no effect: fct {fct}");
}

#[test]
fn chained_head_start_time_is_honoured() {
    let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    let mk = |id: u32, start_us: u64| FlowSpec {
        id: FlowId(id),
        src: HostId(0),
        dst: HostId(16),
        size_bytes: 14_600,
        start: SimTime::from_micros(start_us),
        deadline: None,
    };
    // Head starts at 5 ms; successor starts at completion (its own start
    // field, 0, is ignored).
    let flows = vec![mk(0, 5_000), mk(1, 0)];
    let r = Simulation::new_chained(cfg, flows, vec![Some(1), None]).run();
    assert_eq!(r.completed, 2);
    // Both finish quickly once launched: flow 1's FCT is small, proving its
    // clock started at launch, not at t=0 (which would add 5+ ms).
    assert!(r.fct.fct_of(FlowId(1)).unwrap() < 0.004);
}

#[test]
#[should_panic(expected = "chained twice")]
fn double_chaining_rejected() {
    let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    let flows = one_flow(1000);
    let mut flows3 = flows.clone();
    flows3.push(FlowSpec {
        id: FlowId(1),
        ..flows[0]
    });
    flows3.push(FlowSpec {
        id: FlowId(2),
        ..flows[0]
    });
    // Flows 0 and 1 both claim flow 2 as successor.
    let _ = Simulation::new_chained(cfg, flows3, vec![Some(2), Some(2), None]);
}

#[test]
fn event_payload_stays_compact() {
    // The hot enum is copied in and out of the FEL millions of times per
    // run; `Arrive` carries a 4-byte arena handle, not a boxed packet. If
    // a new variant grows the enum past two words, that is a perf
    // regression worth a deliberate decision.
    assert!(
        std::mem::size_of::<Event>() <= 16,
        "Event grew to {} bytes",
        std::mem::size_of::<Event>()
    );
}

#[test]
fn ooo_buffers_return_to_the_pool() {
    // Every receiver's out-of-order buffer must come back to the pool at
    // FIN delivery, and a later generation of flows must be served
    // entirely from recycled buffers: misses only for the first
    // generation. (The final generation's FINs are still in flight when
    // the run loop exits on all-complete, so its buffers are legitimately
    // parked in live receivers, not the pool.)
    let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    let mk = |id: u32, start_us: u64| FlowSpec {
        id: FlowId(id),
        src: HostId(id % 8),
        dst: HostId(16 + id % 8),
        size_bytes: 29_200,
        start: SimTime::from_micros(start_us),
        deadline: None,
    };
    // Two non-overlapping generations of 4 flows each.
    let flows: Vec<FlowSpec> = (0..4)
        .map(|i| mk(i, 0))
        .chain((4..8).map(|i| mk(i, 20_000)))
        .collect();
    let mut net = Net::build(&cfg, &flows, vec![None; flows.len()], None);
    net.run_loop();
    assert_eq!(net.n_completed, flows.len());
    let (hits, misses) = net.ooo_pool.stats();
    assert_eq!(misses, 4, "only the first generation allocates");
    assert_eq!(hits, 4, "the second generation reuses the parked buffers");
}

#[test]
fn packet_arena_drains_and_recycles() {
    // Every in-flight packet parks in the arena, and the slab must
    // stabilize at the peak in-flight population rather than growing with
    // the total packet count. Residual slots at loop exit belong to
    // still-queued `Arrive` events; `finish_audit` drains them and
    // debug-asserts the arena empties (exercised via `into_report` below,
    // since the basic preset audits in debug builds).
    let cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
    let flows = one_flow(500 * 1460);
    let mut net = Net::build(&cfg, &flows, vec![None; 1], None);
    net.run_loop();
    assert_eq!(net.n_completed, 1);
    let slots = net.arena.slots_allocated();
    assert!(slots > 0, "in-flight packets must actually use the arena");
    assert!(
        slots < 500,
        "slab grew to {slots} slots for a 500-segment flow — recycling broke"
    );
    assert_eq!(net.arena.peak_live(), slots);
    assert!(
        net.arena.live() as usize <= net.q.len(),
        "live slots must be exactly the still-queued arrivals"
    );
    let r = net.into_report(std::time::Duration::ZERO);
    assert_eq!(r.completed, 1);
}

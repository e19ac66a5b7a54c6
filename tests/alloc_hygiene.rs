//! Allocation hygiene: after warmup, the simulator's per-packet steady
//! state performs ZERO heap acquisitions — no allocations, no Vec
//! regrowth — on a fig10-shaped production job, on a 10 Gb/s fabric whose
//! links change mid-window, on a hybrid-fidelity fat tree, and on the
//! fuzzer's 16-job batch.
//!
//! This binary installs [`tlb::engine::CountingAlloc`] as the global
//! allocator; the simulator snapshots the process-wide counters at the
//! configured warmup boundary and reports the steady-state delta in
//! [`RunReport::alloc_audit`]. Because the counters are process-wide,
//! everything here runs inside ONE `#[test]` — a second concurrent test
//! thread allocating mid-window would make the gate flaky. The simulator
//! itself is bit-deterministic, so within a quiet process the gate is an
//! exact equality, not a threshold.
//!
//! The warmup boundary is learned empirically per job: run once without
//! auditing to learn the total event count `E`, then rerun with the
//! window opening at `E/2`. Everything the simulator ever allocates —
//! metric reservations, pool/arena warm-up growth, calendar-queue bucket
//! doubling, balancer flow tables — must have reached steady state by
//! mid-run.

use tlb::engine::{alloc_audit, CountingAlloc};
use tlb::prelude::*;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// The BENCH_PR6 macro job shape: the large-scale fabric under a Poisson
/// web-search load (what fig10 sweeps), sized to finish quickly in debug
/// builds while still processing enough events to have a steady state.
fn fig10_job() -> (SimConfig, Vec<FlowSpec>) {
    let dist = web_search();
    let cfg = SimConfig::large_scale(Scheme::tlb_default(), 8);
    let wl = PoissonWorkload {
        load: 0.6,
        dist: &dist,
        duration: SimTime::from_millis(6),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: 100_000,
        inter_leaf_only: true,
    };
    let flows = wl.generate(&cfg.topo, &mut SimRng::new(42));
    (cfg, flows)
}

/// Run `(cfg, flows)` serially with the audit window opening at `warmup`
/// events. The packet-conservation ledger is disabled: it is test-only
/// bookkeeping whose per-packet records are *supposed* to allocate, and
/// the zero-alloc invariant covers the production path.
fn audited(mut cfg: SimConfig, flows: Vec<FlowSpec>, warmup: u64) -> RunReport {
    cfg.audit = false;
    cfg.alloc_warmup_events = Some(warmup.max(1));
    run_one(cfg, flows)
}

/// Total events of `(cfg, flows)` without auditing (the learning pass).
fn learn_events(mut cfg: SimConfig, flows: Vec<FlowSpec>) -> u64 {
    cfg.audit = false;
    cfg.alloc_warmup_events = None;
    run_one(cfg, flows).events
}

fn assert_zero_alloc(r: &RunReport, label: &str) {
    let a = r
        .alloc_audit
        .unwrap_or_else(|| panic!("{label}: audit window never closed"));
    assert!(a.counting, "{label}: counting allocator not detected");
    assert!(a.steady_events > 0, "{label}: empty steady window");
    assert_eq!(
        a.acquisitions(),
        0,
        "{label}: {} allocs + {} reallocs ({} bytes) across {} steady events",
        a.allocs,
        a.reallocs,
        a.bytes,
        a.steady_events,
    );
}

#[test]
fn steady_state_is_allocation_free() {
    assert!(
        alloc_audit::probe_counting(),
        "this binary must install the counting allocator"
    );

    // --- fig10-shaped job ------------------------------------------------
    let (cfg, flows) = fig10_job();
    let e = learn_events(cfg.clone(), flows.clone());
    assert!(e > 100_000, "job too small for a steady state: {e} events");
    let r = audited(cfg, flows, e / 2);
    assert_eq!(r.events, e, "the audit window changed the event count");
    assert_zero_alloc(&r, "fig10");

    // --- mid-audit flap on a 10 Gb/s link: in-flight sizing regression ---
    // Two stacked LinkEvents land INSIDE the audit window on one 10 Gb/s
    // uplink: a bandwidth improvement (shorter tx time) plus extra
    // propagation delay, each growing the worst-case number of packets in
    // flight on the wire. Nothing may grow mid-window: the FEL and the
    // packet arena are sized at build from the in-flight bound of every
    // link's whole event schedule.
    {
        let dist = web_search();
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.topo = LeafSpineBuilder::new(4, 4, 8)
            .link_gbps(10.0)
            .target_rtt(SimTime::from_micros(100))
            .build()
            .into();
        for (at_us, extra_us) in [(1_300, 150), (1_600, 150)] {
            cfg.link_events.push(tlb::simnet::LinkEvent {
                at: SimTime::from_micros(at_us),
                leaf: LeafId(0),
                spine: SpineId(1),
                bw_factor: 1.25,
                new_prop_delay: None,
                extra_delay: SimTime::from_micros(extra_us),
            });
        }
        let wl = PoissonWorkload {
            load: 0.4,
            dist: &dist,
            duration: SimTime::from_millis(2),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: 100_000,
            inter_leaf_only: true,
        };
        let flows = wl.generate(&cfg.topo, &mut SimRng::new(77));
        let e = learn_events(cfg.clone(), flows.clone());
        assert!(e > 100_000, "flap job too small for a steady state: {e}");
        let r = audited(cfg, flows, e / 2);
        assert_eq!(r.events, e, "the audit window changed the event count");
        assert_zero_alloc(&r, "10G mid-audit flap");
    }

    // --- hybrid fidelity on a k=8 fat tree -------------------------------
    // Long-flow tails join and leave the fluid tier throughout the window:
    // fluid link membership, rate-change draining, `FluidDone` scheduling,
    // receiver buffers parked while a tail is fluid, and the two
    // balancer-chosen uplinks an inter-pod segment samples must all stay
    // off the allocator. ECMP keeps no per-flow switch state; TLB's
    // per-switch flow tables are demand-sized hash maps whose high-water
    // growth on a fat tree's many small tables is a separate open item
    // (CHANGES.md).
    {
        let dist = web_search();
        let mut cfg = SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = FatTreeBuilder::new(8)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build()
            .into();
        cfg.fidelity = FidelityKind::Hybrid;
        let wl = PoissonWorkload {
            load: 0.6,
            dist: &dist,
            duration: SimTime::from_millis(6),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: 100_000,
            inter_leaf_only: true,
        };
        let flows = wl.generate(&cfg.topo, &mut SimRng::new(42));
        let e = learn_events(cfg.clone(), flows.clone());
        assert!(e > 50_000, "hybrid job too small for a steady state: {e}");
        let r = audited(cfg, flows, e / 2);
        assert_eq!(r.events, e, "the audit window changed the event count");
        assert!(
            r.fluid_migrations > 0,
            "no tail ever reached the fluid tier"
        );
        assert_zero_alloc(&r, "hybrid fat tree");
    }

    // --- the fuzzer's 16-job batch, run serially -------------------------
    // Same raw tuples as tests/determinism.rs: they span schemes, incast,
    // and static + mid-run degradation.
    let raws: [tlb_fuzz::RawScenario; 4] = [
        (
            (2, 3, 2, 10),
            (4, 6, 1, 2),
            (42, true, 50, 10, false),
            (0, false, 0, 0, false),
        ),
        (
            (3, 4, 3, 15),
            (5, 10, 2, 3),
            (7, true, 25, 40, true),
            (0, false, 0, 0, false),
        ),
        (
            (2, 2, 4, 5),
            (1, 8, 1, 0),
            (99, false, 50, 0, false),
            (0, false, 0, 0, false),
        ),
        (
            (4, 6, 2, 20),
            (3, 12, 3, 5),
            (1234, true, 75, 5, true),
            (0, false, 0, 0, false),
        ),
    ];
    for &(topo, traffic, (seed, degrade, bw, extra, mid), failure) in &raws {
        for k in 0..4u64 {
            let raw = (
                topo,
                traffic,
                (seed + k * 1000, degrade, bw, extra, mid),
                failure,
            );
            let b = tlb_fuzz::Scenario::from_raw(raw).build();
            let e = learn_events(b.cfg.clone(), b.flows.clone());
            let r = audited(b.cfg, b.flows, e / 2);
            assert_zero_alloc(&r, &format!("fuzz {raw:?}"));
        }
    }
}

//! k=16 fat-tree smoke coverage (PR 8).
//!
//! The k=8 fabric is exercised by the failure-injection matrix; this
//! suite scales the same machinery to the 1024-host, 320-switch k=16
//! pod fabric and checks the things that tend to break first at scale:
//! every flow completes, the conservation audit closes its books, and
//! reruns and the sharded engine reproduce the serial digests. A
//! hybrid-fidelity leg
//! rides along so the fluid tier's multi-hop fat-tree routing (edge →
//! agg → core → agg → edge) gets coverage on the deepest path shape.

use tlb::engine::EngineKind;
use tlb::prelude::*;

fn digest(r: &RunReport) -> (u64, String, u64, u64, usize, usize) {
    (
        r.events,
        format!("{:.12}/{:.12}", r.fct_short.afct, r.fct_long.mean_goodput),
        r.drops,
        r.marks,
        r.traces.len(),
        r.completed,
    )
}

fn k16_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.topo = FatTreeBuilder::new(16)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build()
        .into();
    cfg.audit = true;
    cfg
}

fn k16_run(scheme: Scheme, fidelity: FidelityKind, seed: u64) -> RunReport {
    k16_run_on(scheme, fidelity, seed, EngineKind::Serial)
}

fn k16_run_on(scheme: Scheme, fidelity: FidelityKind, seed: u64, engine: EngineKind) -> RunReport {
    let mut cfg = k16_cfg(scheme);
    cfg.fidelity = fidelity;
    cfg.engine = engine;
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 80;
    mix.n_long = 4;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(seed));
    Simulation::new(cfg, flows).run()
}

#[test]
fn k16_smoke_completes_with_clean_audit() {
    let r = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    assert_eq!(r.completed, r.total_flows, "k=16 run stranded flows");
    let audit = r.audit.as_ref().expect("conservation audit did not run");
    let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
    assert_eq!(
        audit.total_emitted(),
        audit.total_delivered() + audit.total_dropped() + in_flight,
        "k=16: conservation must close the books"
    );
    assert_eq!(audit.monotonicity_violations, 0);
}

#[test]
fn k16_digests_are_stable_across_reruns_and_backends() {
    let base = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    let rerun = k16_run(Scheme::tlb_default(), FidelityKind::Packet, 16);
    assert_eq!(digest(&base), digest(&rerun), "k=16 rerun diverged");

    // The sharded engine must reproduce the serial digest at this scale
    // too (the absolute digest is pinned in `tests/golden.rs`).
    let sharded = k16_run_on(
        Scheme::tlb_default(),
        FidelityKind::Packet,
        16,
        EngineKind::Sharded { workers: Some(2) },
    );
    assert_eq!(
        sharded.engine_workers,
        Some(2),
        "k=16 sharded run fell back"
    );
    assert_eq!(digest(&sharded), digest(&base), "k=16 sharded run diverged");
    assert_eq!(sharded.audit, base.audit, "k=16 sharded audit diverged");
}

#[test]
fn k16_hybrid_smoke_migrates_and_completes() {
    let r = k16_run(Scheme::tlb_default(), FidelityKind::Hybrid, 16);
    assert_eq!(r.completed, r.total_flows, "k=16 hybrid run stranded flows");
    assert!(
        r.fluid_migrations > 0,
        "no flow migrated to the fluid tier on the k=16 fabric"
    );
    assert!(r.audit.is_some(), "conservation audit did not run");
    // Determinism holds for the hybrid tier on the deep path shape too.
    let rerun = k16_run(Scheme::tlb_default(), FidelityKind::Hybrid, 16);
    assert_eq!(digest(&r), digest(&rerun), "k=16 hybrid rerun diverged");
    assert_eq!(r.fluid_bytes, rerun.fluid_bytes);
}

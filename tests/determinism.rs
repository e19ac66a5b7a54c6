//! Bit-determinism across every simulator feature: identical seeds must
//! produce identical runs even with chaining, failure injection, tracing
//! and every scheme in the registry.

use tlb::prelude::*;
use tlb::simnet::{LinkEvent, ShardFallback};

fn full_feature_run(scheme: Scheme, seed: u64) -> RunReport {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.seed = seed;
    cfg.trace_flows = vec![FlowId(0)];
    cfg.link_events.push(LinkEvent {
        at: SimTime::from_millis(5),
        leaf: LeafId(0),
        spine: SpineId(7),
        bw_factor: 0.5,
        new_prop_delay: None,
        extra_delay: SimTime::from_micros(50),
    });
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 30;
    mix.n_long = 2;
    mix.long_lo = 1_500_000;
    mix.long_hi = 2_500_000;
    let (flows, next) = sustained_mix(&cfg.topo, &mix, 4, &mut SimRng::new(seed ^ 0xF00D));
    Simulation::new_chained(cfg, flows, next).run()
}

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

/// Order-sensitive hash of the sampled FEL-occupancy series, asserted
/// between runs of the serial engine (thread counts, reruns). Absolute
/// digests are pinned by `tests/golden.rs`; this is the one observable it
/// leaves out, because it describes the event list, not the network.
fn fel_depth_hash(r: &RunReport) -> u64 {
    r.fel_depth
        .samples()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

#[test]
fn all_schemes_are_bit_deterministic() {
    let mut schemes = Scheme::extended_set();
    schemes.push(Scheme::Wcmp);
    for scheme in schemes {
        let name = scheme.name();
        let a = full_feature_run(scheme.clone(), 99);
        let b = full_feature_run(scheme, 99);
        assert_eq!(digest(&a), digest(&b), "{name} not deterministic");
        assert_eq!(
            fel_depth_hash(&a),
            fel_depth_hash(&b),
            "{name}: fel_depth series diverged between reruns"
        );
        // Even the packet traces must match hop for hop.
        assert_eq!(a.traces.len(), b.traces.len());
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.hop, y.hop, "{name}: trace diverged");
            assert_eq!(x.at, y.at, "{name}: trace timing diverged");
        }
    }
}

#[test]
fn parallel_execution_matches_serial() {
    // The pool fan-out must not perturb per-run results: run the same
    // 8-job batch serially (run_one) and on a 4-thread pool, and require
    // bit-identical digests. The thread probe keeps the test load-bearing —
    // it fails if the "parallel" path silently degrades to sequential.
    let mk_job = |seed| {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.seed = seed;
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 20;
        mix.n_long = 1;
        mix.long_lo = 1_000_000;
        mix.long_hi = 1_000_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(seed));
        (cfg, flows)
    };
    let serial: Vec<_> = (0..8).map(|s| run_one(mk_job(s).0, mk_job(s).1)).collect();
    let before = rayon::workers_observed();
    let parallel = rayon::with_threads(4, || run_all((0..8).map(mk_job).collect()));
    assert!(
        rayon::workers_observed() - before >= 2,
        "batch must actually fan out over >1 OS thread"
    );
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(digest(a), digest(b), "{}: parallel != serial", a.scheme);
        assert_eq!(
            fel_depth_hash(a),
            fel_depth_hash(b),
            "{}: fel_depth series diverged across thread counts",
            a.scheme
        );
        assert_eq!(
            a.audit, b.audit,
            "{}: audit counters diverged across thread counts",
            a.scheme
        );
    }
}

#[test]
fn fuzz_scenarios_are_digest_stable_across_thread_counts() {
    // The fuzzer's scenarios must be as deterministic as the hand-built
    // ones, including under an odd worker count (`TLB_THREADS=3`
    // equivalent, pinned here via the explicit pool so the test does not
    // race on the environment). Fixed raw tuples span schemes, incast,
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
    // Fan each tuple out over four workload seeds: 16 jobs gives the
    // 3-thread pool enough queue depth that the worker probe below is not
    // racing a single fast worker draining the whole batch.
    let jobs: Vec<_> = raws
        .iter()
        .flat_map(
            |&(topo, traffic, (seed, degrade, bw, extra, mid), failure)| {
                (0..4).map(move |k| {
                    (
                        topo,
                        traffic,
                        (seed + k * 1000, degrade, bw, extra, mid),
                        failure,
                    )
                })
            },
        )
        .map(|raw| {
            let b = tlb_fuzz::Scenario::from_raw(raw).build();
            (b.cfg, b.flows)
        })
        .collect();
    let serial: Vec<_> = jobs
        .iter()
        .cloned()
        .map(|(cfg, flows)| run_one(cfg, flows))
        .collect();
    let before = rayon::workers_observed();
    let threaded = rayon::with_threads(3, || run_all(jobs));
    assert!(
        rayon::workers_observed() - before >= 2,
        "3-thread batch must actually fan out over >1 OS thread"
    );
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(digest(a), digest(b), "{}: 3-thread != serial", a.scheme);
        assert_eq!(
            fel_depth_hash(a),
            fel_depth_hash(b),
            "{}: fel_depth series diverged across thread counts",
            a.scheme
        );
        assert_eq!(
            a.audit, b.audit,
            "{}: audit counters diverged across thread counts",
            a.scheme
        );
    }
}

#[test]
fn workload_generators_are_seed_stable() {
    let topo = LeafSpineBuilder::new(4, 4, 8).build().into();
    // Regression pin: the first web-search Poisson flow for seed 1. If this
    // changes, the RNG stream or generator logic changed and all recorded
    // results need regeneration.
    let dist = web_search();
    let wl = PoissonWorkload {
        load: 0.5,
        dist: &dist,
        duration: SimTime::from_millis(20),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: 100_000,
        inter_leaf_only: true,
    };
    let a = wl.generate(&topo, &mut SimRng::new(1));
    let b = wl.generate(&topo, &mut SimRng::new(1));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.size_bytes, y.size_bytes);
        assert_eq!(x.start, y.start);
        assert_eq!((x.src, x.dst), (y.src, y.dst));
    }
}

#[test]
fn hybrid_fuzz_batch_is_digest_stable_across_thread_counts() {
    // The hybrid fluid tier (PR 8) must be exactly as deterministic as
    // packet fidelity: same 16-job fuzz batch as the packet test above,
    // run at `FidelityKind::Hybrid`, serial vs a 3-thread pool. Hybrid
    // digests are their own stable baseline — they are never compared to
    // packet digests (that comparison is banded, in `tests/fidelity.rs`),
    // only to themselves across worker counts.
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
    let jobs: Vec<_> = raws
        .iter()
        .flat_map(
            |&(topo, traffic, (seed, degrade, bw, extra, mid), failure)| {
                (0..4).map(move |k| {
                    (
                        topo,
                        traffic,
                        (seed + k * 1000, degrade, bw, extra, mid),
                        failure,
                    )
                })
            },
        )
        .map(|raw| {
            let b = tlb_fuzz::Scenario::from_raw(raw).build();
            let mut cfg = b.cfg;
            cfg.fidelity = FidelityKind::Hybrid;
            (cfg, b.flows)
        })
        .collect();
    let serial: Vec<_> = jobs
        .iter()
        .cloned()
        .map(|(cfg, flows)| run_one(cfg, flows))
        .collect();
    assert!(
        serial.iter().any(|r| r.fluid_migrations > 0),
        "the batch must exercise the fluid tier somewhere"
    );
    let before = rayon::workers_observed();
    let threaded = rayon::with_threads(3, || run_all(jobs));
    assert!(
        rayon::workers_observed() - before >= 2,
        "3-thread batch must actually fan out over >1 OS thread"
    );
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(digest(a), digest(b), "{}: 3-thread != serial", a.scheme);
        assert_eq!(
            fel_depth_hash(a),
            fel_depth_hash(b),
            "{}: fel_depth series diverged across thread counts",
            a.scheme
        );
        assert_eq!(
            a.fluid_migrations, b.fluid_migrations,
            "{}: migration counts diverged across thread counts",
            a.scheme
        );
        assert_eq!(
            a.fluid_bytes, b.fluid_bytes,
            "{}: fluid byte totals diverged across thread counts",
            a.scheme
        );
        assert_eq!(
            a.audit, b.audit,
            "{}: audit counters diverged across thread counts",
            a.scheme
        );
    }
}

/// Compare everything the sharded merge path must reproduce bit-for-bit
/// against a serial reference: the scalar digest, the audit ledger, the
/// end-of-run clock, and every traced hop. `fel_depth` is deliberately
/// absent — its sampling schedule is a function of each shard's local
/// event counter, so the sharded samples interleave differently (the
/// *simulation* is still bit-identical; the probe is engine-local).
fn assert_sharded_matches(serial: &RunReport, sharded: &RunReport, label: &str) {
    assert_eq!(
        digest(serial),
        digest(sharded),
        "{label}: sharded != serial"
    );
    assert_eq!(
        serial.audit, sharded.audit,
        "{label}: audit counters diverged"
    );
    assert_eq!(serial.sim_end, sharded.sim_end, "{label}: sim_end diverged");
    assert_eq!(serial.traces.len(), sharded.traces.len());
    for (x, y) in serial.traces.iter().zip(&sharded.traces) {
        assert_eq!(x.hop, y.hop, "{label}: trace hop diverged");
        assert_eq!(x.at, y.at, "{label}: trace timing diverged");
    }
}

#[test]
fn sharded_engine_is_bit_identical_across_worker_counts() {
    // The tentpole acceptance gate: one simulation executed across OS
    // threads by conservative fabric sharding must produce the exact
    // serial digests for ANY worker count. Same 16-job fuzz batch as the
    // thread-count test and the golden corpus (schemes, incast, static +
    // mid-run degradation), serial vs sharded at 1/2/3/4/8 workers — 3
    // cuts uneven leaf groups. Every job at ≥ 2 workers must run real
    // parallel windows, not just the serialized tail.
    use tlb::engine::EngineKind;
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
    let jobs_with = |engine: EngineKind| -> Vec<_> {
        raws.iter()
            .flat_map(
                |&(topo, traffic, (seed, degrade, bw, extra, mid), failure)| {
                    (0..4).map(move |k| {
                        (
                            topo,
                            traffic,
                            (seed + k * 1000, degrade, bw, extra, mid),
                            failure,
                        )
                    })
                },
            )
            .map(|raw| {
                let mut b = tlb_fuzz::Scenario::from_raw(raw).build();
                b.cfg.engine = engine;
                (b.cfg, b.flows)
            })
            .collect()
    };
    let serial = run_all(jobs_with(EngineKind::Serial));
    for workers in [1u32, 2, 3, 4, 8] {
        let sharded = run_all(jobs_with(EngineKind::Sharded {
            workers: Some(workers),
        }));
        assert_eq!(serial.len(), sharded.len());
        for (a, b) in serial.iter().zip(&sharded) {
            assert!(
                b.engine_workers.is_some(),
                "{}: sharded engine fell back to serial on a fuzz job ({:?})",
                b.scheme,
                b.engine_fallback
            );
            assert!(
                workers < 2 || b.sharded_windows > 0,
                "{} @ {workers} workers: no parallel window opened",
                b.scheme
            );
            assert_sharded_matches(a, b, &format!("{} @ {workers} workers", a.scheme));
        }
    }
}

#[test]
fn sharded_engine_matches_serial_on_fat_tree_failure_flap() {
    // Three-tier partition + global-event micro-steps: a k=8 fat tree
    // (128 hosts, 80 switches, 8 pods grouped into one shard per worker)
    // with a mid-run edge-uplink down/up flap. Failures force
    // whole-fabric reachability recomputes, which the sharded engine must
    // mirror into every replica at exactly the serial instant.
    use tlb::engine::EngineKind;
    let run = |engine: EngineKind| {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.topo = FatTreeBuilder::new(8)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build()
            .into();
        cfg.audit = true;
        cfg.engine = engine;
        cfg.trace_flows = vec![FlowId(3)];
        for (at_ms, action) in [(2, FailureAction::Down), (6, FailureAction::Up)] {
            cfg.failure_events.push(FailureEvent {
                at: SimTime::from_millis(at_ms),
                target: FailureTarget::Link {
                    sw: LeafId(0), // edge 0
                    up: SpineId(1),
                },
                action,
            });
        }
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 40;
        mix.n_long = 2;
        mix.long_lo = 1_500_000;
        mix.long_hi = 2_500_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(23));
        Simulation::new(cfg, flows).run()
    };
    let serial = run(EngineKind::Serial);
    assert_eq!(serial.completed, serial.total_flows);
    for workers in [1u32, 2, 3, 4, 8] {
        let sharded = run(EngineKind::Sharded {
            workers: Some(workers),
        });
        assert_eq!(
            sharded.engine_workers,
            Some(workers),
            "k=8 fat tree must run one shard per worker"
        );
        assert_sharded_matches(&serial, &sharded, &format!("k8 flap @ {workers} workers"));
    }
}

#[test]
fn sharded_parallel_windows_match_serial() {
    // A tiny-lookahead fabric (5 µs links at 100 Mbit/s) with few hosts
    // and many short flows plus two long ones: the windows carry the run
    // until the last few segments per host, so the engine MUST open
    // barrier-synchronized parallel windows — asserted via
    // `sharded_windows` — leave only a small serialized tail, and still
    // match the serial digests bit for bit.
    use tlb::engine::EngineKind;
    let run = |engine: EngineKind| {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.topo = LeafSpineBuilder::new(2, 2, 2)
            .link_mbps(100.0)
            .prop_per_link(SimTime::from_micros(5))
            .build()
            .into();
        cfg.audit = true;
        cfg.engine = engine;
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 60;
        mix.n_long = 2;
        mix.long_lo = 300_000;
        mix.long_hi = 400_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(5));
        Simulation::new(cfg, flows).run()
    };
    let serial = run(EngineKind::Serial);
    for workers in [1u32, 2] {
        let sharded = run(EngineKind::Sharded {
            workers: Some(workers),
        });
        assert_eq!(sharded.engine_workers, Some(workers));
        assert!(
            sharded.sharded_windows > 0,
            "job sized for parallel windows ran entirely in the tail"
        );
        assert!(
            sharded.sharded_tail_events * 10 < sharded.events,
            "serialized tail ran {} of {} events",
            sharded.sharded_tail_events,
            sharded.events
        );
        assert_sharded_matches(&serial, &sharded, &format!("windows @ {workers} workers"));
    }
}

#[test]
fn sharded_engine_delegates_hybrid_fidelity_to_serial() {
    // Hybrid fluid flows span shards (FluidNet recomputes whole-fabric
    // fair shares), so the sharded engine refuses them and delegates to
    // the serial engine. The run must report the fallback and produce the
    // exact serial-hybrid results.
    use tlb::engine::EngineKind;
    let run = |engine: EngineKind| {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.fidelity = FidelityKind::Hybrid;
        cfg.engine = engine;
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 20;
        mix.n_long = 2;
        mix.long_lo = 1_500_000;
        mix.long_hi = 2_500_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(11));
        Simulation::new(cfg, flows).run()
    };
    let serial = run(EngineKind::Serial);
    let sharded = run(EngineKind::Sharded { workers: Some(4) });
    assert_eq!(
        sharded.engine_workers, None,
        "hybrid fidelity must fall back to the serial engine"
    );
    assert_eq!(sharded.engine_fallback, Some(ShardFallback::Hybrid));
    assert_eq!(serial.engine_fallback, None);
    assert_sharded_matches(&serial, &sharded, "hybrid fallback");
    assert_eq!(serial.fluid_migrations, sharded.fluid_migrations);
    assert_eq!(serial.fluid_bytes, sharded.fluid_bytes);
}

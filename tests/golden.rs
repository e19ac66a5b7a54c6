//! Golden digest corpus: absolute pins on the simulator's behaviour.
//!
//! Every other determinism test compares one run against another run of
//! the same binary (reruns, thread counts, serial vs sharded), so a change
//! that moves every run at once passes them silently. This test compares
//! against `tests/golden/digests.txt`, one line per job, committed
//! alongside the code it pins:
//!
//! * the 16-job fuzz batch and the fig10-shaped load sweep of
//!   `tests/determinism.rs`;
//! * `full_feature_run(scheme, 99)` (chained flows, a mid-run link
//!   degradation, a traced flow) for every scheme of
//!   [`Scheme::extended_set`];
//! * the k=8 fat-tree edge-uplink down/up flap of
//!   `tests/failure_injection.rs`;
//! * the k=16 fat-tree smoke job of `tests/fat_tree_k16.rs`;
//! * the fig04 hybrid-fidelity job of `tests/fidelity.rs`.
//!
//! Each line holds the event count, the short-flow AFCT and p99 and the
//! long-flow mean goodput at 12 decimals, drops, ECN marks, completed
//! flows, the trace-row count with an order-sensitive hash of every row's
//! `(hop, at)`, and a hash of the conservation-audit ledger. Every job
//! runs with the audit on, so debug and release builds share one file.
//! FEL occupancy (`fel_depth`, `fel_bound_peak`) is deliberately absent:
//! it describes the event-list implementation, not the simulated network.
//!
//! There is no regeneration switch. On a mismatch the failure message
//! prints the complete replacement file; a deliberate behaviour change
//! pastes it over `tests/golden/digests.txt` and records the reason in
//! CHANGES.md.

use rayon::prelude::*;
use tlb::prelude::*;
use tlb::simnet::report::Hop;
use tlb::simnet::LinkEvent;

const GOLDEN: &str = include_str!("golden/digests.txt");

/// The fixed raw fuzz tuples of `tests/determinism.rs`, each fanned out
/// over four workload seeds (16 jobs): schemes, incast, static and
/// mid-run degradation.
const FUZZ_RAWS: [tlb_fuzz::RawScenario; 4] = [
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

type Job = Box<dyn Fn() -> RunReport + Send + Sync>;

fn fuzz_job(raw: tlb_fuzz::RawScenario) -> RunReport {
    let b = tlb_fuzz::Scenario::from_raw(raw).build();
    let mut cfg = b.cfg;
    cfg.audit = true;
    run_one(cfg, b.flows)
}

fn load_sweep_job(load: f64, scheme: Scheme) -> RunReport {
    let dist = web_search();
    let mut cfg = SimConfig::large_scale(scheme, 8);
    cfg.audit = true;
    let wl = PoissonWorkload {
        load,
        dist: &dist,
        duration: SimTime::from_millis(5),
        deadline_lo: SimTime::from_millis(5),
        deadline_hi: SimTime::from_millis(25),
        short_threshold: 100_000,
        inter_leaf_only: true,
    };
    let flows = wl.generate(&cfg.topo, &mut SimRng::new(7 ^ load.to_bits()));
    run_one(cfg, flows)
}

fn full_feature_run(scheme: Scheme, seed: u64) -> RunReport {
    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.seed = seed;
    cfg.audit = true;
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

fn fat_tree_k8_flap() -> RunReport {
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.topo = FatTreeBuilder::new(8)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build()
        .into();
    cfg.audit = true;
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
    mix.short_window = SimTime::from_millis(20);
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(23));
    Simulation::new(cfg, flows).run()
}

fn fat_tree_k16_smoke() -> RunReport {
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.topo = FatTreeBuilder::new(16)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build()
        .into();
    cfg.audit = true;
    cfg.trace_flows = vec![FlowId(5)];
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 80;
    mix.n_long = 4;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(16));
    Simulation::new(cfg, flows).run()
}

fn hybrid_fig04() -> RunReport {
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.audit = true;
    cfg.fidelity = FidelityKind::Hybrid;
    cfg.trace_flows = vec![FlowId(0), FlowId(60)];
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = 60;
    mix.n_long = 5;
    mix.long_lo = 1_000_000;
    mix.long_hi = 2_000_000;
    let (flows, next) = sustained_mix(&cfg.topo, &mix, 6, &mut SimRng::new(40));
    Simulation::new_chained(cfg, flows, next).run()
}

/// Every pinned job, in file order.
fn jobs() -> Vec<(String, Job)> {
    let mut jobs: Vec<(String, Job)> = Vec::new();
    for (i, &(topo, traffic, (seed, degrade, bw, extra, mid), failure)) in
        FUZZ_RAWS.iter().enumerate()
    {
        for k in 0..4u64 {
            let raw = (
                topo,
                traffic,
                (seed + k * 1000, degrade, bw, extra, mid),
                failure,
            );
            jobs.push((format!("fuzz.{i}.{k}"), Box::new(move || fuzz_job(raw))));
        }
    }
    for load in [0.4, 0.8] {
        for scheme in [Scheme::Ecmp, Scheme::tlb_default()] {
            let name = format!("sweep.{load}.{}", scheme.name());
            jobs.push((name, Box::new(move || load_sweep_job(load, scheme.clone()))));
        }
    }
    for scheme in Scheme::extended_set() {
        let name = format!("full.{}", scheme.name());
        jobs.push((name, Box::new(move || full_feature_run(scheme.clone(), 99))));
    }
    jobs.push(("fattree8.flap".into(), Box::new(fat_tree_k8_flap)));
    jobs.push(("fattree16.smoke".into(), Box::new(fat_tree_k16_smoke)));
    jobs.push(("hybrid.fig04".into(), Box::new(hybrid_fig04)));
    jobs
}

/// 64-bit FNV-1a over a stream of words: order-sensitive and stable
/// across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hop_words(h: Hop) -> [u64; 3] {
    match h {
        Hop::HostNic { host } => [0, host as u64, 0],
        Hop::LeafUplink { leaf, spine } => [1, leaf as u64, spine as u64],
        Hop::LeafDownlink { leaf, slot } => [2, leaf as u64, slot as u64],
        Hop::SpineDownlink { spine, leaf } => [3, spine as u64, leaf as u64],
        Hop::FabricUp { sw, up } => [4, sw as u64, up as u64],
        Hop::FabricDown { sw, down } => [5, sw as u64, down as u64],
        Hop::Delivered { host } => [6, host as u64, 0],
    }
}

fn golden_line(name: &str, r: &RunReport) -> String {
    let mut traces = Fnv::new();
    for t in &r.traces {
        for w in hop_words(t.hop) {
            traces.word(w);
        }
        traces.word(t.at.as_nanos());
    }
    let audit = r.audit.as_ref().expect("golden jobs run audited");
    let mut ledger = Fnv::new();
    for k in &audit.kinds {
        for w in [
            k.emitted,
            k.enqueue_attempts,
            k.enqueued,
            k.dropped,
            k.tx_started,
            k.tx_done,
            k.arrived,
            k.delivered,
            k.queued_at_end,
            k.in_service_at_end,
            k.propagating_at_end,
        ] {
            ledger.word(w);
        }
    }
    for w in [
        audit.ports_checked as u64,
        audit.senders_checked as u64,
        audit.receivers_checked as u64,
        audit.monotonicity_violations,
    ] {
        ledger.word(w);
    }
    format!(
        "{name} scheme={} events={} short_afct={:.12} short_p99={:.12} \
         long_goodput={:.12} drops={} marks={} completed={} traces={}:{:016x} \
         audit={:016x}",
        r.scheme,
        r.events,
        r.fct_short.afct,
        r.fct_short.p99,
        r.fct_long.mean_goodput,
        r.drops,
        r.marks,
        r.completed,
        r.traces.len(),
        traces.0,
        ledger.0,
    )
}

#[test]
fn golden_digests_are_unchanged() {
    let got: Vec<String> = jobs()
        .into_par_iter()
        .map(|(name, job)| golden_line(&name, &job()))
        .collect();
    let header: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with('#')).collect();
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    if got.iter().map(String::as_str).ne(want.iter().copied()) {
        let diff: Vec<String> = got
            .iter()
            .zip(want.iter().copied().chain(std::iter::repeat("<missing>")))
            .filter(|(g, w)| g.as_str() != *w)
            .map(|(g, w)| format!("  want {w}\n  got  {g}"))
            .collect();
        let mut file = header.join("\n");
        file.push('\n');
        for line in &got {
            file.push_str(line);
            file.push('\n');
        }
        panic!(
            "{} of {} golden digests changed ({} pinned):\n{}\n\n\
             If the change is deliberate, replace tests/golden/digests.txt \
             with the following and record why in CHANGES.md:\n{file}",
            diff.len(),
            got.len(),
            want.len(),
            diff.join("\n"),
        );
    }
}

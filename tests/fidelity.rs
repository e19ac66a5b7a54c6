//! The hybrid fluid/packet fidelity tier, validated differentially
//! against full packet fidelity (`TLB_FIDELITY`, PR 8).
//!
//! Under [`FidelityKind::Hybrid`], flows that cross the 100 KB
//! short/long boundary hand their unsent tail to a per-link fair-share
//! rate model; short flows, handshakes and all queue/ECN dynamics stay
//! packet-level. That is a *modeling* change, so hybrid results agree
//! with packet results within **tolerance bands**, not bit-for-bit:
//!
//! * **Exact across fidelities**: completion counts, conservation-audit
//!   cleanliness, and a pinned TLB's *zero voluntary reroutes* (the
//!   stickiness discipline the Liang & Borst analysis says a fluid tier
//!   must not erode).
//! * **Banded**: mean/p99 FCT per class. The hybrid tier is
//!   systematically *optimistic for short flows* (once a long flow's
//!   tail leaves the packet paths, shorts stop queueing behind it) and
//!   mildly *pessimistic-to-neutral for long flows* (the fair-share rate
//!   ignores the congestion window ramp it replaces but also never
//!   drops). The bands below bound both effects at every paper-figure
//!   operating point; measured quick-scale ratios sit well inside them
//!   (short AFCT ratio ≈ 0.6–0.9, long AFCT ratio ≈ 0.9–1.2).
//! * **Packet mode untouched**: `FidelityKind::Packet` runs the
//!   historical per-packet paths — same digests as before the knob
//!   existed (asserted here against a default-config run, and by the
//!   unchanged determinism suite).

use tlb::prelude::*;

/// Run fingerprint (same shape as `determinism.rs`).
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

fn pinned_tlb() -> Scheme {
    let mut t = TlbConfig::paper_default();
    t.threshold_mode = ThresholdMode::Fixed(u64::MAX);
    Scheme::Tlb(t)
}

/// One paper-figure operating point, run under one fidelity.
fn run_shape(shape: &str, fidelity: FidelityKind, scheme: Scheme) -> RunReport {
    match shape {
        // Fig. 4's premise: sustained short load under a handful of long
        // flows on the 15-path basic fabric — the long-flow-centric view.
        "fig04" => {
            let mut cfg = SimConfig::basic_paper(scheme);
            cfg.audit = true;
            cfg.fidelity = fidelity;
            let mut mix = BasicMixConfig::paper_default();
            mix.n_short = 60;
            mix.n_long = 5;
            mix.long_lo = 1_000_000;
            mix.long_hi = 2_000_000;
            let (flows, next) = sustained_mix(&cfg.topo, &mix, 6, &mut SimRng::new(40));
            Simulation::new_chained(cfg, flows, next).run()
        }
        // Fig. 8's premise: 100 sustained shorts against 3 longs — the
        // short-flow-centric view (reordering/queueing-delay figure).
        "fig08" => {
            let mut cfg = SimConfig::basic_paper(scheme);
            cfg.audit = true;
            cfg.fidelity = fidelity;
            let mut mix = BasicMixConfig::paper_default();
            mix.n_short = 100;
            mix.n_long = 3;
            let (flows, next) = sustained_mix(&cfg.topo, &mix, 4, &mut SimRng::new(80));
            Simulation::new_chained(cfg, flows, next).run()
        }
        // Fig. 10's premise: the large-scale web-search workload (heavy
        // tail, ~30% of bytes in >1 MB flows) at 60% load, quick trace.
        "fig10" => {
            let mut cfg = SimConfig::large_scale(scheme, 32);
            cfg.audit = true;
            cfg.fidelity = fidelity;
            let dist = web_search();
            let wl = PoissonWorkload {
                load: 0.6,
                dist: &dist,
                duration: SimTime::from_millis(10),
                deadline_lo: SimTime::from_millis(5),
                deadline_hi: SimTime::from_millis(25),
                short_threshold: 100_000,
                inter_leaf_only: true,
            };
            let flows = wl.generate(&cfg.topo, &mut SimRng::new(100));
            Simulation::new(cfg, flows).run()
        }
        other => panic!("unknown shape {other}"),
    }
}

/// Assert `hybrid/packet` for one metric within `[lo, hi]`.
fn band(shape: &str, metric: &str, packet: f64, hybrid: f64, lo: f64, hi: f64) {
    assert!(
        packet > 0.0,
        "{shape}/{metric}: packet baseline is degenerate ({packet})"
    );
    let ratio = hybrid / packet;
    assert!(
        (lo..=hi).contains(&ratio),
        "{shape}/{metric}: hybrid/packet ratio {ratio:.3} outside [{lo}, {hi}] \
         (packet {packet:.6}, hybrid {hybrid:.6})"
    );
}

/// The audit must have run and closed its books.
fn assert_audit_clean(shape: &str, r: &RunReport) {
    let audit = r
        .audit
        .as_ref()
        .unwrap_or_else(|| panic!("{shape}: audit enabled but report missing"));
    let in_flight: u64 = audit.kinds.iter().map(|k| k.in_flight_at_end()).sum();
    assert_eq!(
        audit.total_emitted(),
        audit.total_delivered() + audit.total_dropped() + in_flight,
        "{shape}: conservation must close the books"
    );
    assert_eq!(
        audit.monotonicity_violations, 0,
        "{shape}: clock ran backwards"
    );
}

/// The headline suite: rerun each paper-figure operating point under both
/// fidelities and hold hybrid to the documented tolerance bands, with the
/// exact metrics (completion, audit, stickiness) compared exactly.
#[test]
fn tolerance_bands_hold_at_paper_operating_points() {
    // (shape, short-AFCT band, short-p99 band, long-AFCT band).
    // Rationale for the widths: shorts can only get *faster* when long
    // tails vacate the queues (lower bound well under the measured ~0.6,
    // upper bound allows neutral-to-slightly-worse placements); long FCT
    // may swing both ways — the fluid rate skips slow-start (faster) but
    // also never exceeds its fair share even when the packet flow would
    // have (slower).
    type Band = (f64, f64);
    let shapes: [(&str, Band, Band, Band); 3] = [
        ("fig04", (0.25, 1.35), (0.25, 1.5), (0.45, 2.0)),
        ("fig08", (0.25, 1.35), (0.25, 1.5), (0.45, 2.0)),
        ("fig10", (0.30, 1.35), (0.30, 1.5), (0.40, 2.2)),
    ];
    for (shape, s_mean, s_p99, l_mean) in shapes {
        let p = run_shape(shape, FidelityKind::Packet, Scheme::tlb_default());
        let h = run_shape(shape, FidelityKind::Hybrid, Scheme::tlb_default());

        // Exact: both fidelities finish the same work, audited.
        assert_eq!(
            p.completed, p.total_flows,
            "{shape}: packet run stranded flows"
        );
        assert_eq!(
            h.completed, h.total_flows,
            "{shape}: hybrid run stranded flows"
        );
        assert_audit_clean(shape, &p);
        assert_audit_clean(shape, &h);

        // The model must actually engage: the workloads all carry >100 KB
        // flows, so hybrid runs migrate some and packet runs never do.
        assert_eq!(
            p.fluid_migrations, 0,
            "{shape}: packet run used the fluid tier"
        );
        assert!(
            h.fluid_migrations > 0,
            "{shape}: no flow ever migrated to the fluid tier"
        );

        // The point of the tier: the long-flow population's packet work
        // (segment transmissions) collapses once tails go fluid.
        let work = |r: &RunReport| r.long.data_sent + r.long.retransmits;
        assert!(
            work(&p) >= 2 * work(&h),
            "{shape}: expected ≥2x fewer long-flow segment transmissions, \
             packet {} vs hybrid {}",
            work(&p),
            work(&h)
        );

        // Banded: FCT per class.
        band(
            shape,
            "short.afct",
            p.fct_short.afct,
            h.fct_short.afct,
            s_mean.0,
            s_mean.1,
        );
        band(
            shape,
            "short.p99",
            p.fct_short.p99,
            h.fct_short.p99,
            s_p99.0,
            s_p99.1,
        );
        band(
            shape,
            "long.afct",
            p.fct_long.afct,
            h.fct_long.afct,
            l_mean.0,
            l_mean.1,
        );
    }
}

/// Stickiness discipline, preserved exactly: a TLB pinned at `q_th = ∞`
/// must make zero voluntary long-flow reroutes under *both* fidelities —
/// migrating a tail to the fluid tier routes it once through the same
/// balancer hooks and never again.
#[test]
fn pinned_tlb_voluntary_reroutes_are_exactly_preserved() {
    for shape in ["fig04", "fig08"] {
        let p = run_shape(shape, FidelityKind::Packet, pinned_tlb());
        let h = run_shape(shape, FidelityKind::Hybrid, pinned_tlb());
        assert_eq!(
            p.tlb_long_reroutes,
            Some(0),
            "{shape}: pinned TLB rerouted voluntarily at packet fidelity"
        );
        assert_eq!(
            h.tlb_long_reroutes,
            Some(0),
            "{shape}: pinned TLB rerouted voluntarily at hybrid fidelity"
        );
        assert_eq!(p.completed, p.total_flows);
        assert_eq!(h.completed, h.total_flows);
    }
}

/// The fidelity knob itself must not perturb packet-mode results: a
/// config with `FidelityKind::Packet` set explicitly is bit-identical to
/// the preset default (which reads `TLB_FIDELITY`, unset in CI) — i.e.
/// packet fidelity *is* the pre-knob simulator.
#[test]
fn explicit_packet_fidelity_matches_the_default() {
    let run = |set_explicitly: bool| {
        let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
        cfg.audit = true;
        if set_explicitly {
            cfg.fidelity = FidelityKind::Packet;
        }
        let mut mix = BasicMixConfig::paper_default();
        mix.n_short = 30;
        mix.n_long = 2;
        mix.long_lo = 1_000_000;
        mix.long_hi = 2_000_000;
        let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(5));
        Simulation::new(cfg, flows).run()
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(
        digest(&a),
        digest(&b),
        "fidelity knob perturbed packet mode"
    );
    assert_eq!(a.audit, b.audit, "audit counters diverged");
    assert_eq!(a.fluid_migrations, 0);
    assert_eq!(b.fluid_migrations, 0);
}

/// Hybrid runs are themselves bit-deterministic: same seed, same digests,
/// rerun to rerun (the fluid model's f64 updates happen in a fixed
/// flow-id order precisely so this holds).
#[test]
fn hybrid_runs_are_bit_deterministic() {
    let a = run_shape("fig04", FidelityKind::Hybrid, Scheme::tlb_default());
    let b = run_shape("fig04", FidelityKind::Hybrid, Scheme::tlb_default());
    assert_eq!(digest(&a), digest(&b), "hybrid rerun diverged");
    assert_eq!(a.fluid_migrations, b.fluid_migrations);
    assert_eq!(a.fluid_bytes, b.fluid_bytes);
    assert_eq!(a.audit, b.audit, "hybrid audit counters diverged");
}

/// Seed of the k=16 and endurance jobs below.
const PAPER_SEED: u64 = 20190805;

/// TLB on the basic paper fabric, unaudited, with a horizon long enough
/// for hundreds of chained rounds.
fn long_run_cfg(fidelity: FidelityKind) -> SimConfig {
    let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
    cfg.fidelity = fidelity;
    cfg.audit = false;
    cfg.horizon = SimTime::from_secs(100_000);
    cfg
}

/// `rounds` chained rounds of the sustained paper mix (100 shorts + 3
/// 10–20 MB longs per round).
fn sustained_run(fidelity: FidelityKind, rounds: usize, seed: u64) -> RunReport {
    let cfg = long_run_cfg(fidelity);
    let mix = BasicMixConfig::paper_default();
    let (flows, next) = sustained_mix(&cfg.topo, &mix, rounds, &mut SimRng::new(seed));
    Simulation::new_chained(cfg, flows, next).run()
}

/// One burst of the paper mix on the 1024-host k=16 fat tree.
fn k16_mix_run(fidelity: FidelityKind, n_short: usize, n_long: usize) -> RunReport {
    let mut cfg = long_run_cfg(fidelity);
    cfg.topo = FatTreeBuilder::new(16)
        .link_gbps(1.0)
        .target_rtt(SimTime::from_micros(100))
        .build()
        .into();
    let mut mix = BasicMixConfig::paper_default();
    mix.n_short = n_short;
    mix.n_long = n_long;
    let flows = basic_mix(&cfg.topo, &mix, &mut SimRng::new(PAPER_SEED));
    Simulation::new(cfg, flows).run()
}

/// Peak resident set of this process in KiB (`VmHWM`), where
/// `/proc/self/status` reports it.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// `(every flow completed, fluid migrations, long-flow segment work)`
/// summed over `runs`.
fn tally(runs: &[RunReport]) -> (bool, u64, u64) {
    let all_done = runs.iter().all(|r| r.completed == r.total_flows);
    let migrations = runs.iter().map(|r| r.fluid_migrations).sum();
    let work = runs.iter().map(|r| r.long.data_sent + r.long.retransmits);
    (all_done, migrations, work.sum())
}

/// The fluid tier's reason to exist: under hybrid fidelity only the
/// ~100 KB packet prefix of a long flow is segmented, so the long-flow
/// population's segment work (`data_sent + retransmits`) falls at least
/// tenfold — on the sustained mix (3 rounds, seeds 1–3, summed) and on
/// the k=16 fat tree (60 shorts, 3 longs). Both fidelities complete every
/// flow, and packet fidelity never touches the fluid tier.
#[test]
fn hybrid_cuts_long_flow_segment_work_tenfold() {
    let sustained = |f| tally(&[1, 2, 3].map(|seed| sustained_run(f, 3, seed)));
    let k16 = |f| tally(&[k16_mix_run(f, 60, 3)]);
    let (packet, hybrid) = (FidelityKind::Packet, FidelityKind::Hybrid);
    let cases = [
        ("sustained", sustained(packet), sustained(hybrid)),
        ("k16", k16(packet), k16(hybrid)),
    ];
    for (name, (p_done, p_migrated, p), (h_done, h_migrated, h)) in cases {
        assert!(p_done && h_done, "{name}: stranded flows");
        assert_eq!(p_migrated, 0, "{name}: packet fidelity used the fluid tier");
        assert!(h_migrated > 0, "{name}: hybrid run never migrated a flow");
        assert!(
            p >= 10 * h.max(1),
            "{name}: long-flow work fell below 10x (packet {p} vs hybrid {h})"
        );
    }
}

/// Endurance: 600 chained rounds of the sustained mix (≈62k flows) at
/// hybrid fidelity complete every flow with the fluid tier engaged, a
/// recorded FEL occupancy bound, and a peak resident set far below
/// anything a per-flow leak would produce.
#[test]
fn chained_hybrid_endurance_run_completes_with_bounded_memory() {
    let r = sustained_run(FidelityKind::Hybrid, 600, PAPER_SEED);
    assert_eq!(r.completed, r.total_flows, "endurance run stranded flows");
    assert!(r.fluid_migrations > 0, "endurance run never went fluid");
    assert!(r.fel_bound_peak > 0, "endurance run recorded no FEL bound");
    if cfg!(target_os = "linux") {
        let hwm = vm_hwm_kib().expect("VmHWM unavailable on Linux");
        assert!(hwm < 8 << 20, "endurance VmHWM {hwm} KiB exceeds 8 GiB");
    }
}

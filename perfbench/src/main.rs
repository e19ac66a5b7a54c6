//! The measuring program behind `perfbench/run.py`. Each subcommand does
//! one job in a fresh process (so `VmHWM` belongs to that job alone) and
//! prints one flat JSON object as its last line:
//!
//! * `rep` — set the workload up several times, run it once, untraced,
//!   then time the host probe;
//! * `fidelity` — packet-vs-hybrid pair on a prefix of the k=16 fat-tree
//!   traffic (the same reference whatever `--workload` names);
//! * `trace` — the traced run: conservation audit, allocation audit, path
//!   traces and the isolated layer drivers;
//! * `calibrate` — the host calibration loop.
//!
//! Usage: `tlb-perfbench <rep|fidelity|trace|calibrate> [--workload W]
//! [--seed N] [--scale X] [--setups K] [--serial]`

mod layers;
mod workloads;

use std::time::Instant;
use tlb::engine::{CountingAlloc, EngineKind};
use tlb::net::PktKind;
use tlb::prelude::*;
use tlb::simnet::report::Hop;
use workloads::{Setup, Workload};

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// The fidelity pair replays 15 ms of the k=16 fat tree's traffic (its
/// runs take 8 ms): enough short flows for a steady p99.
const FIDELITY_SCALE: f64 = 15.0 / 8.0;
/// Long flows whose paths the traced run records (the smallest-id ones).
const TRACED_LONG_FLOWS: usize = 16;
/// Traced long flows are capped at this size to bound trace memory.
const TRACED_MAX_BYTES: u64 = 3_000_000;

struct Args {
    cmd: String,
    workload: Option<Workload>,
    seed: u64,
    scale: f64,
    setups: usize,
    serial: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing subcommand")?;
    let mut a = Args {
        cmd,
        workload: None,
        seed: 20190805,
        scale: 1.0,
        setups: 1,
        serial: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--serial" {
            a.serial = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?)
            }
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--scale" => a.scale = v.parse().map_err(|_| bad())?,
            "--setups" => a.setups = v.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.scale > 0.0) || a.setups == 0 {
        return Err("--scale must be positive and --setups at least 1".into());
    }
    Ok(a)
}

/// A flat JSON object, printed on one line.
#[derive(Default)]
struct Out(Vec<(String, String)>);

impl Out {
    fn num(&mut self, k: &str, v: impl Into<f64>) -> &mut Self {
        let v: f64 = v.into();
        assert!(v.is_finite(), "{k} is not finite");
        self.0.push((k.into(), format!("{v:?}")));
        self
    }
    fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.0.push((k.into(), format!("{v:?}")));
        self
    }
    fn print(&self) {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
        println!("{{{}}}", body.join(", "));
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The determinism digest: the fields the repository's determinism tests
/// compare, folded into one string.
fn digest(r: &RunReport) -> String {
    format!(
        "{}|{:.12}|{:.12}|{:.12}|{}|{}|{}",
        r.events,
        r.fct_short.afct,
        r.fct_short.p99,
        r.fct_long.mean_goodput,
        r.drops,
        r.marks,
        r.completed
    )
}

/// Set up `w` `setups` times (topology + flows + `Simulation::new`), keep
/// the last, and return it with the median set-up time.
fn timed_setup(w: Workload, a: &Args) -> (Simulation, f64) {
    let mut times = Vec::with_capacity(a.setups);
    let mut sim = None;
    for _ in 0..a.setups {
        drop(sim.take());
        let t0 = Instant::now();
        let Setup { cfg, flows, .. } = w.setup(a.seed, a.scale, a.serial);
        sim = Some(Simulation::new(cfg, flows));
        times.push(t0.elapsed().as_secs_f64());
    }
    (sim.expect("at least one set-up"), layers::median(&mut times))
}

fn rep(w: Workload, a: &Args) {
    let (sim, setup_s) = timed_setup(w, a);
    let t0 = Instant::now();
    let r = sim.run();
    let run_s = t0.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib();
    let probe_ms = layers::host_probe_ms();
    Out::default()
        .num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("probe_ms", probe_ms)
        .num("peak_rss_mib", peak_rss_mib)
        .num("flows", r.total_flows as f64)
        .num("completed", r.completed as f64)
        .num("events", r.events as f64)
        .num("workers", r.engine_workers.unwrap_or(0))
        .num("windows", r.sharded_windows as f64)
        .str("digest", &digest(&r))
        .print();
}

fn fidelity(a: &Args) {
    let run = |fidelity| {
        let Setup { mut cfg, flows, .. } =
            Workload::FatTree16Hybrid.setup(a.seed, a.scale * FIDELITY_SCALE, true);
        cfg.fidelity = fidelity;
        Simulation::new(cfg, flows).run()
    };
    let p = run(FidelityKind::Packet);
    let h = run(FidelityKind::Hybrid);
    let err = |hv: f64, pv: f64| (hv / pv - 1.0).abs();
    Out::default()
        .num("hybrid_afct_err", err(h.fct_short.afct, p.fct_short.afct))
        .num("hybrid_p99_err", err(h.fct_short.p99, p.fct_short.p99))
        .num("flows", (p.total_flows + h.total_flows) as f64)
        .num("completed", (p.completed + h.completed) as f64)
        .print();
}

/// Uplink changes per traced long flow at its first load-balancing hop:
/// `(mean, max)` over the traced flows.
fn path_changes(r: &RunReport, traced: &[FlowId]) -> (f64, f64) {
    if traced.is_empty() {
        return (0.0, 0.0);
    }
    let mut last: Vec<Option<(u16, u16)>> = vec![None; traced.len()];
    let mut changes = vec![0u32; traced.len()];
    for ev in r.traces.iter().filter(|e| e.kind == PktKind::Data) {
        let hop = match ev.hop {
            Hop::LeafUplink { leaf, spine } => (leaf, spine),
            Hop::FabricUp { sw, up } => (sw, up),
            _ => continue,
        };
        let Some(i) = traced.iter().position(|&f| f == ev.flow) else {
            continue;
        };
        match last[i] {
            // The first uplink hop fixes the switch that balances this
            // flow; later hops on other switches (fat-tree aggs) are skipped.
            None => last[i] = Some(hop),
            Some((sw, up)) if sw == hop.0 && up != hop.1 => {
                changes[i] += 1;
                last[i] = Some(hop);
            }
            Some(_) => {}
        }
    }
    let mean = changes.iter().sum::<u32>() as f64 / traced.len() as f64;
    (mean, *changes.iter().max().unwrap_or(&0) as f64)
}

fn trace(w: Workload, a: &Args) {
    // Span: workload generation.
    let Setup {
        mut cfg,
        flows,
        generate_s,
    } = w.setup(a.seed, a.scale, false);
    let n_flows = flows.len();
    let traced: Vec<FlowId> = flows
        .iter()
        .filter(|f| f.size_bytes >= cfg.short_threshold && f.size_bytes <= TRACED_MAX_BYTES)
        .take(TRACED_LONG_FLOWS)
        .map(|f| f.id)
        .collect();
    let long_sizes: Vec<u64> = flows
        .iter()
        .filter(|f| f.size_bytes >= cfg.short_threshold)
        .map(|f| f.size_bytes)
        .collect();
    let stream_sizes: Vec<u64> = flows.iter().take(256).map(|f| f.size_bytes).collect();
    let link = cfg.topo.host_link();
    let (queue, tcp, scheme) = (cfg.queue, cfg.tcp, cfg.scheme.clone());
    let n_ports = cfg.topo.n_spines();
    let n_hosts = cfg.topo.n_hosts();
    let n_lb = cfg.topo.n_lb_switches();
    let one_way = cfg.topo.min_one_way_delay(HostId(0), HostId(n_hosts as u32 - 1));
    let fluid_path_len = if cfg.topo.as_fat_tree().is_some() { 6 } else { 4 };
    let mut alloc_cfg = cfg.clone();
    alloc_cfg.engine = EngineKind::Serial;
    let alloc_flows = flows.clone();

    // Span: the audited, path-traced run.
    cfg.audit = true;
    cfg.trace_flows = traced.clone();
    let sim = Simulation::new(cfg, flows);
    let t0 = Instant::now();
    let r = sim.run();
    let run_s = t0.elapsed().as_secs_f64();
    let probe_ms = layers::host_probe_ms();
    let audited = r.audit.is_some();

    // Span: the allocation-audited run (serial: the counters are
    // process-wide), window opening halfway through the event count.
    alloc_cfg.alloc_warmup_events = Some((r.events / 2).max(1));
    let ra = Simulation::new(alloc_cfg, alloc_flows).run();
    let steady = ra.alloc_audit.filter(|a| a.counting && a.steady_events > 0);

    // Layer drivers on inputs derived from the traced run.
    let depth_p50 = r.fel_depth.quantile(0.5).max(1.0);
    let mean_gap_ns = r.sim_end.as_nanos() as f64 / r.events.max(1) as f64;
    let fel_hold_ns = layers::fel_hold_ns(depth_p50 as usize, depth_p50 * mean_gap_ns, a.seed);

    let mut qs = r.short_qlen.clone();
    qs.merge(&r.long_qlen);
    let qlens: Vec<usize> = (0..n_ports)
        .map(|i| qs.quantile((i as f64 + 0.5) / n_ports as f64).round() as usize)
        .collect();
    let pkts = layers::packet_stream(&stream_sizes, 16_384);
    let gap = SimTime::from_nanos(((1500.0 / link.bytes_per_sec as f64) * 1e9) as u64);
    let lb_decide_ns = layers::lb_decide_ns(&scheme, link, queue, &qlens, &pkts, gap);
    let backlog = r.short_qlen.quantile(0.5).round() as usize;
    let port_cycle_ns = layers::port_cycle_ns(link, queue, backlog);
    let mean_long = if long_sizes.is_empty() {
        1_000_000
    } else {
        long_sizes.iter().sum::<u64>() / long_sizes.len() as u64
    };
    let ack_cycle_ns = layers::ack_cycle_ns(tcp, mean_long.clamp(100_000, 20_000_000), one_way);
    let fluid_recompute_ns = if r.fluid_migrations > 0 {
        // Little's law: concurrent fluid tails ≈ migrations × mean long
        // FCT / simulated span.
        let active = r.fluid_migrations as f64 * r.fct_long.afct / r.sim_end.as_secs_f64();
        let n_links = 2 * (n_hosts + n_lb * n_ports);
        layers::fluid_recompute_ns(
            n_links,
            active.round().max(1.0) as usize,
            fluid_path_len,
            link.bytes_per_sec as f64,
        )
    } else {
        0.0
    };

    let (changes_mean, changes_max) = path_changes(&r, &traced);
    let segments = r.short.data_sent + r.long.data_sent + r.short.retransmits + r.long.retransmits;
    let retransmits = r.short.retransmits + r.long.retransmits;
    let windows = r.sharded_windows;
    let fel_q = r.fel_depth.quantiles(&[0.5, 0.99]);
    Out::default()
        .num("workload.generate_s", generate_s)
        .num("workload.flows", n_flows as f64)
        .num("simnet.events", r.events as f64)
        .num("simnet.traced_run_s", run_s)
        .num("probe_ms", probe_ms)
        .num("simnet.fel_depth_p50", fel_q[0])
        .num("simnet.fel_depth_p99", fel_q[1])
        .num("simnet.fel_bound_peak", r.fel_bound_peak as f64)
        .num("engine.fel_hold_ns", fel_hold_ns)
        .num("lb.decisions", r.lb_decisions as f64)
        .num("lb.decide_ns", lb_decide_ns)
        .num("lb.long_reroutes", r.tlb_long_reroutes.unwrap_or(0) as f64)
        .num("lb.forced_reroutes", r.forced_reroutes.unwrap_or(0) as f64)
        .num("lb.state_bytes_peak", r.lb_state_bytes_peak as f64)
        .num("lb.flow_path_changes_mean", changes_mean)
        .num("lb.flow_path_changes_max", changes_max)
        .num("switch.port_cycle_ns", port_cycle_ns)
        .num("switch.drops", r.drops as f64)
        .num("switch.ecn_marks", r.marks as f64)
        .num("switch.short_qlen_p99", r.short_qlen.quantile(0.99))
        .num("transport.segments", segments as f64)
        .num(
            "transport.retx_frac",
            retransmits as f64 / segments.max(1) as f64,
        )
        .num("transport.timeouts", (r.short.timeouts + r.long.timeouts) as f64)
        .num("transport.short_reorder", r.short.reorder_ratio())
        .num("transport.long_reorder", r.long.reorder_ratio())
        .num("transport.ack_cycle_ns", ack_cycle_ns)
        .num("fluid.migrations", r.fluid_migrations as f64)
        .num("fluid.demotions", r.fluid_demotions as f64)
        .num("fluid.bytes", r.fluid_bytes as f64)
        .num("fluid.recompute_ns", fluid_recompute_ns)
        .num("shard.workers", r.engine_workers.unwrap_or(0))
        .num("shard.windows", windows as f64)
        .num(
            "shard.events_per_window",
            if windows == 0 { 0.0 } else { r.events as f64 / windows as f64 },
        )
        .num(
            "alloc.steady_acquisitions",
            steady.map_or(-1.0, |s| s.acquisitions() as f64),
        )
        .num("audited", u32::from(audited))
        .num("flows", (r.total_flows + ra.total_flows) as f64)
        .num("completed", (r.completed + ra.completed) as f64)
        .str("digest", &digest(&r))
        .str("alloc_digest", &digest(&ra))
        .print();
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tlb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let need = || {
        a.workload.unwrap_or_else(|| {
            eprintln!("tlb-perfbench: {} needs --workload", a.cmd);
            std::process::exit(2);
        })
    };
    match a.cmd.as_str() {
        "rep" => rep(need(), &a),
        "fidelity" => fidelity(&a),
        "trace" => trace(need(), &a),
        "calibrate" => {
            Out::default()
                .num("calibration_ms", layers::calibration_ms())
                .num("cores", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)
                .print();
        }
        other => {
            eprintln!("tlb-perfbench: unknown subcommand {other}");
            std::process::exit(2);
        }
    }
}

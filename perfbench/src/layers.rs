//! Isolated layer drivers: each replays one layer's public functions on
//! inputs derived from a workload's traced run and reports the median
//! host time per operation over several timed batches.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use tlb::engine::EventQueue;
use tlb::net::{FluidNet, LinkProps, Packet, PktKind, RateChange};
use tlb::prelude::*;
use tlb::switch::OutPort;
use tlb::transport::{SenderOutput, TcpReceiver, TcpSender};

/// Timed batches per driver; the reported figure is their median.
const BATCHES: usize = 7;

/// Median of `xs` (sorted in place). 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Run `batch` (which performs `ops` operations) `BATCHES` times after one
/// untimed warm-up and return the median nanoseconds per operation.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut per_op)
}

/// `EventQueue` hold model: `depth` pending events, each pop followed by a
/// push at `now + exp(mean_inc_ns)`.
pub fn fel_hold_ns(depth: usize, mean_inc_ns: f64, seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = SimRng::new(seed);
    let incs: Vec<SimTime> = (0..4096)
        .map(|_| SimTime::from_nanos(rng.exp(mean_inc_ns).max(1.0) as u64))
        .collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth.max(1));
    for (i, inc) in incs.iter().cycle().take(depth.max(1)).enumerate() {
        q.push(*inc * (1 + i as u64 % 64), i as u64);
    }
    let mut k = 0usize;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("hold model never drains");
            k = (k + 1) & 4095;
            q.push(t + incs[k], black_box(e));
        }
    })
}

/// A port on `link` pre-loaded with `backlog` data packets.
fn loaded_port(link: LinkProps, cfg: QueueCfg, backlog: usize) -> OutPort {
    let mut p = OutPort::new(link, cfg);
    for s in 0..backlog.min(cfg.capacity_pkts.saturating_sub(2)) {
        p.enqueue(data_pkt(9_999, s as u32), SimTime::ZERO);
    }
    p
}

fn data_pkt(flow: u32, seq: u32) -> Packet {
    Packet::data(
        FlowId(flow),
        HostId(0),
        HostId(1),
        seq,
        1460,
        40,
        SimTime::ZERO,
    )
}

/// The upstream packet stream one LB switch sees for `flows` (sizes in
/// bytes): flows interleaved round-robin, each a SYN, its data segments
/// (at most 64, so long flows do not crowd the short ones out), then a FIN.
pub fn packet_stream(flows: &[u64], len: usize) -> Vec<Packet> {
    const MAX_SEGS: u64 = 64;
    let mut out = Vec::with_capacity(len);
    let mut sent = vec![None::<u64>; flows.len()];
    let mut i = 0usize;
    while out.len() < len && !flows.is_empty() {
        let f = i % flows.len();
        i += 1;
        let id = FlowId(f as u32);
        let (src, dst) = (HostId(0), HostId(flows.len() as u32 + 1));
        let segs = flows[f].div_ceil(1460).clamp(1, MAX_SEGS);
        match sent[f] {
            None => {
                out.push(Packet::control(id, src, dst, PktKind::Syn, 0, SimTime::ZERO));
                sent[f] = Some(0);
            }
            Some(s) if s < segs => {
                out.push(Packet::data(id, src, dst, s as u32, 1460, 40, SimTime::ZERO));
                sent[f] = Some(s + 1);
            }
            Some(_) => {
                out.push(Packet::control(id, src, dst, PktKind::Fin, 0, SimTime::ZERO));
                sent[f] = None;
            }
        }
    }
    out
}

/// `Scheme::build(..).choose_uplink` over uplinks loaded to `qlens`
/// packets, one decision per packet of `pkts`, `gap` apart.
pub fn lb_decide_ns(
    scheme: &Scheme,
    link: LinkProps,
    cfg: QueueCfg,
    qlens: &[usize],
    pkts: &[Packet],
    gap: SimTime,
) -> f64 {
    let ports: Vec<OutPort> = qlens.iter().map(|&q| loaded_port(link, cfg, q)).collect();
    let mut lb = scheme.build(1);
    let mut rng = SimRng::new(3);
    let mut now = SimTime::ZERO;
    ns_per_op(pkts.len() as u64, || {
        let mut acc = 0usize;
        for pkt in pkts {
            now += gap;
            acc += lb.choose_uplink(pkt, PortView::new(&ports), now, &mut rng);
        }
        black_box(acc);
    })
}

/// `OutPort` enqueue + service cycle at a standing queue of `backlog`
/// packets: each cycle admits one packet and serializes one.
pub fn port_cycle_ns(link: LinkProps, cfg: QueueCfg, backlog: usize) -> f64 {
    const OPS: u64 = 200_000;
    let mut port = loaded_port(link, cfg, backlog.max(1));
    port.start_service();
    let mut now = SimTime::ZERO;
    let mut seq = 0u32;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            seq = seq.wrapping_add(1);
            now += port.service_tx_time();
            black_box(port.enqueue(data_pkt(1, seq), now));
            black_box(port.finish_service());
            port.start_service();
        }
    })
}

/// A lossless `TcpSender`/`TcpReceiver` loopback moving `size` bytes with
/// `one_way` delay per hop; nanoseconds per data segment delivered and
/// acknowledged.
pub fn ack_cycle_ns(tcp: TcpConfig, size: u64, one_way: SimTime) -> f64 {
    let segs = size.div_ceil(tcp.mss as u64).max(1);
    let mut out = Vec::with_capacity(64);
    let mut wire: VecDeque<(SimTime, Packet)> = VecDeque::with_capacity(4096);
    ns_per_op(segs, || {
        let mut s = TcpSender::new(tcp, FlowId(1), HostId(0), HostId(1), size);
        let mut r = TcpReceiver::new(FlowId(1), HostId(1), HostId(0));
        s.start(SimTime::ZERO, &mut out);
        wire.clear();
        let mut now = SimTime::ZERO;
        loop {
            for o in out.drain(..) {
                if let SenderOutput::Send(p) = o {
                    wire.push_back((now + one_way, p));
                }
            }
            let Some((at, pkt)) = wire.pop_front() else {
                break;
            };
            now = now.max(at);
            let reply = match pkt.kind {
                PktKind::Syn => r.on_syn(now),
                PktKind::Data => r.on_data(&pkt, now),
                _ => continue,
            };
            s.on_packet(&reply, now + one_way, &mut out);
        }
        assert!(s.is_finished(), "lossless loopback must finish");
        black_box(r.delivered_segs());
    })
}

/// `FluidNet` join/leave/`take_changes` churn with `active` flows on
/// random `path_len`-link paths over `n_links` links of `cap` bytes/s.
pub fn fluid_recompute_ns(n_links: usize, active: usize, path_len: usize, cap: f64) -> f64 {
    const OPS: u64 = 20_000;
    let active = active.max(1);
    let slots = active + 1;
    let mut rng = SimRng::new(11);
    let paths: Vec<Vec<u32>> = (0..4096)
        .map(|_| {
            rng.sample_distinct(n_links, path_len)
                .into_iter()
                .map(|l| l as u32)
                .collect()
        })
        .collect();
    let mut fl = FluidNet::new(n_links, slots);
    for l in 0..n_links {
        fl.set_capacity(l as u32, cap);
    }
    let mut changes: Vec<RateChange> = Vec::with_capacity(4 * slots);
    let mut now = 0.0f64;
    let mut k = 0usize;
    for f in 0..active {
        fl.join(f as u32, &paths[f % paths.len()], 1e9, now);
    }
    // Slot `free` is the one inactive slot; each op retires the flow in
    // the next slot and admits a new one into the freed slot.
    let mut free = active;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            now += 1e-6;
            k = (k + 1) & 4095;
            fl.join(free as u32, &paths[k], 1e9, now);
            let leaving = (free + 1) % slots;
            black_box(fl.leave(leaving as u32, now));
            free = leaving;
            fl.take_changes(&mut changes);
            changes.clear();
        }
    })
}

/// One pass of a fixed compute loop over a 1 MiB table, timed (ms).
fn compute_loop_ms() -> f64 {
    let mut table = vec![0u64; 1 << 17];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    for _ in 0..(1 << 22) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_add(x);
    }
    black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}

/// 2^20 random swaps over a 16 MiB array, timed (ms): memory-bound.
fn memory_loop_ms() -> f64 {
    let n = 1usize << 22;
    let mut a: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let t0 = Instant::now();
    for i in (n - (1 << 20)..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        a.swap(i, (x % (i as u64 + 1)) as usize);
    }
    black_box(&a);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The host probe: one compute loop plus one memory loop (ms). Timed
/// beside every run, it tracks how fast a shared host is at that moment
/// for work that, like the simulator's, mixes compute and memory access.
pub fn host_probe_ms() -> f64 {
    compute_loop_ms() + memory_loop_ms()
}

/// The host calibration figure: the median of five compute-loop passes
/// (ms), so that numbers from different machines can be compared.
pub fn calibration_ms() -> f64 {
    let mut runs: Vec<f64> = (0..5).map(|_| compute_loop_ms()).collect();
    median(&mut runs)
}

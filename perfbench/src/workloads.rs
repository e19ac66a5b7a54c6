//! The named workloads. Every one runs the TLB scheme over DCTCP; only the
//! fabric, the traffic, the engine and the fidelity differ. Flows are
//! generated here from the benchmark seed and handed to the simulator as
//! plain `FlowSpec`s.

use std::time::Instant;
use tlb::engine::EngineKind;
use tlb::prelude::*;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §6.2 fig10 fabric under web-search traffic, serial.
    Websearch,
    /// The same flows and config on the sharded engine with 2 workers.
    WebsearchSharded,
    /// A small 10 Gbit/s fabric with ≈2 ms RTT under data-mining traffic.
    HighBdpDatamining,
    /// A k=16 fat tree (1024 hosts) at hybrid fidelity.
    FatTree16Hybrid,
}

/// Worker threads the sharded workload asks for (and must get).
pub const SHARDED_WORKERS: u32 = 2;

/// A workload ready to run: the config, its flows, and how long
/// generating the flows took.
pub struct Setup {
    pub cfg: SimConfig,
    pub flows: Vec<FlowSpec>,
    pub generate_s: f64,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "websearch" => Workload::Websearch,
            "websearch-sharded" => Workload::WebsearchSharded,
            "highbdp-datamining" => Workload::HighBdpDatamining,
            "fattree16-hybrid" => Workload::FatTree16Hybrid,
            _ => return None,
        })
    }

    /// Arrival window at `scale` 1, sized so one run takes about a second
    /// of host time on a 2-core 2 GHz-class x86 host: a benchmark
    /// invocation then fits a dozen runs and reports their median.
    fn arrivals_ms(self) -> f64 {
        match self {
            Workload::Websearch | Workload::WebsearchSharded => 6.0,
            Workload::HighBdpDatamining => 10.0,
            Workload::FatTree16Hybrid => 8.0,
        }
    }

    /// The simulator configuration, topology included. `serial` forces
    /// the serial engine (the sharded workload's reference leg).
    pub fn config(self, serial: bool) -> SimConfig {
        let mut cfg = match self {
            Workload::Websearch | Workload::WebsearchSharded => {
                SimConfig::large_scale(Scheme::tlb_default(), 32)
            }
            Workload::HighBdpDatamining => {
                let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
                cfg.topo = LeafSpineBuilder::new(4, 4, 8)
                    .link_gbps(10.0)
                    .prop_per_link(SimTime::from_micros(250))
                    .build()
                    .into();
                cfg
            }
            Workload::FatTree16Hybrid => {
                let mut cfg = SimConfig::basic_paper(Scheme::tlb_default());
                cfg.topo = FatTreeBuilder::new(16)
                    .link_gbps(1.0)
                    .target_rtt(SimTime::from_micros(100))
                    .build()
                    .into();
                cfg.fidelity = FidelityKind::Hybrid;
                cfg
            }
        };
        cfg.audit = false;
        cfg.engine = if self == Workload::WebsearchSharded && !serial {
            EngineKind::Sharded {
                workers: Some(SHARDED_WORKERS),
            }
        } else {
            EngineKind::Serial
        };
        cfg
    }

    /// Poisson flows drawn from `seed` at the workload's load, cut at a
    /// fixed byte budget: the bytes the load offers over `scale` × the
    /// nominal arrival window. Fixing the bytes rather than the window
    /// keeps a heavy-tailed size draw from changing the amount of work a
    /// run measures. The same seed gives the same flows.
    pub fn flows(self, topo: &Fabric, seed: u64, scale: f64) -> Vec<FlowSpec> {
        let window_s = self.arrivals_ms() * scale / 1e3;
        let (load, dist) = match self {
            Workload::Websearch | Workload::WebsearchSharded => (0.7, web_search()),
            Workload::HighBdpDatamining => (0.5, data_mining()),
            Workload::FatTree16Hybrid => (0.6, web_search()),
        };
        let budget =
            load * topo.host_link().bytes_per_sec as f64 * topo.n_hosts() as f64 * window_s;
        let mut flows = PoissonWorkload {
            load,
            dist: &dist,
            // Twice the window: the budget is all but certainly reached.
            duration: SimTime::from_secs_f64(2.0 * window_s),
            deadline_lo: SimTime::from_millis(5),
            deadline_hi: SimTime::from_millis(25),
            short_threshold: 100_000,
            inter_leaf_only: true,
        }
        .generate(topo, &mut SimRng::new(seed));
        let mut bytes = 0.0;
        let keep = flows
            .iter()
            .position(|f| {
                bytes += f.size_bytes as f64;
                bytes >= budget
            })
            .map_or(flows.len(), |i| i + 1);
        flows.truncate(keep);
        flows
    }

    /// Build the config and generate the flows, timing the generation.
    pub fn setup(self, seed: u64, scale: f64, serial: bool) -> Setup {
        let cfg = self.config(serial);
        let t0 = Instant::now();
        let flows = self.flows(&cfg.topo, seed, scale);
        let generate_s = t0.elapsed().as_secs_f64();
        Setup {
            cfg,
            flows,
            generate_s,
        }
    }
}

//! Static load-balancer dispatch.
//!
//! [`AnyLb`] is a closed enum over the concrete schemes whose
//! [`LoadBalancer`] methods dispatch by `match`: the compiler sees through
//! the variant and can inline the scheme's decision logic into the
//! forwarding loop, where a `Box<dyn LoadBalancer>` would cost a virtual
//! call on every forwarded packet. [`crate::Scheme::build`] constructs one.

use tlb_core::Tlb;
use tlb_engine::{SimRng, SimTime};
use tlb_lb::{
    CongaLite, DiffFlow, Drill, Ecmp, FlowBender, HermesLite, LetFlow, Presto, Rps, Wcmp,
};
use tlb_net::Packet;
use tlb_switch::{LoadBalancer, PortView};

/// A load balancer with static dispatch: one variant per concrete scheme.
pub enum AnyLb {
    /// Flow-level hashing.
    Ecmp(Ecmp),
    /// Per-packet random spraying.
    Rps(Rps),
    /// Fixed-size flowcells, round-robin.
    Presto(Presto),
    /// Flowlet switching with random rerouting.
    LetFlow(LetFlow),
    /// Per-packet power-of-two-choices with memory.
    Drill(Drill),
    /// Flowlet switching onto the least-loaded uplink.
    CongaLite(CongaLite),
    /// Flow-level congestion-triggered rehashing.
    FlowBender(FlowBender),
    /// Size-aware flowlet/flow hybrid.
    Hermes(HermesLite),
    /// Weighted flow-level hashing.
    Wcmp(Wcmp),
    /// Static short/long split: spray shorts, pin longs.
    DiffFlow(DiffFlow),
    /// The paper's scheme: traffic-aware adaptive granularity.
    Tlb(Box<Tlb>),
}

/// Forward one expression to every variant's payload. `Box<T>` payloads
/// auto-deref, so the same arm body works for concrete and boxed variants.
macro_rules! dispatch {
    ($self:expr, $lb:ident => $body:expr) => {
        match $self {
            AnyLb::Ecmp($lb) => $body,
            AnyLb::Rps($lb) => $body,
            AnyLb::Presto($lb) => $body,
            AnyLb::LetFlow($lb) => $body,
            AnyLb::Drill($lb) => $body,
            AnyLb::CongaLite($lb) => $body,
            AnyLb::FlowBender($lb) => $body,
            AnyLb::Hermes($lb) => $body,
            AnyLb::Wcmp($lb) => $body,
            AnyLb::DiffFlow($lb) => $body,
            AnyLb::Tlb($lb) => $body,
        }
    };
}

impl LoadBalancer for AnyLb {
    #[inline]
    fn name(&self) -> &'static str {
        dispatch!(self, lb => lb.name())
    }

    #[inline]
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        dispatch!(self, lb => lb.choose_uplink(pkt, view, now, rng))
    }

    #[inline]
    fn on_tick(&mut self, view: PortView<'_>, now: SimTime) {
        dispatch!(self, lb => lb.on_tick(view, now))
    }

    #[inline]
    fn tick_interval(&self) -> Option<SimTime> {
        dispatch!(self, lb => lb.tick_interval())
    }

    #[inline]
    fn state_bytes(&self) -> usize {
        dispatch!(self, lb => lb.state_bytes())
    }

    #[inline]
    fn q_threshold(&self) -> Option<u64> {
        dispatch!(self, lb => lb.q_threshold())
    }

    #[inline]
    fn long_reroutes(&self) -> Option<u64> {
        // `Tlb` also has an *inherent* `long_reroutes() -> u64` that method
        // resolution prefers over the trait's `Option<u64>`, so the Tlb arm
        // must qualify the call; the macro can't express a per-arm cast.
        match self {
            AnyLb::Ecmp(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::Rps(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::Presto(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::LetFlow(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::Drill(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::CongaLite(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::FlowBender(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::Hermes(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::Wcmp(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::DiffFlow(lb) => LoadBalancer::long_reroutes(lb),
            AnyLb::Tlb(lb) => LoadBalancer::long_reroutes(&**lb),
        }
    }

    #[inline]
    fn forced_reroutes(&self) -> Option<u64> {
        // Same shadowing situation as `long_reroutes`: `Tlb` has an
        // inherent `forced_reroutes() -> u64`, so dispatch by hand.
        match self {
            AnyLb::Ecmp(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::Rps(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::Presto(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::LetFlow(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::Drill(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::CongaLite(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::FlowBender(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::Hermes(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::Wcmp(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::DiffFlow(lb) => LoadBalancer::forced_reroutes(lb),
            AnyLb::Tlb(lb) => LoadBalancer::forced_reroutes(&**lb),
        }
    }
}

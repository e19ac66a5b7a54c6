//! Engine-level support for sharded (multi-core) execution of one
//! simulation: the engine-selection knob and the spin barrier the
//! conservative window protocol synchronizes on.
//!
//! The actual fabric partitioning, window protocol and report merge live in
//! `tlb-simnet` (they need the network state); this module owns the pieces
//! that are simulator-agnostic.

use crate::env_knob;

/// Which execution engine drives a run: the serial reference event loop, or
/// the conservatively synchronized multi-core sharded engine. Mirrors the
/// [`crate::FelKind`] / `LbDispatch` / `DeliveryKind` pattern: the serial
/// engine stays alive as the differential reference, and both engines must
/// produce bit-identical event/FCT/audit digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The single-threaded reference event loop.
    Serial,
    /// Per-shard event loops over OS threads, synchronized conservatively
    /// with link propagation delay as lookahead. `workers` pins the OS
    /// thread count (and with it the shard count); `None` uses the
    /// available parallelism. The *digests* are worker-count independent
    /// by construction — they equal the serial engine's for any valid
    /// partition of the fabric — so `workers` is purely a performance
    /// knob.
    Sharded {
        /// OS worker threads (`None`: available parallelism).
        workers: Option<u32>,
    },
}

impl EngineKind {
    /// Engine selection for runs that don't pin one explicitly:
    /// `TLB_ENGINE=serial` / `sharded` / `sharded:<workers>`; unset, empty
    /// or invalid values fall back to [`EngineKind::Serial`].
    pub fn from_env() -> EngineKind {
        env_knob::parse_with("TLB_ENGINE", EngineKind::Serial, |s| {
            let expect = || "want `serial`, `sharded`, or `sharded:<workers>`".to_string();
            match s {
                "serial" => Ok(EngineKind::Serial),
                "sharded" => Ok(EngineKind::Sharded { workers: None }),
                _ => match s.strip_prefix("sharded:") {
                    Some(n) => n
                        .parse::<u32>()
                        .ok()
                        .filter(|&n| n > 0)
                        .map(|n| EngineKind::Sharded { workers: Some(n) })
                        .ok_or_else(expect),
                    None => Err(expect()),
                },
            }
        })
    }
}

/// A reusable generation-counted spin barrier.
///
/// The sharded engine's windows are short (one propagation delay of
/// simulated time, often only a handful of events per shard), so the
/// per-window synchronization cost must stay well under a microsecond —
/// a mutex/condvar barrier's wake-up latency would dominate the window
/// body. Parties spin with [`std::hint::spin_loop`], degrading to
/// [`std::thread::yield_now`] once a wait runs long — or at once when
/// there are more parties than cores, where spinning only holds a core
/// the awaited party needs.
pub struct SpinBarrier {
    n: usize,
    /// Spins before a waiter starts yielding: none when the parties
    /// outnumber the cores (a spinning waiter would only delay the party
    /// it waits for).
    spin_limit: u32,
    arrived: std::sync::atomic::AtomicUsize,
    generation: std::sync::atomic::AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `n` parties.
    pub fn new(n: usize) -> SpinBarrier {
        assert!(n > 0, "barrier needs at least one party");
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        SpinBarrier {
            n,
            spin_limit: if n > cores { 0 } else { 1 << 14 },
            arrived: std::sync::atomic::AtomicUsize::new(0),
            generation: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Block (spinning) until all `n` parties have called `wait` for the
    /// current generation. Returns `true` on exactly one party per
    /// generation (the last arriver), mirroring
    /// `std::sync::Barrier::wait().is_leader()`.
    pub fn wait(&self) -> bool {
        use std::sync::atomic::Ordering;
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            spins += 1;
            if spins < self.spin_limit {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn engine_kind_parses_worker_suffix() {
        let var = "TLB_ENGINE";
        // Serialize against other tests via a single test body (process
        // env is global); restore the variable afterwards.
        let saved = std::env::var(var).ok();
        std::env::set_var(var, "sharded:4");
        assert_eq!(
            EngineKind::from_env(),
            EngineKind::Sharded { workers: Some(4) }
        );
        std::env::set_var(var, "SHARDED");
        assert_eq!(
            EngineKind::from_env(),
            EngineKind::Sharded { workers: None }
        );
        std::env::set_var(var, "serial");
        assert_eq!(EngineKind::from_env(), EngineKind::Serial);
        for bad in ["sharded:0", "sharded:lots", "parallel", "sharded:"] {
            std::env::set_var(var, bad);
            assert_eq!(
                EngineKind::from_env(),
                EngineKind::Serial,
                "{bad:?} must fall back to serial"
            );
        }
        match saved {
            Some(v) => std::env::set_var(var, v),
            None => std::env::remove_var(var),
        }
    }

    #[test]
    fn spin_barrier_synchronizes_phases() {
        const PARTIES: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = SpinBarrier::new(PARTIES);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Everyone must observe the full round's increments
                        // before anyone proceeds.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(seen >= (round + 1) * PARTIES);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), PARTIES * ROUNDS);
    }

    #[test]
    fn spin_barrier_elects_one_leader_per_generation() {
        const PARTIES: usize = 3;
        let barrier = SpinBarrier::new(PARTIES);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for _ in 0..100 {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 100);
    }
}

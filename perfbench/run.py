#!/usr/bin/env python3
"""The repository benchmark: named simulator workloads, end-to-end host
time and fidelity, and a traced per-layer breakdown.

    python3 perfbench/run.py --workload websearch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all [--record perfbench/baseline.json]

Run from the repository root. The first form measures one workload and
prints, as the last line of standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
`--all` measures every workload both ways and prints every metric with its
unit; `--record` also writes the results, digests and host block to a file.

The measuring program is `perfbench/src` (package `tlb-perfbench`), built
here with cargo into `$CARGO_TARGET_DIR` (default `.bench_build`). Every
measurement runs in a fresh process, so each peak RSS belongs to one run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["websearch", "websearch-sharded", "highbdp-datamining", "fattree16-hybrid"]
SHARDED = "websearch-sharded"
SHARDED_WORKERS = 2
DEFAULT_SEED = 20190805

# End-to-end metrics: name -> (unit, better, bound). BENCHMARK.json lists
# the same names, units, directions and bounds. run_s and setup_s are host
# times calibrated by the probe (see PROBE_REF_MS).
END_TO_END = {
    "run_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
    "flows_completed_frac": ("frac", "higher", 0.001),
    "hybrid_afct_err": ("frac", "lower", 0.25),
    "hybrid_p99_err": ("frac", "lower", 0.25),
}

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "workload.generate_s": ("s", "lower"),
    "workload.flows": ("count", "higher"),
    "simnet.events": ("count", "lower"),
    "simnet.ns_per_event": ("ns", "lower"),
    "simnet.fel_depth_p50": ("count", "lower"),
    "simnet.fel_depth_p99": ("count", "lower"),
    "simnet.fel_bound_peak": ("count", "lower"),
    "engine.fel_hold_ns": ("ns", "lower"),
    "lb.decisions": ("count", "lower"),
    "lb.decide_ns": ("ns", "lower"),
    "lb.long_reroutes": ("count", "lower"),
    "lb.forced_reroutes": ("count", "lower"),
    "lb.state_bytes_peak": ("bytes", "lower"),
    "lb.flow_path_changes_mean": ("count", "lower"),
    "lb.flow_path_changes_max": ("count", "lower"),
    "switch.port_cycle_ns": ("ns", "lower"),
    "switch.drops": ("count", "lower"),
    "switch.ecn_marks": ("count", "lower"),
    "switch.short_qlen_p99": ("pkts", "lower"),
    "transport.segments": ("count", "lower"),
    "transport.retx_frac": ("frac", "lower"),
    "transport.timeouts": ("count", "lower"),
    "transport.short_reorder": ("frac", "lower"),
    "transport.long_reorder": ("frac", "lower"),
    "transport.ack_cycle_ns": ("ns", "lower"),
    "fluid.migrations": ("count", "higher"),
    "fluid.demotions": ("count", "lower"),
    "fluid.bytes": ("bytes", "higher"),
    "fluid.recompute_ns": ("ns", "lower"),
    "shard.workers": ("count", "higher"),
    "shard.windows": ("count", "lower"),
    "shard.events_per_window": ("count", "higher"),
    "shard.speedup_vs_serial": ("x", "higher"),
    "alloc.steady_acquisitions": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

# The host probe's time (ms) on the host the benchmark was defined on, a
# 2-core Xeon (Sapphire Rapids) KVM guest. Host times are reported as
# measured × PROBE_REF_MS / probe time beside the run: shared hosts drift
# between fast and slow phases by a third, and the probe tracks the drift.
PROBE_REF_MS = 35.0

# Runs per invocation are timed until --seconds is spent, but never fewer.
MIN_RUNS = 5
# Set-ups timed per run (setup_s is their median).
SETUPS_PER_RUN = 11
# Run i of an invocation draws its flows from seed + i * SUBSEED_STRIDE, so
# run 0 uses the seed itself and the median spans several traffic draws.
SUBSEED_STRIDE = 1_000_003


class BenchError(Exception):
    pass


def child_env():
    """The environment minus the simulator's TLB_* knobs, so every run
    takes the library defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TLB_")}


def build():
    """Build the measuring program; return the path of its binary."""
    env = child_env()
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the measuring program failed")
    return os.path.join(ROOT, target, "release", "tlb-perfbench")


class Program:
    def __init__(self, binary, scale):
        self.binary = binary
        self.scale = scale

    def call(self, cmd, workload=None, seed=None, *extra):
        args = [self.binary, cmd, "--scale", repr(self.scale)]
        if workload is not None:
            args += ["--workload", workload]
        if seed is not None:
            args += ["--seed", str(seed)]
        args += list(extra)
        p = subprocess.run(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            raise BenchError(f"{' '.join(args)} exited with {p.returncode}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    def rep(self, workload, seed, serial=False):
        extra = ["--setups", str(SETUPS_PER_RUN)] + (["--serial"] if serial else [])
        return self.call("rep", workload, seed, *extra)


def subseed(seed, i):
    return (seed + i * SUBSEED_STRIDE) % 2**64


class Tally:
    """Flows attempted and failed, plus failed checks, over one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def flows(self, r, ok=True, why=""):
        """Count a run's flows; when `ok` is false every flow of it fails."""
        n, done = int(r["flows"]), int(r["completed"])
        self.attempted += n
        self.failed += (n - done) if ok else n
        if not ok:
            self.problems.append(why)
        elif done != n:
            self.problems.append(f"{n - done} of {n} flows did not complete")

    def check(self, ok, why):
        if not ok:
            self.problems.append(why)


def check_sharded(tally, r, serial):
    """A sharded run must engage every worker and reproduce the serial
    digest; otherwise every flow of it counts as failed."""
    if int(r["workers"]) != SHARDED_WORKERS:
        tally.flows(r, False, f"sharded run fell back ({int(r['workers'])} workers)")
    elif serial is not None and r["digest"] != serial["digest"]:
        tally.flows(r, False, "sharded digest differs from serial")
    else:
        tally.flows(r)


def measure_end_to_end(prog, workload, seed, seconds):
    tally = Tally()
    fid = prog.call("fidelity", None, seed)
    tally.flows(fid)
    serial = prog.rep(workload, seed, serial=True) if workload == SHARDED else None
    if serial is not None:
        tally.flows(serial)
    runs = []
    t0 = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - t0 < seconds:
        r = prog.rep(workload, subseed(seed, len(runs)))
        if workload == SHARDED:
            check_sharded(tally, r, serial if not runs else None)
        else:
            tally.flows(r)
        runs.append(r)
    med = lambda k: statistics.median(r[k] for r in runs)
    calibrated = lambda k: statistics.median(r[k] * PROBE_REF_MS / r["probe_ms"] for r in runs)
    completed = sum(r["completed"] for r in runs)
    launched = sum(r["flows"] for r in runs)
    metrics = {
        "run_s": calibrated("run_s"),
        "setup_s": calibrated("setup_s"),
        "peak_rss_mib": med("peak_rss_mib"),
        "flows_completed_frac": completed / launched,
        "hybrid_afct_err": fid["hybrid_afct_err"],
        "hybrid_p99_err": fid["hybrid_p99_err"],
    }
    info = {
        "digest": runs[0]["digest"],
        "runs": len(runs),
        "raw_run_s": med("run_s"),
        "raw_setup_s": med("setup_s"),
        "probe_ms": med("probe_ms"),
    }
    return tally, metrics, info


def measure_layers(prog, workload, seed, seconds):
    tally = Tally()
    untraced, serial = [], []
    t0 = time.monotonic()
    # Untraced runs of the traced run's input: the baseline for the
    # tracing overhead and (sharded) the serial-vs-sharded speedup.
    while len(untraced) < 3 or time.monotonic() - t0 < seconds / 2:
        if workload == SHARDED:
            serial.append(prog.rep(workload, seed, serial=True))
            tally.flows(serial[-1])
        untraced.append(prog.rep(workload, seed))
        if workload == SHARDED:
            check_sharded(tally, untraced[-1], serial[-1])
        else:
            tally.flows(untraced[-1])
    t = prog.call("trace", workload, seed)
    tally.flows(t)
    tally.check(t["audited"] == 1, "traced run skipped the conservation audit")
    tally.check(t["alloc.steady_acquisitions"] >= 0, "allocation audit window never closed")
    # A performance invariant rather than an output check: reported as a
    # metric and flagged, but it does not make the run incorrect.
    if t["alloc.steady_acquisitions"] != 0:
        print(f"NOTE: {workload}: steady state made {t['alloc.steady_acquisitions']:.0f} "
              "heap acquisitions (expected 0)", file=sys.stderr)
    tally.check(t["digest"] == untraced[0]["digest"], "traced run changed the digest")
    tally.check(t["alloc_digest"] == untraced[0]["digest"], "allocation-audited run changed the digest")
    if workload == SHARDED:
        tally.check(t["shard.workers"] == SHARDED_WORKERS, "traced sharded run fell back")
    run_s = statistics.median(r["run_s"] for r in untraced)
    metrics = {k: t[k] for k in PER_LAYER if k in t}
    metrics["simnet.ns_per_event"] = run_s / t["simnet.events"] * 1e9
    # Both sides calibrated by the probe taken beside them.
    untraced_cal = statistics.median(r["run_s"] / r["probe_ms"] for r in untraced)
    metrics["trace.overhead_frac"] = t["simnet.traced_run_s"] / t["probe_ms"] / untraced_cal - 1.0
    metrics["shard.speedup_vs_serial"] = (
        statistics.median(r["run_s"] for r in serial) / run_s if serial else 0.0
    )
    missing = set(PER_LAYER) - set(metrics)
    tally.check(not missing, f"per-layer metrics missing: {sorted(missing)}")
    return tally, metrics, {"digest": t["digest"]}


def measure(prog, workload, seed, seconds, trace):
    fn = measure_layers if trace else measure_end_to_end
    tally, metrics, info = fn(prog, workload, seed, seconds)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units if k in metrics},
    }
    return result, info, tally.problems


def host_block(prog):
    h = prog.call("calibrate")
    return {"cores": int(h["cores"]), "calibration_ms": h["calibration_ms"]}


def print_table(workload, trace, result, info):
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"# {workload} {kind}: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="size of every run relative to the benchmark's (smoke tests use less)")
    ap.add_argument("--all", action="store_true", help="every workload, both ways")
    ap.add_argument("--record", help="with --all: write results, digests and host block here")
    a = ap.parse_args(argv)
    if not a.all and a.workload is None:
        ap.error("--workload or --all is required")
    try:
        prog = Program(build(), a.scale)
        host = host_block(prog)
        print("host " + json.dumps(host))
        if not a.all:
            result, info, problems = measure(prog, a.workload, a.seed, a.seconds, a.trace)
            print_table(a.workload, a.trace, result, info)
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            print(json.dumps(result))
            return 0
        record = {"seed": a.seed, "scale": a.scale, "host": host, "workloads": {}}
        ok = True
        for w in WORKLOADS:
            entry = {}
            for trace in (0, 1):
                result, info, problems = measure(prog, w, a.seed, a.seconds, trace)
                print_table(w, trace, result, info)
                for p in problems:
                    print(f"CHECK FAILED: {w}: {p}", file=sys.stderr)
                ok = ok and result["correct"]
                entry["digest"] = info.pop("digest")
                entry["traced" if trace else "end_to_end"] = result
                if not trace:
                    entry["raw"] = info
            record["workloads"][w] = entry
        if a.record:
            with open(a.record, "w") as f:
                json.dump(record, f, indent=2)
                f.write("\n")
        return 0 if ok else 1
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

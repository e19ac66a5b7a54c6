//! `tlb-sim` — run one data-center load-balancing simulation from the
//! command line.
//!
//! ```sh
//! tlb-sim --scheme tlb --workload websearch --load 0.6
//! tlb-sim --scheme letflow --workload mix --shorts 100 --longs 3
//! tlb-sim --scheme rps --degrade 0:3:0.25:200 --json
//! tlb-sim --help
//! ```

use tlb::engine::EngineKind;
use tlb::prelude::*;

const HELP: &str = "\
tlb-sim — packet-level DCN load-balancing simulator (TLB reproduction)

USAGE:
    tlb-sim [OPTIONS]

OPTIONS:
    --scheme <s>          ecmp | rps | presto | letflow | drill | conga |
                          flowbender | hermes | wcmp | diffflow | tlb          [tlb]
    --workload <w>        websearch | datamining | mix                    [websearch]
    --load <f>            offered load fraction for Poisson workloads           [0.6]
    --shorts <n>          short flows for the 'mix' workload                    [100]
    --longs <n>           long flows for the 'mix' workload                       [3]
    --leaves <n>          leaf switches                                           [8]
    --spines <n>          spine switches (= equal-cost paths)                     [8]
    --hosts-per-leaf <n>  hosts per rack                                         [16]
    --fat-tree <k>        use a k-ary fat tree instead of leaf-spine (k even,
                          k^3/4 hosts); overrides the three knobs above
    --gbps <f>            link rate in Gbit/s                                   [1.0]
    --duration-ms <n>     Poisson traffic window                                 [50]
    --seed <n>            RNG seed (runs are deterministic per seed)              [1]
    --engine <e>          serial | sharded — execution engine (default: the
                          TLB_ENGINE env knob, itself defaulting to serial);
                          sharded falls back to serial when the config is
                          unpartitionable, with bit-identical results
    --workers <n>         worker threads for --engine sharded          [all cores]
    --degrade l:s:bw:us   degrade uplink leaf l -> spine s to bw x bandwidth
                          with +us microseconds delay (repeatable)
    --fail sw:up:at_us    take LB switch sw's uplink up down at_us microseconds
                          into the run (repeatable)
    --repair sw:up:at_us  bring the same uplink back up at_us microseconds in
                          (repeatable)
    --json                machine-readable output
    --help                this text
";

/// Options that take a value. `--degrade`, `--fail` and `--repair` may
/// repeat; for the rest the first occurrence wins.
const VALUED: &str = "--scheme --workload --load --shorts --longs --leaves --spines \
    --hosts-per-leaf --fat-tree --gbps --duration-ms --seed --engine --workers --degrade \
    --fail --repair";

/// Why a command line was rejected. `main` reports it as one line on
/// stderr and exits with code 2, before any simulation runs.
#[derive(Debug)]
enum CliError {
    /// An argument that is not a known option.
    UnknownOption(String),
    /// A valued option given as the last argument.
    MissingValue(&'static str),
    /// `(option, value, what was expected)`: a value that does not parse
    /// or is out of range.
    BadValue(&'static str, String, &'static str),
    /// A configuration `SimConfig::validate` rejects.
    Config(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownOption(arg) => write!(f, "unknown option '{arg}' (see --help)"),
            CliError::MissingValue(key) => write!(f, "option {key} needs a value"),
            CliError::BadValue(key, v, expected) => {
                write!(f, "bad {key} '{v}': expected {expected}")
            }
            CliError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

/// The parsed command line: `(option, value)` pairs in order, and `--json`.
struct Args {
    values: Vec<(&'static str, String)>,
    json: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, CliError> {
        let (mut values, mut json) = (Vec::new(), false);
        while let Some(arg) = raw.next() {
            if arg == "--json" {
                json = true;
            } else if let Some(key) = VALUED.split_whitespace().find(|k| *k == arg) {
                values.push((key, raw.next().ok_or(CliError::MissingValue(key))?));
            } else {
                return Err(CliError::UnknownOption(arg));
            }
        }
        Ok(Args { values, json })
    }

    fn values_of<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.values
            .iter()
            .filter(move |(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    fn value_of<'a>(&'a self, key: &'a str) -> Option<&'a str> {
        self.values_of(key).next()
    }

    /// `key`'s value parsed as `T` and accepted by `valid`, or `default`
    /// when the option is absent.
    fn get<T: std::str::FromStr>(
        &self,
        key: &'static str,
        default: T,
        expected: &'static str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, CliError> {
        self.value_of(key)
            .map_or(Ok(default), |v| parse(key, v, v, expected, valid))
    }
}

/// Parse `field`, all or part of option `key`'s value `value`.
fn parse<T: std::str::FromStr>(
    key: &'static str,
    value: &str,
    field: &str,
    expected: &'static str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    field
        .parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| bad(key, value, expected))
}

fn bad(key: &'static str, value: &str, expected: &'static str) -> CliError {
    CliError::BadValue(key, value.to_string(), expected)
}

fn scheme_from(name: &str) -> Result<Scheme, CliError> {
    Ok(match name {
        "ecmp" => Scheme::Ecmp,
        "rps" => Scheme::Rps,
        "presto" => Scheme::presto_default(),
        "letflow" => Scheme::letflow_default(),
        "drill" => Scheme::Drill { d: 2, m: 1 },
        "flowbender" => Scheme::flowbender_default(),
        "hermes" => Scheme::hermes_default(),
        "wcmp" => Scheme::Wcmp,
        "conga" => Scheme::CongaLite {
            timeout: SimTime::from_micros(500),
        },
        "diffflow" => Scheme::diffflow_default(),
        "tlb" => Scheme::tlb_default(),
        other => return Err(bad("--scheme", other, "a scheme named in --help")),
    })
}

/// Build the simulation the command line describes.
fn setup(args: &Args) -> Result<(SimConfig, Vec<FlowSpec>), CliError> {
    let scheme = scheme_from(args.value_of("--scheme").unwrap_or("tlb"))?;
    let (count, positive) = ("a positive integer", |n: &usize| *n > 0);
    let leaves = args.get("--leaves", 8, count, positive)?;
    let spines = args.get("--spines", 8, count, positive)?;
    let hosts_per_leaf = args.get("--hosts-per-leaf", 16, count, positive)?;
    let gbps: f64 = args.get("--gbps", 1.0, "a positive number", |g: &f64| {
        g.is_finite() && *g > 0.0
    })?;
    let seed: u64 = args.get("--seed", 1, "an unsigned integer", |_| true)?;

    let mut cfg = SimConfig::basic_paper(scheme);
    cfg.topo = if args.value_of("--fat-tree").is_some() {
        let k = args.get("--fat-tree", 0, "an even arity >= 2", |k: &usize| {
            *k >= 2 && k.is_multiple_of(2)
        })?;
        FatTreeBuilder::new(k)
            .link_gbps(gbps)
            .target_rtt(SimTime::from_micros(100))
            .build()
            .into()
    } else {
        LeafSpineBuilder::new(leaves, spines, hosts_per_leaf)
            .link_gbps(gbps)
            .target_rtt(SimTime::from_micros(100))
            .build()
            .into()
    };
    cfg.seed = seed;

    if let Some(engine) = args.value_of("--engine") {
        let workers = match args.value_of("--workers") {
            None => None,
            Some(_) => Some(args.get("--workers", 1u32, count, |w| *w > 0)?),
        };
        cfg.engine = match engine {
            "serial" => EngineKind::Serial,
            "sharded" => EngineKind::Sharded { workers },
            other => return Err(bad("--engine", other, "serial or sharded")),
        };
    }

    let (n_sw, n_up) = (cfg.topo.n_lb_switches(), cfg.topo.n_spines());
    for spec in args.values_of("--degrade") {
        let (key, expected) = ("--degrade", "l:s:bw:us on an existing uplink, bw in (0, 1]");
        let [l, s, bw, us] = spec.split(':').collect::<Vec<_>>()[..] else {
            return Err(bad(key, spec, expected));
        };
        cfg.topo.degrade_link(
            LeafId(parse(key, spec, l, expected, |l| (*l as usize) < n_sw)?),
            SpineId(parse(key, spec, s, expected, |s| (*s as usize) < n_up)?),
            parse(key, spec, bw, expected, |bw| *bw > 0.0 && *bw <= 1.0)?,
            SimTime::from_micros(parse(key, spec, us, expected, |_| true)?),
        );
    }

    for (key, action) in [
        ("--fail", FailureAction::Down),
        ("--repair", FailureAction::Up),
    ] {
        for spec in args.values_of(key) {
            let expected = "sw:up:at_us";
            let [sw, up, at] = spec.split(':').collect::<Vec<_>>()[..] else {
                return Err(bad(key, spec, expected));
            };
            cfg.failure_events.push(FailureEvent {
                at: SimTime::from_micros(parse(key, spec, at, expected, |_| true)?),
                target: FailureTarget::Link {
                    sw: LeafId(parse(key, spec, sw, expected, |_| true)?),
                    up: SpineId(parse(key, spec, up, expected, |_| true)?),
                },
                action,
            });
        }
    }
    cfg.failure_events.sort_by_key(|e| e.at);
    cfg.validate().map_err(CliError::Config)?;

    let mut rng = SimRng::new(seed ^ 0xABCD);
    let flows = match args.value_of("--workload").unwrap_or("websearch") {
        "mix" => {
            let mut mix = BasicMixConfig::paper_default();
            mix.n_short = args.get("--shorts", 100, "an unsigned integer", |_| true)?;
            mix.n_long = args.get("--longs", 3, "an unsigned integer", |_| true)?;
            basic_mix(&cfg.topo, &mix, &mut rng)
        }
        w @ ("websearch" | "datamining") => {
            let dist = if w == "websearch" {
                web_search()
            } else {
                data_mining()
            };
            let load = args.get("--load", 0.6, "a number in (0, 1.5]", |l| {
                *l > 0.0 && *l <= 1.5
            })?;
            let ms = args.get("--duration-ms", 50, "an unsigned integer", |_| true)?;
            let wl = PoissonWorkload {
                load,
                dist: &dist,
                duration: SimTime::from_millis(ms),
                deadline_lo: SimTime::from_millis(5),
                deadline_hi: SimTime::from_millis(25),
                short_threshold: 100_000,
                inter_leaf_only: true,
            };
            wl.generate(&cfg.topo, &mut rng)
        }
        other => return Err(bad("--workload", other, "websearch, datamining or mix")),
    };
    Ok((cfg, flows))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let parsed = Args::parse(raw.into_iter()).and_then(|args| Ok((setup(&args)?, args.json)));
    let ((cfg, flows), json) = parsed.unwrap_or_else(|e| {
        eprintln!("tlb-sim: {e}");
        std::process::exit(2)
    });

    let (n, scheme, seed) = (flows.len(), cfg.scheme.name(), cfg.seed);
    eprintln!("running {n} flows under {scheme} (seed {seed})...");
    let r = Simulation::new(cfg, flows).run();

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&r.to_summary()).expect("serializable summary")
        );
    } else {
        println!("{}", r.one_line());
        println!(
            "  events {}  drops {}  ECN marks {}  wall {:?}",
            r.events, r.drops, r.marks, r.wall
        );
    }
}

//! The repository benchmark: four workloads over the public APIs of
//! `congest`, `pquery`, `qsim` and `dqc-core`, with every output verified.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--record FILE] [--print-pins]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --smoke [--workload <name>|all]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A.tsv [B.tsv]
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) also re-runs every instance through a rebuild of the
//! drivers with spans around each layer call and reports the per-layer
//! metrics. The last line of standard output is one JSON object; the lines
//! before it print every metric by name with its unit. See README.md.

mod diameter;
mod distinct;
mod exact;
mod record;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;
use trace::{peak_rss_mib, Spans};
use workload::{Measured, Metric, Scale, Tally, Workload};

/// The seed used when `--seed` is absent, and the one the pinned simulated
/// statistics in `pins.txt` were recorded at.
const DEFAULT_SEED: u64 = 1;

/// Pinned simulated statistics: `<scale> <workload> <line>`.
const PINS: &str = include_str!("../pins.txt");

const WORKLOADS: [&str; 4] = ["diameter_quantum", "diameter_classical", "distinctness", "exact"];

/// Independent random streams derived from the benchmark seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Graph = 1,
    Data = 2,
    Algorithm = 3,
}

/// A 64-bit seed for item `i` of `stream`, derived from `seed` (SplitMix64
/// finalizer, so nearby seeds give unrelated inputs).
pub fn mix(seed: u64, stream: Stream, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: Option<String>,
    print_pins: bool,
    compare: Vec<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        record: None,
        print_pins: false,
        compare: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--record" => a.record = Some(value()?),
            "--smoke" => a.smoke = true,
            "--print-pins" => a.print_pins = true,
            "--compare" => {
                a.compare.push(value()?);
                a.compare.extend(argv.by_ref());
                if a.compare.len() > 2 {
                    return Err("--compare takes one or two record files".into());
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nworkloads: {}", WORKLOADS.join(", "));
            return ExitCode::from(2);
        }
    };
    if !args.compare.is_empty() {
        return match record::compare(&args.compare) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let names: Vec<&str> = match args.workload.as_deref() {
        Some("all") if args.smoke => WORKLOADS.to_vec(),
        None if args.smoke => WORKLOADS.to_vec(),
        Some(w) if WORKLOADS.contains(&w) => vec![w],
        other => {
            eprintln!(
                "error: --workload must be one of {} (or all, with --smoke); got {other:?}",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke { Scale::Smoke } else { Scale::Full };
    let mut ok = true;
    for name in names {
        ok &= match name {
            "diameter_quantum" => {
                execute(name, &diameter::QuantumDiameter::new(scale), scale, &args)
            }
            "diameter_classical" => {
                execute(name, &diameter::ClassicalDiameter::new(scale), scale, &args)
            }
            "distinctness" => execute(name, &distinct::Distinctness::new(scale), scale, &args),
            _ => execute(name, &exact::Exact::new(scale), scale, &args),
        };
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload and print its report; false if any output was wrong.
fn execute<W: Workload>(name: &str, w: &W, scale: Scale, args: &Args) -> bool {
    let traced = args.trace || args.smoke;
    let window = if args.smoke { Duration::ZERO } else { Duration::from_secs_f64(args.seconds) };
    println!("workload {name}  seed {}  scale {}  trace {}", args.seed, scale.name(), traced as u8);
    for (label, value) in host().into_iter().chain(w.host()) {
        println!("  host  {label}: {value}");
    }

    // The pinned instance runs first, untimed, so it also warms caches,
    // the allocator and lazy set-up before anything is timed.
    let pins = check_pins(name, w, scale, args.print_pins);
    let mut m = Measured::default();
    let mut insts = workload::setup(w, args.seed, &mut m);
    let untraced = workload::measure(w, args.seed, &mut insts, window, &mut m);
    if traced {
        workload::trace(w, &mut insts, &untraced, &mut m);
    }
    drop(insts);
    m.tallies.push(pins);

    let e2e = workload::end_to_end(&m, peak_rss_mib());
    let layers = if traced { workload::per_layer(w, &m) } else { Vec::new() };
    let t = &Tally::sum(&m.tallies);
    let counts: Vec<Metric> =
        vec![("attempted", "count", t.attempted as f64), ("failed", "count", t.failed() as f64)];
    let dist = workload::distributions(&m);
    let all: Vec<&Metric> = e2e.iter().chain(&dist).chain(&layers).chain(&counts).collect();
    for (metric, unit, value) in &all {
        println!("  {metric:<30} {value:>20.9} {unit}");
    }
    println!(
        "  fail_frac {:.4}: {} of {} distinct driver calls failed ({} bounded-error misses, {} errors)",
        stats::fail_frac(t.failed(), t.attempted),
        t.failed(),
        t.attempted,
        t.misses,
        t.errors
    );
    for note in t.notes.iter().take(8) {
        println!("  ERROR {note}");
    }
    if let Some(path) = &args.record {
        if let Err(e) = record::append(path, name, args.seed, traced, &all) {
            eprintln!("error: cannot append to {path}: {e}");
        }
    }

    let correct = t.errors == 0;
    let reported = if args.trace { &layers } else { &e2e };
    let body: Vec<String> = reported
        .iter()
        .map(|(n, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed(),
        body.join(", ")
    );
    correct
}

/// Run the default seed's first instance and compare its simulated
/// statistics with `pins.txt`. Runs on every seed, so a change that alters
/// the simulation fails whichever seed the benchmark is given.
fn check_pins<W: Workload>(name: &str, w: &W, scale: Scale, print: bool) -> Tally {
    let mut t = Tally::default();
    let mut inst = w.instance(DEFAULT_SEED, 0, &mut Spans::default());
    let out = match w.run(&mut inst) {
        Ok(out) => out,
        Err(e) => {
            t.fail_all(w.calls(), format!("pinned instance: {e}"));
            return t;
        }
    };
    w.check(&inst, &out, &mut t);
    let got = w.pins(&out);
    let prefix = format!("{} {name} ", scale.name());
    let want: Vec<&str> = PINS.lines().filter_map(|l| l.strip_prefix(&prefix)).collect();
    if print {
        for line in &got {
            println!("PIN {prefix}{line}");
        }
    }
    if got.iter().map(String::as_str).ne(want.iter().copied()) {
        let diff = got
            .iter()
            .map(String::as_str)
            .zip(want.iter().copied().chain(std::iter::repeat("<missing>")))
            .find(|(g, w)| g != w)
            .map_or("line count differs".to_string(), |(g, w)| format!("got  {g}\n  want {w}"));
        t.fail_all(
            w.calls(),
            format!("simulated statistics differ from pins.txt at seed {DEFAULT_SEED}:\n  {diff}"),
        );
    }
    t
}

/// Host facts later parallel-engine and qsim-threading results cite.
fn host() -> Vec<(String, String)> {
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let ap = std::thread::available_parallelism().map_or(0, |p| p.get());
    vec![("nproc".into(), nproc), ("available_parallelism".into(), ap.to_string())]
}

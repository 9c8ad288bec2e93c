//! Regenerate the paper's result tables.
//!
//! ```text
//! reproduce [--list] [--quick] [--check] [--json FILE] [--telemetry DIR] [all | e1 .. e19]...
//! ```
//!
//! `--list` prints the experiment catalog (id + one-line description) and
//! exits. Unknown experiment ids, and `--json`/`--telemetry` without a
//! value, are rejected before anything runs, with exit status 2.
//!
//! `--check` additionally runs the model-conformance sweep — the
//! differential grid of `{Sequential, Parallel} × {fault-free, faulted}`
//! audited runs — after the experiments, and exits nonzero if any cell
//! reports a violation, an engine divergence, or an incorrect outcome.
//!
//! Every experiment records the runs behind its table into a
//! `congest::telemetry::Collector`. `--telemetry DIR` writes that
//! collector for each selected experiment as `DIR/<id>.trace.jsonl`
//! (Chrome trace-event / Perfetto-loadable, round index timebase) and
//! `DIR/<id>.metrics.json` (counters, histograms, span rollup, per-edge
//! loads), so trace, metrics, and table come from the same execution.

use dqc_bench::{run_one, Scale, CATALOG};

const USAGE: &str =
    "usage: reproduce [--list] [--quick] [--check] [--json FILE] [--telemetry DIR] [all | e1 .. e19]...";

fn conformance_sweep() -> bool {
    let cells = dqc_bench::harness::differential_grid(19);
    let mut ok = true;
    println!("== conformance sweep: {} differential cells ==", cells.len());
    for c in &cells {
        let clean = c.violations == 0 && c.rounds_delta == 0 && c.correct;
        if !clean {
            ok = false;
            println!(
                "  FAIL {}/{} (faulted={}): {} violations, engine rounds delta {}, correct={}",
                c.protocol, c.graph, c.faulted, c.violations, c.rounds_delta, c.correct
            );
        }
    }
    if ok {
        println!("  all cells conformant: engines agree, zero violations, outcomes correct");
    }
    ok
}

/// The value following `flag`; a missing one (or another flag in its
/// place) prints the usage line and exits 2.
fn value_of(flag: &str, it: &mut impl Iterator<Item = String>) -> String {
    match it.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => {
            eprintln!("{flag} needs a value\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut json_path: Option<String> = None;
    let mut telemetry_dir: Option<String> = None;
    let mut check = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--json" => json_path = Some(value_of("--json", &mut it)),
            "--telemetry" => telemetry_dir = Some(value_of("--telemetry", &mut it)),
            "--check" => check = true,
            "--list" => {
                println!("experiments:");
                for (id, what, _) in CATALOG {
                    println!("  {id:<4} {what}");
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => wanted.push(other.to_ascii_lowercase()),
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = CATALOG.iter().map(|(id, _, _)| id.to_string()).collect();
    }
    let unknown: Vec<&String> =
        wanted.iter().filter(|w| !CATALOG.iter().any(|(id, _, _)| id == w)).collect();
    if !unknown.is_empty() {
        for id in unknown {
            eprintln!("unknown experiment: {id}");
        }
        eprintln!("run `reproduce --list` for the catalog");
        std::process::exit(2);
    }
    if let Some(dir) = &telemetry_dir {
        std::fs::create_dir_all(dir).expect("create telemetry dir");
    }
    let mut tables = Vec::new();
    for id in &wanted {
        let (t, col) = run_one(id, scale).expect("catalog ids all resolve");
        println!("{}", t.render());
        tables.push(t);
        if let Some(dir) = &telemetry_dir {
            let trace = format!("{dir}/{id}.trace.jsonl");
            let metrics = format!("{dir}/{id}.metrics.json");
            std::fs::write(&trace, col.to_chrome_jsonl()).expect("write trace");
            std::fs::write(&metrics, col.metrics_json()).expect("write metrics");
            eprintln!("wrote {trace} + {metrics}");
        }
    }
    if let Some(path) = json_path {
        let json = dqc_bench::table::tables_to_json(&tables);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
    if check && !conformance_sweep() {
        std::process::exit(1);
    }
}

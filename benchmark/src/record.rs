//! Record files and the compare mode.
//!
//! `--record FILE` appends one tab-separated row per metric:
//! `workload  seed  trace  metric  unit  value`. `--compare A [B]` groups
//! the rows of each file by workload, trace flag and metric and prints the
//! median, quartile spread and run count; with two files it also prints
//! B's median as a change from A's, flagging changes larger than A's own
//! spread (the distance between its quartiles).

use crate::stats::{median, spread};
use crate::workload::Metric;
use std::collections::BTreeMap;
use std::io::Write;

/// Append `metrics` of one run to `path`.
pub fn append(
    path: &str,
    workload: &str,
    seed: u64,
    traced: bool,
    metrics: &[&Metric],
) -> std::io::Result<()> {
    let mut rows = String::new();
    for (name, unit, value) in metrics {
        rows.push_str(&format!("{workload}\t{seed}\t{}\t{name}\t{unit}\t{value}\n", traced as u8));
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(rows.as_bytes())?;
    f.flush()
}

/// `(workload, trace, metric)` → (unit, values in file order).
type Groups = BTreeMap<(String, String, String), (String, Vec<f64>)>;

fn parse(text: &str) -> Result<Groups, String> {
    let mut groups = Groups::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, _seed, trace, metric, unit, value] = f[..] else {
            return Err(format!("line {}: expected 6 tab-separated fields", i + 1));
        };
        let value: f64 = value.parse().map_err(|e| format!("line {}: {e}", i + 1))?;
        groups
            .entry((workload.to_string(), trace.to_string(), metric.to_string()))
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(value);
    }
    Ok(groups)
}

fn load(path: &str) -> Result<Groups, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print per-metric, per-workload statistics of one record file, or the
/// deltas between two.
pub fn compare(paths: &[String]) -> Result<(), String> {
    let a = load(&paths[0])?;
    let b = paths.get(1).map(|p| load(p)).transpose()?;
    println!(
        "{:<20} {:>5} {:<30} {:>14} {:>8} {:>4}{}",
        "workload",
        "trace",
        "metric",
        "median A",
        "spread A",
        "runs",
        if b.is_some() { "       median B spread B runs  delta" } else { "" }
    );
    for ((workload, trace, metric), (unit, xs)) in &a {
        let mut line = format!(
            "{workload:<20} {trace:>5} {metric:<30} {:>14.6} {:>7.1}% {:>4}",
            median(xs),
            100.0 * spread(xs),
            xs.len()
        );
        if let Some(b) = &b {
            match b.get(&(workload.clone(), trace.clone(), metric.clone())) {
                Some((_, ys)) => {
                    let delta = crate::stats::ratio(median(ys) - median(xs), median(xs));
                    let flag = if delta.abs() > spread(xs) { "  beyond A's spread" } else { "" };
                    line.push_str(&format!(
                        " {:>14.6} {:>7.1}% {:>4} {:>+6.1}%{flag}",
                        median(ys),
                        100.0 * spread(ys),
                        ys.len(),
                        100.0 * delta
                    ));
                }
                None => line.push_str("  (absent from B)"),
            }
        }
        println!("{line} {unit}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_groups_rows_by_workload_trace_and_metric() {
        let text = "exact\t1\t0\twall_s\ts\t2.0\nexact\t2\t0\twall_s\ts\t4.0\n\nexact\t1\t1\twall_s\ts\t9\n";
        let g = parse(text).unwrap();
        let key = |t: &str| ("exact".to_string(), t.to_string(), "wall_s".to_string());
        assert_eq!(g[&key("0")], ("s".to_string(), vec![2.0, 4.0]));
        assert_eq!(g[&key("1")].1, vec![9.0]);
    }

    #[test]
    fn parse_rejects_malformed_rows() {
        assert!(parse("exact\t1\t0\twall_s\ts\n").is_err());
        assert!(parse("exact\t1\t0\twall_s\ts\tfast\n").is_err());
    }
}

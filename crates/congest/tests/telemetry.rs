//! Cross-engine determinism of the telemetry subsystem.
//!
//! The contract (see `congest::telemetry` module docs): an instrumented
//! run exports **byte-identical** trace and metrics files under every
//! `EngineMode`, fault-free and faulted alike. These tests run the same
//! instrumented workload on the sequential and the parallel engine and
//! compare the raw export strings.

use congest::bfs::BfsTreeProtocol;
use congest::conformance::{validate_trace, FloodProtocol};
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::grid;
use congest::runtime::{EngineMode, Network, RunStats};
use congest::telemetry::Collector;

/// Run the workload once per engine mode and return the two exports.
fn exports_for<F>(workload: F) -> Vec<(String, String)>
where
    F: Fn(&mut Collector, EngineMode),
{
    [EngineMode::Sequential, EngineMode::Parallel { threads: 4 }]
        .into_iter()
        .map(|mode| {
            let mut col = Collector::new();
            workload(&mut col, mode);
            (col.to_chrome_jsonl(), col.metrics_json())
        })
        .collect()
}

#[test]
fn fault_free_exports_are_byte_identical_across_engines() {
    let g = grid(6, 5);
    let exports = exports_for(|col, mode| {
        let net = Network::new(&g).with_engine(mode);
        col.enter("flood");
        net.run_with(FloodProtocol::instances(g.n(), 0), &mut *col).expect("flood");
        col.exit();
        col.enter("bfs");
        net.run_with(BfsTreeProtocol::instances(g.n(), 0), &mut *col).expect("bfs");
        col.exit();
    });
    assert_eq!(exports[0].0, exports[1].0, "trace JSONL differs across engines");
    assert_eq!(exports[0].1, exports[1].1, "metrics JSON differs across engines");
    assert!(exports[0].0.contains("\"ph\":\"X\""));
}

#[test]
fn faulted_exports_are_byte_identical_across_engines() {
    let g = grid(6, 5);
    let plan = FaultPlan::new(19).with_drop_rate(0.3);
    let exports = exports_for(|col, mode| {
        let net = Network::new(&g).with_engine(mode).with_faults(plan.clone());
        col.enter("reliable-bfs");
        net.run_with(
            Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), RetryConfig::default()),
            &mut *col,
        )
        .expect("reliable bfs under 30% loss");
        col.exit();
    });
    assert_eq!(exports[0].0, exports[1].0, "faulted trace JSONL differs across engines");
    assert_eq!(exports[0].1, exports[1].1, "faulted metrics JSON differs across engines");
}

#[test]
fn faulted_run_records_retries_and_edge_loads() {
    let g = grid(6, 5);
    let net = Network::new(&g)
        .with_engine(EngineMode::Sequential)
        .with_faults(FaultPlan::new(19).with_drop_rate(0.3));
    let mut col = Collector::new();
    col.enter("reliable-flood");
    net.run_with(
        Reliable::wrap_all(FloodProtocol::instances(g.n(), 0), RetryConfig::default()),
        &mut col,
    )
    .expect("reliable flood under 30% loss");
    col.exit();

    // At 30% loss a grid flood loses some data or ack, so the stop-and-wait
    // wrapper must retransmit; the counters and the backoff histogram see it.
    assert!(col.counter("reliable.retries") > 0, "no retries recorded under 30% loss");
    assert!(col.counter("reliable.sends") > 0);
    assert!(col.counter("reliable.acks") > 0);
    assert!(col.histogram("reliable.backoff").is_some());
    assert!(col.counter("engine.dropped") > 0);
    // Every directed edge load is bounded by rounds * cap.
    let rounds = col.cursor();
    for (&(f, t), &bits) in col.edge_loads() {
        assert!(g.neighbors(f).contains(&t), "edge ({f},{t}) not in graph");
        assert!(bits <= rounds * net.cap_bits());
    }
    assert!(!col.edge_loads().is_empty());
    // Round samples cover the run and sum to the delivered bits counter.
    let sampled: u64 = col.round_samples().iter().map(|s| s.trace.bits).sum();
    assert_eq!(sampled, col.counter("engine.bits"));
}

#[test]
fn telemetry_run_matches_untelemetered_run() {
    // Recording must not perturb the run itself.
    let g = grid(6, 5);
    let net = Network::new(&g).with_engine(EngineMode::Sequential);
    let plain = net.run(FloodProtocol::instances(g.n(), 0)).expect("plain");
    let mut col = Collector::new();
    let telem = net.run_with(FloodProtocol::instances(g.n(), 0), &mut col).expect("telemetered");
    assert_eq!(plain.stats, telem.stats);
    assert_eq!(col.cursor(), plain.stats.rounds as u64);
    assert_eq!(col.counter("engine.bits"), plain.stats.total_bits);
}

#[test]
fn consecutive_runs_are_stamped_after_each_other() {
    // One collector, two engine runs with a recorded 5-round phase between
    // them: run 1 owns stamps 0..r1, run 2 owns r1+5..r1+5+r2. Checked
    // against exact values, not just across engines, so a stamping bug
    // both engines share still fails.
    const GAP: u64 = 5;
    let g = grid(6, 5);
    for mode in [EngineMode::Sequential, EngineMode::Parallel { threads: 3 }] {
        let net = Network::new(&g).with_engine(mode);
        let faulted =
            net.clone().with_faults(FaultPlan::new(7).with_drop_rate(0.2).with_delay(0.2, 2));
        let mut col = Collector::new();
        let first = net.run_with(FloodProtocol::instances(g.n(), 0), &mut col).expect("run 1");
        col.record_run("gap", &RunStats { rounds: GAP as usize, ..Default::default() });
        let second = faulted
            .run_with(
                Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), RetryConfig::default()),
                &mut col,
            )
            .expect("run 2");
        let (r1, r2) = (first.stats.rounds as u64, second.stats.rounds as u64);
        assert!(r1 > 0 && r2 > 0 && second.stats.dropped > 0, "{mode:?}");
        let stamps: Vec<u64> = col.round_samples().iter().map(|s| s.round).collect();
        let expected: Vec<u64> = (0..r1).chain(r1 + GAP..r1 + GAP + r2).collect();
        assert_eq!(stamps, expected, "{mode:?}");
        assert_eq!(col.cursor(), r1 + GAP + r2, "{mode:?}");
        let (s1, s2) = col.round_samples().split_at(r1 as usize);
        assert_eq!(validate_trace(&first.stats, s1, net.cap_bits()), vec![], "{mode:?} run 1");
        assert_eq!(validate_trace(&second.stats, s2, net.cap_bits()), vec![], "{mode:?} run 2");
    }
}

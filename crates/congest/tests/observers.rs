//! Observer composition is free: attaching any combination of the built-in
//! observers (audit, telemetry) — or custom [`RunObserver`]s — must
//! not perturb the run, and each observer must record the same artifact it
//! records when attached alone.

use congest::bfs::BfsTreeProtocol;
use congest::conformance::FloodProtocol;
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::{grid, path, random_connected_m, star};
use congest::graph::{Graph, NodeId};
use congest::runtime::{EngineMode, Network, RunObserver, RunStats};
use congest::telemetry::Collector;
use proptest::prelude::*;

/// Random connected topologies crossed with an optional fault plan.
fn arb_network() -> impl Strategy<Value = (String, Graph, Option<FaultPlan>)> {
    ((0usize..4), (0usize..1000), (0u64..1000), any::<bool>()).prop_map(
        |(family, size, seed, faulted)| {
            let (name, g) = match family {
                0 => {
                    let n = 6 + size % 60;
                    (format!("path({n})"), path(n))
                }
                1 => {
                    let (w, h) = (2 + size % 8, 2 + seed as usize % 8);
                    (format!("grid({w}x{h})"), grid(w, h))
                }
                2 => {
                    let n = 6 + size % 60;
                    (format!("star({n})"), star(n))
                }
                _ => {
                    let n = 12 + size % 52;
                    (format!("random({n},{seed})"), random_connected_m(n, n + n / 2, seed))
                }
            };
            let plan = faulted
                .then(|| FaultPlan::new(seed ^ 0xABCD).with_drop_rate(0.2).with_delay(0.1, 2));
            (name, g, plan)
        },
    )
}

fn net_for<'g>(g: &'g Graph, plan: &Option<FaultPlan>, mode: EngineMode) -> Network<'g> {
    let net = Network::new(g).with_engine(mode);
    match plan {
        Some(p) => net.with_faults(p.clone()),
        None => net,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full pipeline (audit + telemetry) yields the same statistics
    /// and final node states as a bare run, and its collector records
    /// exactly what a collector attached alone records.
    #[test]
    fn composed_observers_do_not_perturb_the_run(
        input in arb_network(),
        mode_pick in 0usize..3,
        origin_pick in 0usize..1000,
    ) {
        let (name, g, plan) = input;
        let origin = origin_pick % g.n();
        let mode = match mode_pick {
            0 => EngineMode::Sequential,
            1 => EngineMode::Parallel { threads: 3 },
            _ => EngineMode::Auto,
        };
        let make = || {
            Reliable::wrap_all(FloodProtocol::instances(g.n(), origin), RetryConfig::default())
        };

        let bare = net_for(&g, &plan, mode).run(make()).expect("bare run");
        let mut alone = Collector::new();
        let telemetry_alone =
            net_for(&g, &plan, mode).run_with(make(), &mut alone).expect("telemetry run");
        let (mut violations, mut col) = (Vec::new(), Collector::new());
        let full = net_for(&g, &plan, mode)
            .run_with(make(), (&mut violations, &mut col))
            .expect("fully observed run");

        prop_assert_eq!(full.stats, bare.stats, "observers perturbed the stats on {}", &name);
        prop_assert_eq!(
            format!("{:?}", full.nodes),
            format!("{:?}", bare.nodes),
            "observers perturbed the node states on {}", &name
        );
        prop_assert_eq!(telemetry_alone.stats, bare.stats);
        prop_assert_eq!(
            col.round_samples(),
            alone.round_samples(),
            "composed round samples differ from telemetry alone on {}", &name
        );
        prop_assert_eq!(
            (col.to_chrome_jsonl(), col.metrics_json()),
            (alone.to_chrome_jsonl(), alone.metrics_json()),
            "composed exports differ from telemetry alone on {}", &name
        );
        // An honest protocol audits clean, and the collector saw the run.
        prop_assert!(violations.is_empty());
        prop_assert_eq!(col.cursor(), bare.stats.rounds as u64);
        prop_assert_eq!(col.counter("engine.bits"), bare.stats.total_bits);
    }
}

/// A custom observer exercising every hook, including the gated
/// per-message one.
#[derive(Default)]
struct CountingObserver {
    round_ends: usize,
    messages: u64,
    bits: u64,
    finishes: usize,
    finished_stats: Option<RunStats>,
}

impl RunObserver for &mut CountingObserver {
    fn observes_messages(&self) -> bool {
        true
    }
    fn on_message(&mut self, _round: usize, _from: NodeId, _to: NodeId, bits: u64) {
        self.messages += 1;
        self.bits += bits;
    }
    fn on_round_end(
        &mut self,
        round: usize,
        _trace: congest::runtime::RoundTrace,
        _shard: &mut congest::telemetry::Shard,
    ) {
        // Run-local round indices arrive in order from 0, which is what
        // `Collector` stamps its samples with.
        assert_eq!(round, self.round_ends, "on_round_end skipped or repeated a round");
        self.round_ends += 1;
    }
    fn on_finish(&mut self, stats: &RunStats) {
        self.finishes += 1;
        self.finished_stats = Some(*stats);
    }
}

#[test]
fn custom_observer_sees_every_delivered_message_under_every_engine() {
    let g = grid(7, 6);
    let plan = FaultPlan::new(41).with_drop_rate(0.2).with_delay(0.1, 3);
    for mode in [EngineMode::Sequential, EngineMode::Parallel { threads: 4 }] {
        let net = Network::new(&g).with_engine(mode).with_faults(plan.clone());
        let mut counter = CountingObserver::default();
        let run = net
            .run_with(
                Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), RetryConfig::default()),
                &mut counter,
            )
            .expect("observed run");
        // `on_message` fires once per *accepted* message — delayed ones
        // included, dropped ones not — which is exactly `stats.messages`.
        assert_eq!(counter.messages, run.stats.messages, "{mode:?}");
        assert_eq!(counter.bits, run.stats.total_bits, "{mode:?}");
        assert_eq!(counter.finishes, 1, "{mode:?}");
        assert_eq!(counter.finished_stats, Some(run.stats), "{mode:?}");
        // One end per executed round (trailing quiet rounds included — the
        // hook sees every loop iteration).
        assert!(counter.round_ends >= run.stats.rounds, "{mode:?}");
        assert!(run.stats.dropped > 0, "the plan should actually drop something");
    }
}

#[test]
fn tuple_composition_reaches_both_observers() {
    let g = path(9);
    let net = Network::new(&g);
    let mut a = CountingObserver::default();
    let mut b = CountingObserver::default();
    let run = net.run_with(FloodProtocol::instances(9, 0), (&mut a, &mut b)).expect("composed run");
    for (label, c) in [("left", &a), ("right", &b)] {
        assert_eq!(c.messages, run.stats.messages, "{label}");
        assert_eq!(c.finishes, 1, "{label}");
        assert_eq!(c.finished_stats, Some(run.stats), "{label}");
    }
}

//! `diameter_quantum` and `diameter_classical`: Lemma 21 and its classical
//! baseline on E9's graph family, `random_connected_m(n, 3n/2, seed)`.

use crate::trace::{secs, Spans, TimedProvider, TimedSource, CONGEST, FRAMEWORK};
use crate::workload::{Scale, Tally, Workload};
use crate::{mix, Stream};
use congest::bfs::{build_bfs_tree, elect_leader, source_eccentricities};
use congest::generators::random_connected_m;
use congest::graph::{Dist, Graph};
use congest::runtime::{EngineMode, Network, RoundLedger, PARALLEL_NODE_THRESHOLD};
use dqc_core::eccentricity::{
    classical_diameter_radius, quantum_diameter, quantum_radius, EccentricityProvider,
};
use dqc_core::framework::CongestOracle;
use pquery::minimum::{find_extremum, Extremum};
use pquery::oracle::BatchSource;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One seeded graph with its centralized ground truth.
#[derive(Debug)]
pub struct Instance {
    g: Graph,
    seed: u64,
    ecc: Vec<Dist>,
    diameter: Dist,
    radius: Dist,
}

/// A ledger summed per phase name, in first-seen order: the pinned form of
/// a driver's simulated statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    name: String,
    runs: u64,
    rounds: u64,
    msgs: u64,
    bits: u64,
}

fn phases(ledger: &RoundLedger) -> Vec<Phase> {
    let mut out: Vec<Phase> = Vec::new();
    for (name, s) in ledger.phases() {
        let i = match out.iter().position(|p| p.name == *name) {
            Some(i) => i,
            None => {
                out.push(Phase { name: name.clone(), runs: 0, rounds: 0, msgs: 0, bits: 0 });
                out.len() - 1
            }
        };
        let p = &mut out[i];
        p.runs += 1;
        p.rounds += s.rounds as u64;
        p.msgs += s.messages;
        p.bits += s.total_bits;
    }
    out
}

fn phase_pins(call: &str, ps: &[Phase]) -> Vec<String> {
    ps.iter()
        .map(|p| {
            format!(
                "{call} phase={} runs={} rounds={} msgs={} bits={}",
                p.name, p.runs, p.rounds, p.msgs, p.bits
            )
        })
        .collect()
}

fn build(n: usize, seed: u64, i: usize, sp: &mut Spans) -> Instance {
    let seed = mix(seed, Stream::Graph, i as u64);
    let g = sp.time("generators.busy_s", || random_connected_m(n, n + n / 2, seed));
    let ecc =
        sp.time("graph.truth_s", || g.eccentricities().expect("generator output is connected"));
    let diameter = *ecc.iter().max().expect("n >= 1");
    let radius = *ecc.iter().min().expect("n >= 1");
    Instance { g, seed, ecc, diameter, radius }
}

/// The engine every diameter run uses. `Auto` would pick the parallel
/// driver at n = 1600, whose per-round thread fan-out times the host's
/// scheduler more than the engine: on a shared 2-vCPU host a busy
/// neighbour on one vCPU slowed it 1.5–2×, and left the sequential engine
/// unchanged. The engines give identical results and statistics.
const ENGINE: EngineMode = EngineMode::Sequential;

fn network(g: &Graph) -> Network<'_> {
    Network::new(g).with_engine(ENGINE)
}

fn engine_lines(n: usize) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let auto = if n >= PARALLEL_NODE_THRESHOLD && cores > 1 {
        format!("Parallel {{ threads: {cores} }}")
    } else {
        "Sequential".to_string()
    };
    vec![
        (format!("engine Auto at n={n} (PARALLEL_NODE_THRESHOLD={PARALLEL_NODE_THRESHOLD})"), auto),
        ("engine used".to_string(), format!("{ENGINE:?}")),
    ]
}

/// Result of one diameter or radius call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extreme {
    node: usize,
    value: Dist,
    rounds: u64,
    batches: u64,
    phases: Vec<Phase>,
}

/// `quantum_diameter` + `quantum_radius` on one graph per iteration.
#[derive(Debug)]
pub struct QuantumDiameter {
    n: usize,
    graphs: usize,
}

impl QuantumDiameter {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => QuantumDiameter { n: 1600, graphs: 8 },
            Scale::Smoke => QuantumDiameter { n: 120, graphs: 2 },
        }
    }
}

/// `quantum_ecc_extremum` rebuilt from its public parts, with a span
/// around each layer call.
fn traced_extremum(
    net: &Network<'_>,
    dir: Extremum,
    seed: u64,
    sp: &mut Spans,
) -> Result<Extreme, String> {
    let provider = sp.time("graph.ecc_s", || EccentricityProvider::new(net.graph()));
    let mut oracle = sp
        .time("framework.setup_s", || {
            CongestOracle::setup(net, TimedProvider::new(provider), 1, seed)
        })
        .map_err(|e| e.to_string())?;
    let p = oracle.suggested_p();
    oracle.set_p(p);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0ecc_0ecc);
    let mut src = TimedSource::new(&mut oracle);
    let t = Instant::now();
    let out = find_extremum(&mut src, dir, &mut rng);
    sp.add("pquery.span_s", secs(t));
    sp.add("pquery.oracle_s", src.query_s);
    sp.add("framework.query_s", src.query_s);
    sp.add("pquery.peeks", src.peeks.get() as f64);
    sp.add("framework.alpha_s", oracle.provider().alpha_s);
    sp.add("pquery.batches", oracle.batches() as f64);
    sp.add("pquery.queries", oracle.queries() as f64);
    sp.add("pquery.slots", (p * oracle.batches()) as f64);
    let (rounds, batches) = (oracle.rounds() as u64, oracle.batches() as u64);
    let ledger = oracle.into_ledger();
    sp.ledger(&FRAMEWORK, net.graph().n(), &ledger);
    Ok(Extreme {
        node: out.index,
        value: out.value as Dist,
        rounds,
        batches,
        phases: phases(&ledger),
    })
}

impl Workload for QuantumDiameter {
    type Instance = Instance;
    type Output = [Extreme; 2];

    fn rotation(&self) -> usize {
        self.graphs
    }

    fn calls(&self) -> u64 {
        2
    }

    fn instance(&self, seed: u64, i: usize, sp: &mut Spans) -> Instance {
        build(self.n, seed, i, sp)
    }

    fn run(&self, inst: &mut Instance) -> Result<[Extreme; 2], String> {
        let net = network(&inst.g);
        let conv = |r: dqc_core::eccentricity::EccExtremeResult| Extreme {
            node: r.node,
            value: r.value,
            rounds: r.rounds as u64,
            batches: r.batches as u64,
            phases: phases(&r.ledger),
        };
        let d = quantum_diameter(&net, inst.seed).map_err(|e| e.to_string())?;
        let r = quantum_radius(&net, inst.seed).map_err(|e| e.to_string())?;
        Ok([conv(d), conv(r)])
    }

    fn run_traced(&self, inst: &mut Instance, sp: &mut Spans) -> Result<[Extreme; 2], String> {
        let net = network(&inst.g);
        let d = traced_extremum(&net, Extremum::Max, inst.seed, sp)?;
        let r = traced_extremum(&net, Extremum::Min, inst.seed, sp)?;
        Ok([d, r])
    }

    fn check(&self, inst: &Instance, out: &[Extreme; 2], t: &mut Tally) {
        t.attempted += 2;
        for (e, want, name) in
            [(&out[0], inst.diameter, "diameter"), (&out[1], inst.radius, "radius")]
        {
            if inst.ecc.get(e.node) != Some(&e.value) {
                t.error(
                    1,
                    format!(
                        "{name}: node {} has eccentricity {:?}, reported {}",
                        e.node,
                        inst.ecc.get(e.node),
                        e.value
                    ),
                );
            } else if e.value != want {
                // A real eccentricity that is not the extremum: Lemma 21's
                // bounded error (success probability ≥ 2/3).
                t.misses += 1;
            }
        }
    }

    fn work(&self, out: &[Extreme; 2]) -> (u64, u64) {
        (out[0].rounds + out[1].rounds, out[0].batches + out[1].batches)
    }

    fn pins(&self, out: &[Extreme; 2]) -> Vec<String> {
        let mut lines = Vec::new();
        for (e, call) in [(&out[0], "diameter"), (&out[1], "radius")] {
            lines.push(format!(
                "{call} node={} value={} rounds={} batches={}",
                e.node, e.value, e.rounds, e.batches
            ));
            lines.extend(phase_pins(call, &e.phases));
        }
        lines
    }

    fn self_times(&self) -> &'static [&'static str] {
        &[
            "graph.ecc_s",
            "framework.setup_s",
            "framework.transport_s",
            "framework.alpha_s",
            "pquery.self_s",
        ]
    }

    fn host(&self) -> Vec<(String, String)> {
        engine_lines(self.n)
    }
}

/// Output of the classical baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassicalOut {
    diameter: Dist,
    radius: Dist,
    rounds: u64,
    phases: Vec<Phase>,
}

/// `classical_diameter_radius` on one graph per iteration.
#[derive(Debug)]
pub struct ClassicalDiameter {
    n: usize,
    graphs: usize,
}

impl ClassicalDiameter {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => ClassicalDiameter { n: 1600, graphs: 8 },
            Scale::Smoke => ClassicalDiameter { n: 120, graphs: 2 },
        }
    }
}

impl Workload for ClassicalDiameter {
    type Instance = Instance;
    type Output = ClassicalOut;

    fn rotation(&self) -> usize {
        self.graphs
    }

    fn calls(&self) -> u64 {
        1
    }

    fn instance(&self, seed: u64, i: usize, sp: &mut Spans) -> Instance {
        build(self.n, seed, i, sp)
    }

    fn run(&self, inst: &mut Instance) -> Result<ClassicalOut, String> {
        let net = network(&inst.g);
        let (diameter, radius, rounds, ledger) =
            classical_diameter_radius(&net, inst.seed).map_err(|e| e.to_string())?;
        Ok(ClassicalOut { diameter, radius, rounds: rounds as u64, phases: phases(&ledger) })
    }

    /// `classical_diameter_radius` rebuilt from the `congest::bfs` drivers.
    fn run_traced(&self, inst: &mut Instance, sp: &mut Spans) -> Result<ClassicalOut, String> {
        let net = network(&inst.g);
        let n = inst.g.n();
        let t = Instant::now();
        let mut ledger = RoundLedger::new();
        let (leader, stats) = sp
            .time("congest.leader_s", || elect_leader(&net, inst.seed))
            .map_err(|e| e.to_string())?;
        ledger.record("setup/leader-election", stats);
        let tree = sp
            .time("congest.bfs_tree_s", || build_bfs_tree(&net, leader))
            .map_err(|e| e.to_string())?;
        ledger.record("setup/bfs-tree", tree.stats);
        let all: Vec<usize> = (0..n).collect();
        let (ecc, stats) = sp
            .time("congest.all_sources_s", || source_eccentricities(&net, &tree, &all))
            .map_err(|e| e.to_string())?;
        ledger.record("all-sources-ecc", stats);
        sp.add("congest.engine_s", secs(t));
        sp.ledger(&CONGEST, n, &ledger);
        Ok(ClassicalOut {
            diameter: *ecc.iter().max().expect("n >= 1"),
            radius: *ecc.iter().min().expect("n >= 1"),
            rounds: ledger.total_rounds() as u64,
            phases: phases(&ledger),
        })
    }

    fn check(&self, inst: &Instance, out: &ClassicalOut, t: &mut Tally) {
        t.attempted += 1;
        if (out.diameter, out.radius) != (inst.diameter, inst.radius) {
            t.error(
                1,
                format!(
                    "classical (D, R) = ({}, {}), ground truth ({}, {})",
                    out.diameter, out.radius, inst.diameter, inst.radius
                ),
            );
        }
    }

    fn work(&self, out: &ClassicalOut) -> (u64, u64) {
        (out.rounds, 0)
    }

    fn pins(&self, out: &ClassicalOut) -> Vec<String> {
        let mut lines = vec![format!(
            "classical diameter={} radius={} rounds={}",
            out.diameter, out.radius, out.rounds
        )];
        lines.extend(phase_pins("classical", &out.phases));
        lines
    }

    fn self_times(&self) -> &'static [&'static str] {
        &["congest.leader_s", "congest.bfs_tree_s", "congest.all_sources_s"]
    }

    fn host(&self) -> Vec<(String, String)> {
        engine_lines(self.n)
    }
}

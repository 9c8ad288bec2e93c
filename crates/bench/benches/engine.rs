//! Engine micro-benchmarks: the round loop itself, isolated from any
//! quantum protocol logic.
//!
//! Three engine-bound workloads (token flood, repeated broadcast, BFS tree
//! construction) across four topologies (path, grid, bounded-degree random,
//! hub star) at n ∈ {64, 512, 4096}. Every network runs the sequential
//! sweep (`EngineMode::Sequential`), so each cell times the same code on
//! any host, whatever its core count. `BENCH_engine.json` at the repo root
//! records before/after medians for the zero-alloc routing rewrite; regen
//! with:
//!
//! ```text
//! CRITERION_JSON_OUT=/tmp/engine.json cargo bench -p dqc-bench --bench engine
//! ```

use congest::bfs::BfsTreeProtocol;
use congest::generators::{grid, path, random_connected_m, star};
use congest::graph::{Graph, NodeId};
use congest::runtime::{Ctx, EngineMode, MessageSize, Network, NodeProtocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A one-bit token flooded outward from node 0.
#[derive(Clone, Debug)]
struct Token;

impl MessageSize for Token {
    fn size_bits(&self) -> u64 {
        1
    }
}

#[derive(Debug)]
struct Flood {
    has_token: bool,
    forwarded: bool,
}

impl NodeProtocol for Flood {
    type Msg = Token;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Token>, inbox: &[(NodeId, Token)]) {
        if !inbox.is_empty() {
            self.has_token = true;
        }
        if self.has_token && !self.forwarded {
            ctx.broadcast(Token);
            self.forwarded = true;
        }
    }
    fn is_done(&self) -> bool {
        self.forwarded
    }
}

fn flood_nodes(n: usize) -> Vec<Flood> {
    (0..n).map(|v| Flood { has_token: v == 0, forwarded: false }).collect()
}

/// A 16-bit value broadcast by every node in every one of `rounds` rounds —
/// the delivery-path stress test (all cost is in routing and accounting).
#[derive(Clone, Debug)]
struct Beacon(u16);

impl MessageSize for Beacon {
    fn size_bits(&self) -> u64 {
        16
    }
}

#[derive(Debug)]
struct Chatter {
    rounds_left: usize,
    heard: u64,
}

impl NodeProtocol for Chatter {
    type Msg = Beacon;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Beacon>, inbox: &[(NodeId, Beacon)]) {
        for (_, beacon) in inbox {
            self.heard = self.heard.wrapping_add(beacon.0 as u64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.broadcast(Beacon(ctx.round() as u16));
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

fn chatter_nodes(n: usize, rounds: usize) -> Vec<Chatter> {
    (0..n).map(|_| Chatter { rounds_left: rounds, heard: 0 }).collect()
}

const CHATTER_ROUNDS: usize = 8;

fn topologies(n: usize) -> Vec<(&'static str, Graph)> {
    let side = (n as f64).sqrt().round() as usize;
    vec![
        ("path", path(n)),
        ("grid", grid(side, n / side)),
        ("random", random_connected_m(n, 4 * n, 0xBE ^ n as u64)),
        ("star", star(n)),
    ]
}

fn bench_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_flood");
    group.sample_size(10);
    for n in [64usize, 512, 4096] {
        for (name, g) in topologies(n) {
            // The grid rounds n to side·rows; size protocols off the graph.
            let nn = g.n();
            let net = Network::new(&g).with_engine(EngineMode::Sequential);
            group.bench_with_input(BenchmarkId::new(name, format!("n{n}")), &nn, |b, &nn| {
                b.iter(|| net.run(flood_nodes(nn)).unwrap().stats)
            });
        }
    }
    group.finish();
}

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_broadcast");
    group.sample_size(10);
    for n in [64usize, 512, 4096] {
        for (name, g) in topologies(n) {
            // The star hub would exceed any per-edge cap only if a single
            // edge carried more than one beacon per round; it does not, but
            // the default cap (4⌈log n⌉) is below the 16-bit beacon on tiny
            // n, so raise the cap uniformly.
            let nn = g.n();
            let net = Network::new(&g).with_bandwidth(64).with_engine(EngineMode::Sequential);
            group.bench_with_input(BenchmarkId::new(name, format!("n{n}")), &nn, |b, &nn| {
                b.iter(|| net.run(chatter_nodes(nn, CHATTER_ROUNDS)).unwrap().stats)
            });
        }
    }
    group.finish();
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_bfs");
    group.sample_size(10);
    for n in [64usize, 512, 4096] {
        for (name, g) in topologies(n) {
            if name == "path" && n > 512 {
                // BFS over a length-n path is n rounds of mostly idle
                // nodes — minutes of wall-clock for no extra signal.
                continue;
            }
            let nn = g.n();
            let net = Network::new(&g).with_engine(EngineMode::Sequential);
            group.bench_with_input(BenchmarkId::new(name, format!("n{n}")), &nn, |b, &nn| {
                b.iter(|| net.run(BfsTreeProtocol::instances(nn, 0)).unwrap().stats)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_flood, bench_broadcast, bench_bfs);
criterion_main!(benches);

//! Lemma 20's pipeline against reference copies of its protocols.
//!
//! `RefMultiBfs` and `RefEccAggregate` keep the original formulations of
//! [`MultiBfsProtocol`] and [`EccAggregateProtocol`]: an ordered set of
//! pending `(dist, source)` announcements with eager removal, and an
//! ordered set of sources ready to send up with per-source sent/forwarded
//! flags. The library versions use lazily-pruned priority queues instead;
//! both must send the same messages on the same edges in the same rounds,
//! so every comparison here is exact: results, [`RunStats`], the per-round
//! samples and whole exports of a [`Collector`], and the log of every
//! delivered message, under each engine.

use congest::bfs::{
    build_bfs_tree, multi_source_bfs, source_eccentricities, EccAggregateProtocol, EccMsg,
    MultiBfsMsg, MultiBfsProtocol, TreeView,
};
use congest::generators::{path, random_connected_m};
use congest::graph::{Dist, Graph, NodeId};
use congest::runtime::{Ctx, EngineMode, Network, NodeProtocol, RunObserver, RunStats};
use congest::telemetry::{Collector, RoundSample};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

/// The multi-source BFS with an eagerly-pruned `BTreeSet` of pending
/// announcements.
#[derive(Debug)]
struct RefMultiBfs {
    best: Vec<Dist>,
    pending: BTreeSet<(Dist, usize)>,
}

impl RefMultiBfs {
    fn instances(n: usize, sources: &[NodeId]) -> Vec<Self> {
        (0..n)
            .map(|v| {
                let mut best = vec![Dist::MAX; sources.len()];
                let mut pending = BTreeSet::new();
                for (i, &src) in sources.iter().enumerate() {
                    if src == v {
                        best[i] = 0;
                        pending.insert((0, i));
                    }
                }
                RefMultiBfs { best, pending }
            })
            .collect()
    }
}

impl NodeProtocol for RefMultiBfs {
    type Msg = MultiBfsMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, MultiBfsMsg>, inbox: &[(NodeId, MultiBfsMsg)]) {
        for (_, msg) in inbox {
            let through = msg.dist + 1;
            if through < self.best[msg.src] {
                self.pending.remove(&(self.best[msg.src], msg.src));
                self.best[msg.src] = through;
                self.pending.insert((through, msg.src));
            }
        }
        while let Some(&(d, i)) = self.pending.iter().next() {
            self.pending.remove(&(d, i));
            if self.best[i] == d {
                ctx.broadcast(MultiBfsMsg { src: i, dist: d });
                break;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.pending.is_empty()
    }
}

/// The eccentricity convergecast with a `BTreeSet` ready queue and
/// per-source sent/forwarded flags.
#[derive(Debug)]
struct RefEccAggregate {
    tree: TreeView,
    my_dist: Vec<Dist>,
    acc: Vec<Dist>,
    missing: Vec<usize>,
    ready_up: BTreeSet<usize>,
    sent_up: Vec<bool>,
    ecc: Vec<Option<Dist>>,
    down_queue: VecDeque<(usize, Dist)>,
    forwarded_down: Vec<bool>,
}

impl RefEccAggregate {
    fn instances(views: &[TreeView], dists: &[Vec<Dist>]) -> Vec<Self> {
        let s = dists.first().map_or(0, |d| d.len());
        views
            .iter()
            .zip(dists)
            .map(|(view, my_dist)| {
                let nc = view.children.len();
                RefEccAggregate {
                    tree: view.clone(),
                    my_dist: my_dist.clone(),
                    acc: my_dist.clone(),
                    missing: vec![nc; s],
                    ready_up: if nc == 0 { (0..s).collect() } else { BTreeSet::new() },
                    sent_up: vec![false; s],
                    ecc: vec![None; s],
                    down_queue: VecDeque::new(),
                    forwarded_down: vec![false; s],
                }
            })
            .collect()
    }

    fn is_root(&self) -> bool {
        self.tree.parent.is_none()
    }
}

impl NodeProtocol for RefEccAggregate {
    type Msg = EccMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, EccMsg>, inbox: &[(NodeId, EccMsg)]) {
        let s = self.my_dist.len();
        for (_, msg) in inbox {
            match *msg {
                EccMsg::Up { src, max } => {
                    self.acc[src] = self.acc[src].max(max);
                    self.missing[src] -= 1;
                    if self.missing[src] == 0 {
                        if self.is_root() {
                            self.ecc[src] = Some(self.acc[src]);
                            self.down_queue.push_back((src, self.acc[src]));
                        } else {
                            self.ready_up.insert(src);
                        }
                    }
                }
                EccMsg::Down { src, ecc } => {
                    self.ecc[src] = Some(ecc);
                    self.down_queue.push_back((src, ecc));
                }
            }
        }
        if self.is_root() && ctx.round() == 0 {
            for src in 0..s {
                if self.missing[src] == 0 {
                    self.ecc[src] = Some(self.acc[src]);
                    self.down_queue.push_back((src, self.acc[src]));
                }
            }
        }
        if let Some(p) = self.tree.parent {
            if let Some(&src) = self.ready_up.iter().next() {
                self.ready_up.remove(&src);
                if !self.sent_up[src] {
                    self.sent_up[src] = true;
                    ctx.send(p, EccMsg::Up { src, max: self.acc[src] });
                }
            }
        }
        if let Some((src, ecc)) = self.down_queue.pop_front() {
            if !self.forwarded_down[src] {
                self.forwarded_down[src] = true;
                for &c in &self.tree.children.clone() {
                    ctx.send(c, EccMsg::Down { src, ecc });
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.ecc.iter().all(|e| e.is_some()) && self.down_queue.is_empty()
    }
}

/// Every delivered message as `(round, from, to, bits)`, in engine order.
#[derive(Debug, Default, PartialEq, Eq)]
struct MessageLog(Vec<(usize, NodeId, NodeId, u64)>);

impl RunObserver for &mut MessageLog {
    fn observes_messages(&self) -> bool {
        true
    }

    fn on_message(&mut self, round: usize, from: NodeId, to: NodeId, bits: u64) {
        self.0.push((round, from, to, bits));
    }
}

/// What one run exposes to the comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observed<T> {
    result: T,
    stats: RunStats,
    samples: Vec<RoundSample>,
    /// The collector's trace and metrics exports.
    exports: (String, String),
    log: MessageLog,
}

fn observe<P, T>(net: &Network<'_>, nodes: Vec<P>, result: impl Fn(Vec<P>) -> T) -> Observed<T>
where
    P: NodeProtocol + Send,
    P::Msg: Send + Sync,
{
    let mut col = Collector::new();
    let mut log = MessageLog::default();
    let run = net.run_with(nodes, (&mut col, &mut log)).expect("run completes");
    Observed {
        result: result(run.nodes),
        stats: run.stats,
        samples: col.round_samples().to_vec(),
        exports: (col.to_chrome_jsonl(), col.metrics_json()),
        log,
    }
}

const ENGINES: [EngineMode; 2] = [EngineMode::Sequential, EngineMode::Parallel { threads: 2 }];

/// Every engine's observation of the library protocol must be identical.
fn assert_engines_agree<T: PartialEq + std::fmt::Debug>(per_engine: &[Observed<T>], what: &str) {
    for (engine, got) in ENGINES.iter().zip(per_engine).skip(1) {
        assert_eq!(got, &per_engine[0], "{what}: {engine:?} diverged from {:?}", ENGINES[0]);
    }
}

fn assert_multi_bfs_matches_reference(g: &Graph, sources: &[NodeId]) {
    let mut per_engine = Vec::new();
    for engine in ENGINES {
        let net = Network::new(g).with_engine(engine);
        let want = observe(&net, RefMultiBfs::instances(g.n(), sources), |nodes| {
            nodes.into_iter().map(|p| p.best).collect::<Vec<_>>()
        });
        let got = observe(&net, MultiBfsProtocol::instances(g.n(), sources), |nodes| {
            nodes.iter().map(|p| p.distances().to_vec()).collect::<Vec<_>>()
        });
        assert_eq!(got, want, "multi-BFS diverged: {engine:?}, sources {sources:?}");
        let driver = multi_source_bfs(&net, sources).expect("driver run");
        assert_eq!((driver.dist, driver.stats), (want.result, want.stats));
        per_engine.push(got);
    }
    assert_engines_agree(&per_engine, &format!("multi-BFS, sources {sources:?}"));
}

fn assert_ecc_aggregate_matches_reference(g: &Graph, root: NodeId, sources: &[NodeId]) {
    let mut per_engine = Vec::new();
    for engine in ENGINES {
        let net = Network::new(g).with_engine(engine);
        let tree = build_bfs_tree(&net, root).expect("connected graph");
        let mbfs = multi_source_bfs(&net, sources).expect("multi-BFS run");
        let want = observe(&net, RefEccAggregate::instances(&tree.views, &mbfs.dist), |nodes| {
            nodes.into_iter().map(|p| p.ecc).collect::<Vec<_>>()
        });
        let got = observe(&net, EccAggregateProtocol::instances(&tree.views, mbfs.dist), |n| {
            n.iter().map(|p| p.eccentricities().to_vec()).collect::<Vec<_>>()
        });
        assert_eq!(got, want, "aggregation diverged: {engine:?}, sources {sources:?}");
        let (ecc, stats) = source_eccentricities(&net, &tree, sources).expect("Lemma 20 run");
        let mut want_stats = mbfs.stats;
        want_stats.absorb(want.stats);
        assert_eq!(stats, want_stats);
        let root_ecc: Vec<Option<Dist>> = ecc.into_iter().map(Some).collect();
        assert_eq!(root_ecc, want.result[root]);
        per_engine.push(got);
    }
    assert_engines_agree(&per_engine, &format!("aggregation, sources {sources:?}"));
}

/// A graph on 2..40 nodes, connected unless `disconnect` cuts one node off.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0usize..3, 0u64..500, any::<bool>()).prop_map(|(n, density, seed, disconnect)| {
        let extra = [0, n / 3, n][density].min((n - 1) * (n - 2) / 2);
        let g = random_connected_m(n, n - 1 + extra, seed);
        if !disconnect {
            return g;
        }
        let cut = seed as usize % n;
        let kept = g.edges().iter().copied().filter(|&(u, v)| u != cut && v != cut);
        Graph::from_edges(n, kept).expect("subgraph of a simple graph")
    })
}

/// Up to `n` sources, duplicates allowed (more would exceed the `O(log n)`
/// bandwidth cap with their ranks).
fn sources_from(g: &Graph, picks: &[usize]) -> Vec<NodeId> {
    picks.iter().take(g.n()).map(|p| p % g.n()).collect()
}

/// A connected graph on `n` nodes with about `n/2` edges beyond a tree.
fn sparse_connected(n: usize, seed: u64) -> Graph {
    random_connected_m(n, n - 1 + (n / 2).min((n - 1) * (n - 2) / 2), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn multi_bfs_matches_btreeset_reference(
        g in arb_graph(),
        picks in proptest::collection::vec(0usize..1000, 0..24),
    ) {
        assert_multi_bfs_matches_reference(&g, &sources_from(&g, &picks));
    }

    #[test]
    fn multi_bfs_all_sources_matches_reference(n in 2usize..48, seed in 0u64..500) {
        let g = sparse_connected(n, seed);
        let all: Vec<NodeId> = (0..n).collect();
        assert_multi_bfs_matches_reference(&g, &all);
    }

    #[test]
    fn ecc_aggregate_matches_reference(
        // At n = 2 the BFS-tree construction itself overflows the cap.
        n in 3usize..40,
        seed in 0u64..500,
        root_pick in 0usize..1000,
        picks in proptest::collection::vec(0usize..1000, 0..24),
    ) {
        let g = sparse_connected(n, seed);
        assert_ecc_aggregate_matches_reference(&g, root_pick % n, &sources_from(&g, &picks));
    }
}

#[test]
fn high_diameter_all_sources_match_reference() {
    let g = path(60);
    let all: Vec<NodeId> = (0..60).collect();
    assert_multi_bfs_matches_reference(&g, &all);
    assert_ecc_aggregate_matches_reference(&g, 17, &all);
}

#[test]
fn empty_source_list() {
    let g = random_connected_m(12, 16, 3);
    assert_multi_bfs_matches_reference(&g, &[]);
    assert_ecc_aggregate_matches_reference(&g, 0, &[]);
    let net = Network::new(&g);
    let mbfs = multi_source_bfs(&net, &[]).unwrap();
    assert!(mbfs.dist.iter().all(Vec::is_empty));
    assert_eq!(mbfs.stats, RunStats::default());
    let tree = build_bfs_tree(&net, 0).unwrap();
    let (ecc, stats) = source_eccentricities(&net, &tree, &[]).unwrap();
    assert!(ecc.is_empty());
    assert_eq!(stats, RunStats::default());
}

#[test]
fn duplicate_sources() {
    let g = random_connected_m(15, 20, 8);
    let sources = [4, 4, 9, 4, 0, 9];
    assert_multi_bfs_matches_reference(&g, &sources);
    assert_ecc_aggregate_matches_reference(&g, 2, &sources);
    let net = Network::new(&g);
    let mbfs = multi_source_bfs(&net, &sources).unwrap();
    let tree = build_bfs_tree(&net, 2).unwrap();
    let (ecc, _) = source_eccentricities(&net, &tree, &sources).unwrap();
    for (i, &s) in sources.iter().enumerate() {
        let got: Vec<Option<Dist>> = mbfs.dist.iter().map(|row| Some(row[i])).collect();
        assert_eq!(got, g.bfs_distances(s));
        assert_eq!(Some(ecc[i]), g.eccentricity(s));
    }
}

#[test]
fn single_node() {
    let g = path(1);
    for sources in [&[][..], &[0], &[0, 0]] {
        assert_multi_bfs_matches_reference(&g, sources);
        assert_ecc_aggregate_matches_reference(&g, 0, sources);
        let net = Network::new(&g);
        let mbfs = multi_source_bfs(&net, sources).unwrap();
        assert_eq!(mbfs.dist, vec![vec![0; sources.len()]]);
        assert_eq!(mbfs.stats.messages, 0);
        let tree = build_bfs_tree(&net, 0).unwrap();
        let (ecc, stats) = source_eccentricities(&net, &tree, sources).unwrap();
        assert_eq!(ecc, vec![0; sources.len()]);
        assert_eq!(stats.messages, 0);
    }
}

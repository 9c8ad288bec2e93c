//! The synchronous round engine.
//!
//! The (Quantum) CONGEST model proceeds in synchronous rounds: in each round
//! every node may send one message of `O(log n)` (qu)bits to each neighbor,
//! then receives its neighbors' messages and performs unlimited local
//! computation. The engine executes a per-node state machine
//! ([`NodeProtocol`]) round by round, enforces the per-edge bandwidth cap,
//! and counts rounds — the measured quantity in every experiment.
//!
//! Determinism: the engine itself is deterministic; protocols that need
//! randomness own a seeded RNG, so a whole run is reproducible from its
//! seeds. The parallel engine ([`EngineMode`]) preserves this bit for bit:
//! nodes are partitioned into contiguous [`NodeId`] chunks, each worker
//! processes its chunk in id order, and the per-chunk results (outgoing
//! messages, statistics, first error) are merged back in chunk order — so
//! every observable output equals the sequential engine's. See
//! `DESIGN.md`, "Engine internals".

use crate::conformance::Violation;
use crate::faults::{Delivery, FaultPlan};
use crate::graph::{bits_for, Graph, NodeId};
use crate::telemetry::Shard;
use std::collections::VecDeque;
use std::fmt;

/// Size accounting for protocol messages.
///
/// Every message declares its size in (qu)bits; the engine sums sizes per
/// directed edge per round and rejects the run if any edge exceeds the cap.
/// Quantum payloads (e.g. the register chunks of Lemma 7) report their size
/// in qubits; the model treats classical bits and qubits identically for
/// bandwidth purposes.
pub trait MessageSize {
    /// The number of (qu)bits this message occupies on a link.
    fn size_bits(&self) -> u64;
}

/// A per-node protocol state machine.
///
/// One value of the implementing type exists per node. The engine calls
/// [`on_round`](Self::on_round) for every node in every round (round 0
/// delivers an empty inbox), collecting outgoing messages through
/// [`Ctx`].
pub trait NodeProtocol {
    /// Message type exchanged by this protocol.
    type Msg: Clone + MessageSize;

    /// One synchronous round: react to `inbox` (messages sent to this node
    /// in the previous round) and queue outgoing messages on `ctx`.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[(NodeId, Self::Msg)]);

    /// Whether this node has finished its part of the protocol. The run
    /// ends when every node is done and no messages are in flight.
    fn is_done(&self) -> bool;

    /// An error this node wants to abort the run with.
    ///
    /// The engine polls every node after each round (in node-id order, so
    /// the first failing node determines the error deterministically) and
    /// aborts the run with the reported error. The default never fails;
    /// wrappers like [`Reliable`](crate::faults::Reliable) use this to
    /// surface exhausted retry budgets as clean [`RuntimeError`]s instead
    /// of hanging until the round limit.
    fn failure(&self) -> Option<RuntimeError> {
        None
    }
}

/// Per-round context handed to a node: identity, topology view, and the
/// outbox.
///
/// A node only sees its own id, its neighbor list, and the global constants
/// `n` and the bandwidth cap — exactly the initial knowledge the CONGEST
/// model grants.
pub struct Ctx<'a, M> {
    me: NodeId,
    // (fields documented on the accessors)
    round: usize,
    n: usize,
    cap_bits: u64,
    neighbors: &'a [NodeId],
    out: &'a mut Vec<(NodeId, M)>,
    /// Telemetry staging buffer; `None` on untelemetered runs, so the
    /// instrumentation methods compile to a null check.
    tel: Option<&'a mut Shard>,
}

impl<M> fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").field("me", &self.me).field("round", &self.round).finish()
    }
}

impl<'a, M: MessageSize> Ctx<'a, M> {
    /// Crate-internal constructor for wrappers (e.g.
    /// [`Reliable`](crate::faults::Reliable)) that run an inner protocol's
    /// round against their own outbox buffer.
    pub(crate) fn internal(
        me: NodeId,
        round: usize,
        n: usize,
        cap_bits: u64,
        neighbors: &'a [NodeId],
        out: &'a mut Vec<(NodeId, M)>,
        tel: Option<&'a mut Shard>,
    ) -> Self {
        Ctx { me, round, n, cap_bits, neighbors, out, tel }
    }

    /// Reborrow this context's telemetry buffer so a wrapper (e.g.
    /// [`Reliable`](crate::faults::Reliable)) can hand it to an inner
    /// protocol's context.
    pub(crate) fn tel_shard(&mut self) -> Option<&mut Shard> {
        self.tel.as_deref_mut()
    }

    /// This node's identifier.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Total number of nodes (global knowledge in the model).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-edge per-round bandwidth cap in (qu)bits.
    #[inline]
    pub fn cap_bits(&self) -> u64 {
        self.cap_bits
    }

    /// The sorted neighbor list of this node.
    #[inline]
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// Queue `msg` for delivery to neighbor `to` at the start of the next
    /// round.
    ///
    /// The engine validates that `to` is a neighbor and that the edge's
    /// bandwidth cap is respected; violations abort the run with an error
    /// rather than silently producing an unfaithful round count.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push((to, msg));
    }

    /// Queue `msg` to every neighbor.
    ///
    /// The final neighbor receives `msg` itself; only the first
    /// `degree - 1` deliveries pay for a clone.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        if let Some((&last, rest)) = self.neighbors.split_last() {
            self.out.reserve(self.neighbors.len());
            for &w in rest {
                self.out.push((w, msg.clone()));
            }
            self.out.push((last, msg));
        }
    }

    /// Emit an instant telemetry event at this node and round (e.g.
    /// `"became-leader"`). No-op unless the run records telemetry.
    #[inline]
    pub fn mark(&mut self, label: &str) {
        if let Some(t) = self.tel.as_deref_mut() {
            t.marks.push((self.me, label.to_string()));
        }
    }

    /// Add `v` to a named telemetry counter (e.g.
    /// `("reliable.retries", 1)`). No-op unless the run records telemetry;
    /// the static name means the disabled path allocates nothing.
    #[inline]
    pub fn count(&mut self, name: &'static str, v: u64) {
        if let Some(t) = self.tel.as_deref_mut() {
            t.counts.push((name, v));
        }
    }

    /// Record `v` in a named telemetry histogram (e.g. a backoff wait in
    /// rounds). No-op unless the run records telemetry.
    #[inline]
    pub fn observe(&mut self, name: &'static str, v: u64) {
        if let Some(t) = self.tel.as_deref_mut() {
            t.observations.push((name, v));
        }
    }
}

/// Why a run was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum RuntimeError {
    /// A node addressed a message to a non-neighbor.
    NotANeighbor { round: usize, from: NodeId, to: NodeId },
    /// The traffic on a directed edge exceeded the cap in some round.
    BandwidthExceeded { round: usize, from: NodeId, to: NodeId, bits: u64, cap: u64 },
    /// The protocol did not terminate within the round limit. The other
    /// fields describe the state at the limit: the last round in which a
    /// message was sent or a delayed one matured (`None` if the run never
    /// communicated), how many nodes were not done and the lowest-id one,
    /// and the messages still waiting in inboxes or the delay wheel.
    RoundLimitExceeded {
        limit: usize,
        last_active_round: Option<usize>,
        not_done: usize,
        first_not_done: Option<NodeId>,
        in_flight: usize,
    },
    /// The number of protocol instances does not match the node count.
    WrongNodeCount { expected: usize, got: usize },
    /// A [`Reliable`](crate::faults::Reliable) link exhausted its
    /// retransmission budget without receiving an acknowledgement.
    RetryBudgetExhausted { round: usize, from: NodeId, to: NodeId, attempts: u32 },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NotANeighbor { round, from, to } => {
                write!(f, "round {round}: node {from} sent to non-neighbor {to}")
            }
            RuntimeError::BandwidthExceeded { round, from, to, bits, cap } => {
                write!(f, "round {round}: edge {from}->{to} carried {bits} bits, cap is {cap}")
            }
            RuntimeError::RoundLimitExceeded {
                limit,
                last_active_round,
                not_done,
                first_not_done,
                in_flight,
            } => {
                write!(f, "protocol did not terminate within {limit} rounds (last active round ")?;
                match last_active_round {
                    Some(r) => write!(f, "{r}")?,
                    None => f.write_str("none")?,
                }
                write!(f, "; {not_done} node(s) not done")?;
                if let Some(v) = first_not_done {
                    write!(f, ", first {v}")?;
                }
                write!(f, "; {in_flight} message(s) in flight)")
            }
            RuntimeError::WrongNodeCount { expected, got } => {
                write!(f, "expected {expected} protocol instances, got {got}")
            }
            RuntimeError::RetryBudgetExhausted { round, from, to, attempts } => write!(
                f,
                "round {round}: link {from}->{to} gave up after {attempts} unacknowledged attempts"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Aggregate statistics of one protocol run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of communication rounds used (index of the last round in
    /// which any message was in flight, plus one).
    pub rounds: usize,
    /// Total number of messages delivered (immediately or after an
    /// injected delay; dropped messages are not counted here).
    pub messages: u64,
    /// Total (qu)bits delivered.
    pub total_bits: u64,
    /// The largest per-edge per-round load observed, in (qu)bits. Counts
    /// *offered* traffic — messages a fault plan later dropped still loaded
    /// the edge when they were sent.
    pub max_edge_bits: u64,
    /// Messages lost to fault injection (drops, link-down intervals, and
    /// degraded-cap overflow). Always 0 without a fault plan.
    pub dropped: u64,
}

impl RunStats {
    /// Merge stats of a subsequent phase into this one (rounds add up).
    pub fn absorb(&mut self, other: RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_edge_bits = self.max_edge_bits.max(other.max_edge_bits);
        self.dropped += other.dropped;
    }
}

/// One round's aggregate accounting, handed to
/// [`RunObserver::on_round_end`] and kept by a
/// [`Collector`](crate::telemetry::Collector) as a
/// [`RoundSample`](crate::telemetry::RoundSample).
///
/// # Examples
///
/// ```
/// use congest::bfs::BfsTreeProtocol;
/// use congest::generators::path;
/// use congest::runtime::Network;
/// use congest::telemetry::Collector;
///
/// let g = path(6);
/// let mut col = Collector::new();
/// let out = Network::new(&g).run_with(BfsTreeProtocol::instances(6, 0), &mut col)?;
/// let samples = col.round_samples();
/// assert_eq!(samples.len(), out.stats.rounds);
/// // The round with the most bits; `min_by_key` keeps the first of a tie.
/// let peak = samples.iter().min_by_key(|s| std::cmp::Reverse(s.trace.bits)).unwrap();
/// assert!(peak.trace.bits > 0 && peak.trace.busiest_edge.is_some());
/// # Ok::<(), congest::runtime::RuntimeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Messages sent this round that will be delivered (possibly late,
    /// under a delaying fault plan).
    pub messages: u64,
    /// Total (qu)bits in those messages.
    pub bits: u64,
    /// The most loaded directed edge `(from, to, bits)` this round, by
    /// offered traffic.
    pub busiest_edge: Option<(NodeId, NodeId, u64)>,
    /// Messages sent this round that fault injection discarded.
    pub dropped: u64,
}

/// How the engine executes each round's `on_round` calls.
///
/// All modes produce bit-identical results (statistics, traces, final node
/// states, and the first error of a failing run); the mode only chooses how
/// the work is scheduled onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Parallelize when the network is large enough to amortize the
    /// per-round thread fan-out ([`PARALLEL_NODE_THRESHOLD`] nodes) and the
    /// host has more than one core; otherwise run sequentially.
    #[default]
    Auto,
    /// Always run the single-threaded engine.
    Sequential,
    /// Always fan out across `threads` workers (clamped to at least 1).
    Parallel {
        /// Number of worker threads per round.
        threads: usize,
    },
}

/// Minimum node count at which [`EngineMode::Auto`] parallelizes.
///
/// Below this, a round's work is comparable to the cost of spawning the
/// scoped worker threads, so the sequential engine wins.
pub const PARALLEL_NODE_THRESHOLD: usize = 256;

/// A CONGEST network: a topology plus execution parameters.
///
/// # Examples
///
/// ```
/// use congest::generators::path;
/// use congest::runtime::Network;
///
/// let g = path(8);
/// let net = Network::new(&g);
/// assert!(net.cap_bits() >= 3); // at least ⌈log₂ n⌉
/// ```
#[derive(Debug, Clone)]
pub struct Network<'g> {
    graph: &'g Graph,
    cap_bits: u64,
    max_rounds: usize,
    engine: EngineMode,
    faults: Option<FaultPlan>,
}

/// Default bandwidth multiplier: each link carries up to
/// `DEFAULT_BANDWIDTH_FACTOR · ⌈log₂ n⌉` (qu)bits per round, the constant in
/// the model's `O(log n)` message size. A factor of 4 lets one message carry
/// a tag, a node id, a distance, and a value word without artificial
/// fragmentation.
pub const DEFAULT_BANDWIDTH_FACTOR: u64 = 4;

impl<'g> Network<'g> {
    /// A network over `graph` with the default bandwidth cap
    /// (`4⌈log₂ n⌉` bits) and a generous round limit.
    pub fn new(graph: &'g Graph) -> Self {
        let cap = DEFAULT_BANDWIDTH_FACTOR * bits_for(graph.n().saturating_sub(1) as u64);
        Network {
            graph,
            cap_bits: cap,
            max_rounds: 1_000_000,
            engine: EngineMode::Auto,
            faults: None,
        }
    }

    /// Override the per-edge per-round bandwidth cap.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn with_bandwidth(mut self, bits: u64) -> Self {
        assert!(bits > 0, "bandwidth cap must be positive");
        self.cap_bits = bits;
        self
    }

    /// Override the round limit after which a run is aborted.
    pub fn with_round_limit(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Select how rounds are executed (default: [`EngineMode::Auto`]).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// The configured execution mode.
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// Attach a deterministic fault plan; subsequent runs inject its drops,
    /// outages, degradations, and delays at delivery time. See
    /// [`faults`](crate::faults) for the semantics and the determinism
    /// contract.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The worker count a run over `n_nodes` nodes would use right now.
    fn effective_threads(&self, n_nodes: usize) -> usize {
        let raw = match self.engine {
            EngineMode::Sequential => 1,
            EngineMode::Parallel { threads } => threads,
            EngineMode::Auto => {
                if n_nodes >= PARALLEL_NODE_THRESHOLD {
                    std::thread::available_parallelism().map_or(1, |p| p.get())
                } else {
                    1
                }
            }
        };
        raw.clamp(1, n_nodes.max(1))
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The per-edge per-round bandwidth cap in (qu)bits.
    pub fn cap_bits(&self) -> u64 {
        self.cap_bits
    }

    /// Execute `nodes[v]` as the protocol instance at node `v` until every
    /// node is done and no messages are in flight.
    ///
    /// Scheduling follows [`with_engine`](Self::with_engine); every mode
    /// yields bit-identical results. To record violations or telemetry
    /// alongside the run, use [`run_with`](Self::run_with).
    ///
    /// # Errors
    ///
    /// Returns an error if a node sends to a non-neighbor, an edge exceeds
    /// the bandwidth cap, the round limit is hit, or `nodes.len() != n`.
    pub fn run<P>(&self, nodes: Vec<P>) -> Result<RunOutput<P>, RuntimeError>
    where
        P: NodeProtocol + Send,
        P::Msg: Send + Sync,
    {
        self.run_with(nodes, ())
    }

    /// [`run`](Self::run) with a caller-supplied [`RunObserver`] pipeline.
    ///
    /// The two built-in observers and any custom observer compose with
    /// nested `(A, B)` tuples:
    ///
    /// * `&mut Vec<Violation>` runs in *audit mode*: model breaches
    ///   (bandwidth-cap overflow, non-neighbor sends) are recorded as
    ///   [`Violation`]s with round/edge provenance instead of aborting the
    ///   run, in deterministic (round, then sender) order under every
    ///   engine. Audited cap overflows still deliver their message; audited
    ///   non-neighbor sends are discarded (there is no edge to carry them).
    ///   This is the substrate of [`conformance`](crate::conformance).
    /// * `&mut Collector` records per-round samples, per-edge cumulative
    ///   load, and the marks/counters/histograms the protocol emits through
    ///   [`Ctx::mark`]/[`Ctx::count`]/[`Ctx::observe`]. The run opens no
    ///   span (callers bracket it with
    ///   [`Collector::enter`](crate::telemetry::Collector::enter) and
    ///   `exit`), and the collector's cursor advances by the run's measured
    ///   rounds. Its exports are byte-identical under every
    ///   [`EngineMode`] (see the [`telemetry`](crate::telemetry) docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use congest::bfs::BfsTreeProtocol;
    /// use congest::conformance::Violation;
    /// use congest::generators::path;
    /// use congest::runtime::Network;
    /// use congest::telemetry::Collector;
    ///
    /// let g = path(6);
    /// let net = Network::new(&g);
    /// let (mut violations, mut col) = (Vec::<Violation>::new(), Collector::new());
    /// let out = net.run_with(BfsTreeProtocol::instances(6, 0), (&mut violations, &mut col))?;
    /// assert!(violations.is_empty());
    /// assert_eq!(col.round_samples().len(), out.stats.rounds);
    /// # Ok::<(), congest::runtime::RuntimeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run), except that model breaches are reported
    /// through [`RunObserver::on_violation`] instead of aborting when
    /// `obs.audits()` is true.
    pub fn run_with<P, O>(&self, nodes: Vec<P>, obs: O) -> Result<RunOutput<P>, RuntimeError>
    where
        P: NodeProtocol + Send,
        P::Msg: Send + Sync,
        O: RunObserver,
    {
        self.exec_loop(nodes, obs)
    }

    /// Validate one sender's outbox against the model, apply fault
    /// verdicts, and hand each surviving message to `sink` — the single
    /// validation/fault/delivery path shared by both engines.
    ///
    /// Per-edge load is accumulated in the lane router's rank-indexed slot
    /// array — one `O(log deg)` rank lookup per message, no per-sender
    /// allocation — and only the touched slots are flushed and reset, so
    /// routing cost is proportional to traffic rather than to the sender's
    /// degree. The round's counts land in `lane.trace`.
    ///
    /// Returns `false` when the sender's chunk must stop: a non-audited
    /// model breach was staged in `lane.error`. In audit mode breaches
    /// become [`Violation`]s in `lane.violations` instead and the outbox
    /// keeps draining (audited cap overflows still deliver; audited
    /// non-neighbor sends are discarded — there is no edge to carry them).
    #[inline]
    fn route_outbox<M: MessageSize, S: SendSink<M>>(
        &self,
        from: NodeId,
        round: usize,
        lane: &mut Lane<M>,
        sink: &mut S,
        auditing: bool,
        telemetering: bool,
    ) -> bool {
        let Lane { outbox, router, trace, error, violations, shard, .. } = lane;
        for (idx, (to, msg)) in outbox.drain(..).enumerate() {
            let Some(rank) = self.graph.neighbor_rank(from, to) else {
                if auditing {
                    violations.push(Violation::NonNeighborSend { round, from, to });
                    continue; // no edge exists to carry the message
                }
                *error = Some(RuntimeError::NotANeighbor { round, from, to });
                return false;
            };
            let bits = msg.size_bits();
            if router.slots[rank] == 0 {
                router.touched.push(rank);
            }
            router.slots[rank] += bits;
            if router.slots[rank] > self.cap_bits {
                if auditing {
                    violations.push(Violation::CapExceeded {
                        round,
                        from,
                        to,
                        bits: router.slots[rank],
                        cap: self.cap_bits,
                    });
                } else {
                    *error = Some(RuntimeError::BandwidthExceeded {
                        round,
                        from,
                        to,
                        bits: router.slots[rank],
                        cap: self.cap_bits,
                    });
                    return false;
                }
            }
            // Model validation passed (or was audited); now the fault plan
            // decides the message's fate. Dropped messages still loaded the
            // edge above — only delivery accounting skips them.
            let mut delay = 0u32;
            if let Some(plan) = &self.faults {
                // Outages and tail-drops beyond a degraded cap both lose
                // the message; otherwise the seeded hash decides.
                let verdict = if plan.link_is_down(round, from, to)
                    || plan.degraded_cap(from, to).is_some_and(|c| router.slots[rank] > c)
                {
                    Delivery::Drop
                } else {
                    plan.decide(round, from, to, idx)
                };
                match verdict {
                    Delivery::Drop => {
                        trace.dropped += 1;
                        continue;
                    }
                    Delivery::Delay(d) => delay = d as u32,
                    Delivery::Deliver => {}
                }
            }
            trace.messages += 1;
            trace.bits += bits;
            sink.accept(to, from, delay, bits, msg);
        }
        let edges = if telemetering { Some(&mut shard.edges) } else { None };
        router.flush(from, self.graph.neighbors(from), &mut trace.busiest_edge, edges);
        true
    }

    /// Run one round's `on_round` calls for a contiguous chunk of nodes
    /// starting at id `base`, routing every sender's outbox through
    /// [`route_outbox`](Self::route_outbox) into `sink`. Stops at the
    /// chunk's first error, exactly where a fully sequential sweep would.
    #[allow(clippy::too_many_arguments)] // internal hot path; grouping into a struct buys nothing
    fn round_for_chunk<P: NodeProtocol, S: SendSink<P::Msg>>(
        &self,
        round: usize,
        base: NodeId,
        chunk: &mut [P],
        inboxes: &[Vec<(NodeId, P::Msg)>],
        lane: &mut Lane<P::Msg>,
        sink: &mut S,
        auditing: bool,
        telemetering: bool,
    ) {
        let n = self.graph.n();
        for (i, node) in chunk.iter_mut().enumerate() {
            let v = base + i;
            lane.outbox.clear();
            {
                let mut ctx = Ctx {
                    me: v,
                    round,
                    n,
                    cap_bits: self.cap_bits,
                    neighbors: self.graph.neighbors(v),
                    out: &mut lane.outbox,
                    tel: if telemetering { Some(&mut lane.shard) } else { None },
                };
                node.on_round(&mut ctx, &inboxes[v]);
            }
            if lane.outbox.is_empty() {
                continue;
            }
            lane.any_sent = true;
            if !self.route_outbox(v, round, lane, sink, auditing, telemetering) {
                return;
            }
        }
    }

    /// One round on a single lane: the whole node range runs inline and
    /// each validated send goes straight into the next round's inboxes (or
    /// the delay wheel) through a [`DeliverSink`] — no staging copy.
    fn sweep_inline<P: NodeProtocol, O: RunObserver>(
        &self,
        round: usize,
        nodes: &mut [P],
        core: &mut ExecCore<P::Msg>,
        obs: &mut O,
    ) {
        let ExecCore {
            inboxes,
            next_inboxes,
            wheel,
            lanes,
            auditing,
            telemetering,
            want_messages,
            ..
        } = core;
        let mut sink =
            DeliverSink { next_inboxes, wheel, obs, want_messages: *want_messages, round };
        self.round_for_chunk(
            round,
            0,
            nodes,
            inboxes,
            &mut lanes[0],
            &mut sink,
            *auditing,
            *telemetering,
        );
    }

    /// One round fanned out over scoped worker threads: one contiguous
    /// [`NodeId`] chunk per lane, each lane staging its sends in its own
    /// `ExecCore::staged` buffer for [`ExecCore::merge_round`] to deliver
    /// in chunk order (workers may not touch the shared inboxes).
    fn sweep_parallel<P>(&self, round: usize, nodes: &mut [P], core: &mut ExecCore<P::Msg>)
    where
        P: NodeProtocol + Send,
        P::Msg: Send + Sync,
    {
        let ExecCore { inboxes, lanes, staged, chunk_len, auditing, telemetering, .. } = core;
        let (chunk_len, auditing, telemetering) = (*chunk_len, *auditing, *telemetering);
        let inboxes: &[Vec<(NodeId, P::Msg)>] = inboxes;
        std::thread::scope(|s| {
            let lanes = lanes.iter_mut().zip(staged.iter_mut());
            for (t, (chunk, (lane, sends))) in nodes.chunks_mut(chunk_len).zip(lanes).enumerate() {
                s.spawn(move || {
                    self.round_for_chunk(
                        round,
                        t * chunk_len,
                        chunk,
                        inboxes,
                        lane,
                        sends,
                        auditing,
                        telemetering,
                    );
                });
            }
        });
    }

    /// The round loop — the only one in the crate; both engines execute
    /// this exact body. A single lane sweeps inline
    /// ([`sweep_inline`](Self::sweep_inline)); more lanes fan out over
    /// scoped worker threads ([`sweep_parallel`](Self::sweep_parallel)).
    /// [`ExecCore`] holds the engine-agnostic run state, and `obs`
    /// receives the [`RunObserver`] hooks at fixed points of the loop.
    ///
    /// Merging lanes in chunk (= node id) order reproduces a sequential
    /// sweep's inbox ordering, statistics, busiest-edge choice, and first
    /// error exactly; see `DESIGN.md`, "Engine internals".
    fn exec_loop<P, O>(&self, mut nodes: Vec<P>, mut obs: O) -> Result<RunOutput<P>, RuntimeError>
    where
        P: NodeProtocol + Send,
        P::Msg: Send + Sync,
        O: RunObserver,
    {
        let n = self.graph.n();
        if nodes.len() != n {
            return Err(RuntimeError::WrongNodeCount { expected: n, got: nodes.len() });
        }
        let threads = self.effective_threads(n);
        let mut core = ExecCore::new(n, self.graph.max_degree(), threads, &obs);
        for round in 0..self.max_rounds {
            if threads == 1 {
                self.sweep_inline(round, &mut nodes, &mut core, &mut obs);
            } else {
                self.sweep_parallel(round, &mut nodes, &mut core);
            }
            // The first error in lane order is the first error in node
            // order: chunks are contiguous and each lane stops at its own
            // first error.
            if let Some(e) = core.first_error() {
                return Err(e);
            }
            let (any_sent, round_trace) = core.merge_round(round, &mut obs);
            if let Some(e) = nodes.iter().find_map(|p| p.failure()) {
                return Err(e);
            }
            if any_sent {
                core.last_active_round = round + 1;
            }
            obs.on_round_end(round, round_trace, &mut core.round_shard);
            // Delayed messages that matured this round arrive with the next
            // round's inboxes, after every regular send; like a regular
            // send, a matured delivery keeps the run active.
            if core.wheel.pop_due(&mut core.next_inboxes) {
                core.last_active_round = round + 1;
            }
            if core.quiescent() && nodes.iter().all(|p| p.is_done()) {
                core.stats.rounds = core.last_active_round;
                obs.on_finish(&core.stats);
                return Ok(RunOutput { nodes, stats: core.stats });
            }
            core.advance();
        }
        Err(RuntimeError::RoundLimitExceeded {
            limit: self.max_rounds,
            last_active_round: core.last_active_round.checked_sub(1),
            not_done: nodes.iter().filter(|p| !p.is_done()).count(),
            first_not_done: nodes.iter().position(|p| !p.is_done()),
            in_flight: core.in_flight(),
        })
    }
}

/// Hooks into the execution core, composable into a pipeline.
///
/// One observer pipeline is attached per run (via [`Network::run_with`]);
/// the engine invokes the hooks at fixed points of its single round loop,
/// identically under every [`EngineMode`]:
///
/// * [`on_message`](Self::on_message) — once per message accepted for
///   delivery (immediate or delayed, not dropped), in sender order; only
///   invoked when [`observes_messages`](Self::observes_messages) is true;
/// * [`on_violation`](Self::on_violation) — once per model breach, in
///   sender order; only in audit mode ([`audits`](Self::audits));
/// * [`on_round_end`](Self::on_round_end) — after the round's messages
///   are routed, with the round's aggregate [`RoundTrace`] and the merged
///   telemetry staging [`Shard`];
/// * [`on_finish`](Self::on_finish) — once, with the final [`RunStats`],
///   when the run completes successfully (never on an error path).
///
/// Within a round, each hook's own call sequence is engine-invariant
/// (global node order); the interleaving *between* `on_message` and
/// `on_violation` calls of the same round is unspecified.
///
/// Every hook has a no-op default, `()` is the empty pipeline, and two
/// pipelines compose as an `(A, B)` tuple — so a disabled concern costs
/// one statically known untaken branch and `net.run(..)` monomorphizes to
/// the bare engine. The two built-in observers are `&mut Vec<Violation>`
/// (audit) and `&mut Collector` (telemetry).
pub trait RunObserver {
    /// Whether model breaches should be recorded through
    /// [`on_violation`](Self::on_violation) instead of aborting the run.
    fn audits(&self) -> bool {
        false
    }

    /// Whether the run stages protocol telemetry: per-lane [`Shard`]s are
    /// allocated and [`Ctx::mark`]/[`Ctx::count`]/[`Ctx::observe`] record.
    fn collects_telemetry(&self) -> bool {
        false
    }

    /// Whether [`on_message`](Self::on_message) should be invoked. The
    /// per-message hook is gated so the common observers (trace, audit,
    /// telemetry) pay nothing for it.
    fn observes_messages(&self) -> bool {
        false
    }

    /// Called once per message accepted for delivery — immediately or
    /// after an injected delay, but not for dropped messages — at the
    /// round it was sent. Gated by
    /// [`observes_messages`](Self::observes_messages).
    fn on_message(&mut self, round: usize, from: NodeId, to: NodeId, bits: u64) {
        let _ = (round, from, to, bits);
    }

    /// Called once per audited model breach, in sender order. Only invoked
    /// when [`audits`](Self::audits) is true; otherwise the first breach
    /// aborts the run with a [`RuntimeError`].
    fn on_violation(&mut self, violation: &Violation) {
        let _ = violation;
    }

    /// Called at the end of every round with the run-local round index
    /// (0 for the run's first round), its aggregate trace, and the round's
    /// merged telemetry staging buffer (empty unless
    /// [`collects_telemetry`](Self::collects_telemetry) is true).
    fn on_round_end(&mut self, round: usize, trace: RoundTrace, shard: &mut Shard) {
        let _ = (round, trace, shard);
    }

    /// Called once, after the final round, when the run completes
    /// successfully.
    fn on_finish(&mut self, stats: &RunStats) {
        let _ = stats;
    }
}

/// The empty pipeline: a bare run with no observation.
impl RunObserver for () {}

/// Composition: both observers receive every hook; the capability queries
/// are OR-ed.
impl<A: RunObserver, B: RunObserver> RunObserver for (A, B) {
    fn audits(&self) -> bool {
        self.0.audits() || self.1.audits()
    }

    fn collects_telemetry(&self) -> bool {
        self.0.collects_telemetry() || self.1.collects_telemetry()
    }

    fn observes_messages(&self) -> bool {
        self.0.observes_messages() || self.1.observes_messages()
    }

    fn on_message(&mut self, round: usize, from: NodeId, to: NodeId, bits: u64) {
        self.0.on_message(round, from, to, bits);
        self.1.on_message(round, from, to, bits);
    }

    fn on_violation(&mut self, violation: &Violation) {
        self.0.on_violation(violation);
        self.1.on_violation(violation);
    }

    fn on_round_end(&mut self, round: usize, trace: RoundTrace, shard: &mut Shard) {
        self.0.on_round_end(round, trace, shard);
        self.1.on_round_end(round, trace, shard);
    }

    fn on_finish(&mut self, stats: &RunStats) {
        self.0.on_finish(stats);
        self.1.on_finish(stats);
    }
}

/// The audit observer: switches the engine into audit mode and collects
/// every [`Violation`] in deterministic (round, then sender) order.
impl RunObserver for &mut Vec<Violation> {
    fn audits(&self) -> bool {
        true
    }

    fn on_violation(&mut self, violation: &Violation) {
        self.push(violation.clone());
    }
}

/// The result of every run: final node states and statistics. Observers
/// ([`Network::run_with`]) keep their own records.
#[derive(Debug)]
pub struct RunOutput<P> {
    /// Final per-node protocol states, indexed by [`NodeId`].
    pub nodes: Vec<P>,
    /// Measured statistics.
    pub stats: RunStats,
}

/// Engine-agnostic state of one run: the inbox double-buffer, the delay
/// wheel, run statistics, and the per-lane working state. Both engines
/// execute the single loop in `Network::exec_loop` over this core; the
/// sweep (`Network::sweep_inline` or `Network::sweep_parallel`) only
/// chooses how the `on_round` calls land on the lanes.
struct ExecCore<M> {
    /// Nodes per lane (`n.div_ceil(lanes)`); lane `t` owns ids
    /// `[t·chunk_len, (t+1)·chunk_len)`.
    chunk_len: usize,
    inboxes: Vec<Vec<(NodeId, M)>>,
    next_inboxes: Vec<Vec<(NodeId, M)>>,
    wheel: DelayWheel<M>,
    lanes: Vec<Lane<M>>,
    /// One buffer per lane of validated `(to, from, delay, msg)` sends in
    /// sender order, staged by the parallel sweep and delivered by
    /// [`merge_round`](Self::merge_round); always empty on a single lane,
    /// whose [`DeliverSink`] bypasses staging.
    staged: Vec<Vec<(NodeId, NodeId, u32, M)>>,
    stats: RunStats,
    last_active_round: usize,
    /// Per-lane telemetry shards are merged into this buffer in chunk
    /// (= node id) order each round, reproducing a sequential sweep's
    /// emission order exactly; [`RunObserver::on_round_end`] drains it.
    round_shard: Shard,
    auditing: bool,
    telemetering: bool,
    want_messages: bool,
}

impl<M: MessageSize> ExecCore<M> {
    fn new<O: RunObserver>(n: usize, max_degree: usize, lanes: usize, obs: &O) -> Self {
        ExecCore {
            chunk_len: n.div_ceil(lanes.max(1)),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            next_inboxes: (0..n).map(|_| Vec::new()).collect(),
            wheel: DelayWheel::new(),
            lanes: (0..lanes).map(|_| Lane::new(max_degree)).collect(),
            staged: (0..lanes).map(|_| Vec::new()).collect(),
            stats: RunStats::default(),
            last_active_round: 0,
            round_shard: Shard::default(),
            auditing: obs.audits(),
            telemetering: obs.collects_telemetry(),
            want_messages: obs.observes_messages(),
        }
    }

    /// The first staged routing error in lane (= node) order, if any.
    fn first_error(&mut self) -> Option<RuntimeError> {
        self.lanes.iter_mut().find_map(|l| l.error.take())
    }

    /// Fold every lane's round record into the run, in chunk (= node id)
    /// order: the lane traces into the round's [`RoundTrace`] (and from it
    /// the [`RunStats`] deltas), audit findings (through
    /// [`RunObserver::on_violation`]), telemetry shards, and staged sends
    /// (delivered to the next round's inboxes or the delay wheel). Returns
    /// whether any node sent this round plus the round's trace.
    fn merge_round<O: RunObserver>(&mut self, round: usize, obs: &mut O) -> (bool, RoundTrace) {
        let ExecCore {
            lanes,
            staged,
            next_inboxes,
            wheel,
            stats,
            round_shard,
            telemetering,
            want_messages,
            ..
        } = self;
        let mut any_sent = false;
        let mut trace = RoundTrace::default();
        for (lane, sends) in lanes.iter_mut().zip(staged.iter_mut()) {
            let t = std::mem::take(&mut lane.trace);
            trace.messages += t.messages;
            trace.bits += t.bits;
            trace.dropped += t.dropped;
            if let Some((_, _, b)) = t.busiest_edge {
                if trace.busiest_edge.is_none_or(|(_, _, bb)| b > bb) {
                    trace.busiest_edge = t.busiest_edge;
                }
            }
            any_sent |= std::mem::take(&mut lane.any_sent);
            for v in lane.violations.drain(..) {
                obs.on_violation(&v);
            }
            if *telemetering {
                round_shard.marks.append(&mut lane.shard.marks);
                round_shard.counts.append(&mut lane.shard.counts);
                round_shard.observations.append(&mut lane.shard.observations);
                round_shard.edges.append(&mut lane.shard.edges);
            }
            for (to, from, delay, msg) in sends.drain(..) {
                if *want_messages {
                    obs.on_message(round, from, to, msg.size_bits());
                }
                if delay == 0 {
                    next_inboxes[to].push((from, msg));
                } else {
                    wheel.schedule(delay as usize, to, from, msg);
                }
            }
        }
        stats.messages += trace.messages;
        stats.total_bits += trace.bits;
        stats.dropped += trace.dropped;
        if let Some((_, _, b)) = trace.busiest_edge {
            stats.max_edge_bits = stats.max_edge_bits.max(b);
        }
        (any_sent, trace)
    }

    /// Whether no message is waiting for the next round (inboxes and the
    /// delay wheel are empty).
    fn quiescent(&self) -> bool {
        !self.next_inboxes.iter().any(|b| !b.is_empty()) && self.wheel.is_empty()
    }

    /// Messages not yet consumed by an `on_round` call: both inbox
    /// buffers plus the delay wheel. Only the round-limit error reads it.
    fn in_flight(&self) -> usize {
        let inboxes: usize = self.inboxes.iter().chain(&self.next_inboxes).map(Vec::len).sum();
        inboxes + self.wheel.slots.iter().map(Vec::len).sum::<usize>()
    }

    /// Swap the inbox double-buffer for the next round.
    fn advance(&mut self) {
        for (inbox, next) in self.inboxes.iter_mut().zip(self.next_inboxes.iter_mut()) {
            inbox.clear();
            std::mem::swap(inbox, next);
        }
    }
}

/// Where `Network::route_outbox` puts a message that survived validation
/// and the fault verdict.
trait SendSink<M> {
    /// Accept a message for delivery `delay` extra rounds from now
    /// (`delay == 0` is normal next-round delivery).
    fn accept(&mut self, to: NodeId, from: NodeId, delay: u32, bits: u64, msg: M);
}

/// A lane's staging buffer — the parallel sweep's sink (workers may not
/// touch the shared inboxes).
impl<M> SendSink<M> for Vec<(NodeId, NodeId, u32, M)> {
    #[inline]
    fn accept(&mut self, to: NodeId, from: NodeId, delay: u32, _bits: u64, msg: M) {
        self.push((to, from, delay, msg));
    }
}

/// Delivers straight into the next round's inboxes or the delay wheel —
/// the single-lane sink (the coordinator is the only thread, so staging
/// would be a wasted copy).
struct DeliverSink<'a, M, O> {
    next_inboxes: &'a mut Vec<Vec<(NodeId, M)>>,
    wheel: &'a mut DelayWheel<M>,
    obs: &'a mut O,
    want_messages: bool,
    round: usize,
}

impl<M, O: RunObserver> SendSink<M> for DeliverSink<'_, M, O> {
    #[inline]
    fn accept(&mut self, to: NodeId, from: NodeId, delay: u32, bits: u64, msg: M) {
        if self.want_messages {
            self.obs.on_message(self.round, from, to, bits);
        }
        if delay == 0 {
            self.next_inboxes[to].push((from, msg));
        } else {
            self.wheel.schedule(delay as usize, to, from, msg);
        }
    }
}

/// Rank-indexed per-edge load accounting for one sender at a time.
///
/// `slots[r]` is the bits queued this round on the edge to the sender's
/// rank-`r` neighbor; `touched` lists the dirty ranks so resetting costs
/// `O(edges used)`, not `O(degree)`. A zero-size message may push its rank
/// twice, which only makes the flush revisit a slot it already cleared.
#[derive(Debug)]
struct Router {
    slots: Vec<u64>,
    touched: Vec<usize>,
}

impl Router {
    fn new(max_degree: usize) -> Self {
        Router { slots: vec![0; max_degree], touched: Vec::new() }
    }

    /// Fold the touched per-edge loads of sender `from` into the round's
    /// busiest edge (first of a tie wins), and reset the slots for the
    /// next sender.
    #[inline]
    fn flush(
        &mut self,
        from: NodeId,
        neighbors: &[NodeId],
        busiest: &mut Option<(NodeId, NodeId, u64)>,
        mut edges: Option<&mut Vec<(NodeId, NodeId, u64)>>,
    ) {
        for &r in &self.touched {
            let load = self.slots[r];
            self.slots[r] = 0;
            if busiest.is_none_or(|(_, _, b)| load > b) {
                *busiest = Some((from, neighbors[r], load));
            }
            // Telemetry-only per-edge load feed; `load == 0` slots (from a
            // zero-size message's double-push) are skipped like elsewhere.
            if load > 0 {
                if let Some(sink) = edges.as_deref_mut() {
                    sink.push((from, neighbors[r], load));
                }
            }
        }
        self.touched.clear();
    }
}

/// One lane's working state and round record — everything
/// `round_for_chunk` touches — reused round after round so the steady
/// state allocates nothing. A single lane runs inline; the parallel sweep
/// hands one to each worker thread.
struct Lane<M> {
    outbox: Vec<(NodeId, M)>,
    router: Router,
    /// This round's accounting for the lane's chunk; taken (and so reset)
    /// by `ExecCore::merge_round`.
    trace: RoundTrace,
    any_sent: bool,
    error: Option<RuntimeError>,
    /// Audit-mode findings, in this lane's node order; the coordinator
    /// replays lanes in chunk order, reproducing sequential order.
    violations: Vec<Violation>,
    /// Telemetry staged by this lane's chunk, drained by the coordinator
    /// in chunk order each round (empty on untelemetered runs).
    shard: Shard,
}

impl<M> Lane<M> {
    fn new(max_degree: usize) -> Self {
        Lane {
            outbox: Vec::new(),
            router: Router::new(max_degree),
            trace: RoundTrace::default(),
            any_sent: false,
            error: None,
            violations: Vec::new(),
            shard: Shard::default(),
        }
    }
}

/// Future deliveries scheduled by a delaying fault plan.
///
/// Slot `d` holds the messages that mature `d` round boundaries from now:
/// at the end of each round the front slot is appended (in scheduling
/// order) to the next round's inboxes, after all regular sends. Scheduling
/// order is sender order within a round and round order across rounds, so
/// both engines produce the same arrival order.
#[derive(Debug)]
struct DelayWheel<M> {
    slots: VecDeque<Vec<(NodeId, NodeId, M)>>,
}

impl<M> DelayWheel<M> {
    fn new() -> Self {
        DelayWheel { slots: VecDeque::new() }
    }

    /// Schedule `msg` to arrive `delay` rounds later than normal delivery.
    fn schedule(&mut self, delay: usize, to: NodeId, from: NodeId, msg: M) {
        while self.slots.len() <= delay {
            self.slots.push_back(Vec::new());
        }
        self.slots[delay].push((to, from, msg));
    }

    /// Move the messages that mature at this round boundary into
    /// `next_inboxes`; returns whether anything was delivered.
    fn pop_due(&mut self, next_inboxes: &mut [Vec<(NodeId, M)>]) -> bool {
        match self.slots.pop_front() {
            Some(due) if !due.is_empty() => {
                for (to, from, msg) in due {
                    next_inboxes[to].push((from, msg));
                }
                true
            }
            _ => false,
        }
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Vec::is_empty)
    }
}

/// A named-phase ledger used by drivers that compose several protocol runs
/// (leader election, then BFS, then `b` query batches, …) into one
/// algorithm, as the paper's proofs do.
///
/// # Examples
///
/// ```
/// use congest::runtime::{RoundLedger, RunStats};
///
/// let mut ledger = RoundLedger::new();
/// ledger.record("bfs", RunStats { rounds: 7, ..Default::default() });
/// ledger.record("query-batch", RunStats { rounds: 12, ..Default::default() });
/// assert_eq!(ledger.total_rounds(), 19);
/// assert_eq!(ledger.phases().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundLedger {
    phases: Vec<(String, RunStats)>,
}

impl RoundLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed phase.
    pub fn record(&mut self, name: &str, stats: RunStats) {
        self.phases.push((name.to_string(), stats));
    }

    /// All recorded phases in order.
    pub fn phases(&self) -> &[(String, RunStats)] {
        &self.phases
    }

    /// Total rounds across phases — the algorithm's round complexity.
    pub fn total_rounds(&self) -> usize {
        self.phases.iter().map(|(_, s)| s.rounds).sum()
    }

    /// Total rounds spent in phases whose name starts with `prefix`.
    pub fn rounds_for(&self, prefix: &str) -> usize {
        self.phases.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, s)| s.rounds).sum()
    }

    /// Sum of all message counts.
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.messages).sum()
    }

    /// Sum of all delivered (qu)bits.
    pub fn total_bits(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.total_bits).sum()
    }

    /// Fold another ledger's phases into this one, prefixing their names.
    pub fn absorb(&mut self, prefix: &str, other: RoundLedger) {
        for (name, stats) in other.phases {
            self.phases.push((format!("{prefix}/{name}"), stats));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{path, star};
    use crate::telemetry::Collector;

    /// A flood protocol: node 0 emits a token; everyone forwards it once.
    #[derive(Debug)]
    struct Flood {
        has_token: bool,
        forwarded: bool,
    }

    #[derive(Clone, Debug)]
    struct Token;

    impl MessageSize for Token {
        fn size_bits(&self) -> u64 {
            1
        }
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

    #[test]
    fn flood_takes_diameter_rounds() {
        let g = path(10);
        let run = Network::new(&g).run(flood_nodes(10)).unwrap();
        assert!(run.nodes.iter().all(|f| f.has_token));
        // Node 0 sends in round 0; node 9 receives in round 9's inbox and
        // forwards in round 9. Last message in flight was sent in round 9.
        assert_eq!(run.stats.rounds, 10);
    }

    #[test]
    fn flood_on_star_takes_two_rounds() {
        let g = star(12);
        let run = Network::new(&g).run(flood_nodes(12)).unwrap();
        assert!(run.nodes.iter().all(|f| f.has_token));
        assert_eq!(run.stats.rounds, 2);
    }

    #[test]
    fn message_and_bit_counts() {
        let g = path(3);
        let run = Network::new(&g).run(flood_nodes(3)).unwrap();
        // 0 -> 1 ; 1 -> {0, 2} ; 2 -> 1 : four messages of one bit.
        assert_eq!(run.stats.messages, 4);
        assert_eq!(run.stats.total_bits, 4);
        assert_eq!(run.stats.max_edge_bits, 1);
    }

    /// Protocol that tries to push too many bits across an edge.
    #[derive(Debug)]
    struct Hog {
        sent: bool,
    }

    #[derive(Clone, Debug)]
    struct Big(u64);

    impl MessageSize for Big {
        fn size_bits(&self) -> u64 {
            self.0
        }
    }

    impl NodeProtocol for Hog {
        type Msg = Big;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Big>, _inbox: &[(NodeId, Big)]) {
            if ctx.me() == 0 && !self.sent {
                let cap = ctx.cap_bits();
                ctx.send(1, Big(cap + 1));
                self.sent = true;
            } else {
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn bandwidth_cap_enforced() {
        let g = path(2);
        let err = Network::new(&g).run(vec![Hog { sent: false }, Hog { sent: false }]).unwrap_err();
        assert!(matches!(err, RuntimeError::BandwidthExceeded { .. }));
    }

    #[test]
    fn split_messages_also_capped() {
        // Two messages whose sum exceeds the cap must also be rejected.
        #[derive(Debug)]
        struct TwoSends {
            sent: bool,
        }
        impl NodeProtocol for TwoSends {
            type Msg = Big;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Big>, _inbox: &[(NodeId, Big)]) {
                if ctx.me() == 0 && !self.sent {
                    let cap = ctx.cap_bits();
                    ctx.send(1, Big(cap));
                    ctx.send(1, Big(1));
                }
                self.sent = true;
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        let g = path(2);
        let err = Network::new(&g)
            .run(vec![TwoSends { sent: false }, TwoSends { sent: false }])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BandwidthExceeded { .. }));
    }

    #[test]
    fn non_neighbor_send_rejected() {
        #[derive(Debug)]
        struct Bad {
            sent: bool,
        }
        impl NodeProtocol for Bad {
            type Msg = Token;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Token>, _inbox: &[(NodeId, Token)]) {
                if ctx.me() == 0 && !self.sent {
                    ctx.send(2, Token); // 0 and 2 are not adjacent on a path
                }
                self.sent = true;
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        let g = path(3);
        let err = Network::new(&g).run((0..3).map(|_| Bad { sent: false }).collect()).unwrap_err();
        assert!(matches!(err, RuntimeError::NotANeighbor { from: 0, to: 2, .. }));
    }

    #[test]
    fn round_limit_enforced() {
        /// Never terminates: keeps bouncing the token.
        #[derive(Debug)]
        struct Forever;
        impl NodeProtocol for Forever {
            type Msg = Token;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Token>, _inbox: &[(NodeId, Token)]) {
                ctx.broadcast(Token);
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = path(2);
        let err = Network::new(&g).with_round_limit(10).run(vec![Forever, Forever]).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::RoundLimitExceeded {
                limit: 10,
                last_active_round: Some(9),
                not_done: 2,
                first_not_done: Some(0),
                in_flight: 2,
            }
        );
        assert_eq!(
            err.to_string(),
            "protocol did not terminate within 10 rounds (last active round 9; \
             2 node(s) not done, first 0; 2 message(s) in flight)"
        );
    }

    #[test]
    fn wrong_node_count_rejected() {
        let g = path(3);
        let err = Network::new(&g).run(flood_nodes(2)).unwrap_err();
        assert_eq!(err, RuntimeError::WrongNodeCount { expected: 3, got: 2 });
    }

    #[test]
    fn silent_protocol_uses_zero_rounds() {
        #[derive(Debug)]
        struct Quiet;
        impl NodeProtocol for Quiet {
            type Msg = Token;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, Token>, _inbox: &[(NodeId, Token)]) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = path(4);
        let run = Network::new(&g).run(vec![Quiet, Quiet, Quiet, Quiet]).unwrap();
        assert_eq!(run.stats.rounds, 0);
    }

    /// `nodes` run under `net` with a fresh collector attached.
    fn collected<P>(net: &Network<'_>, nodes: Vec<P>) -> (RunOutput<P>, Collector)
    where
        P: NodeProtocol + Send,
        P::Msg: Send + Sync,
    {
        let mut col = Collector::new();
        let out = net.run_with(nodes, &mut col).unwrap();
        (out, col)
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let g = path(6);
        let net = Network::new(&g);
        let plain = net.run(flood_nodes(6)).unwrap();
        let (traced, col) = collected(&net, flood_nodes(6));
        let samples = col.round_samples();
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(samples.len(), traced.stats.rounds);
        assert_eq!(samples.iter().map(|s| s.trace.bits).sum::<u64>(), traced.stats.total_bits);
        assert!(samples.iter().enumerate().all(|(i, s)| s.round == i as u64 && s.trace.bits >= 1));
        assert!(col.render(10).contains("edge load heatmap"));
    }

    #[test]
    fn trace_busiest_edge_within_cap() {
        let g = star(8);
        let net = Network::new(&g);
        let (_, col) = collected(&net, flood_nodes(8));
        assert!(!col.round_samples().is_empty());
        for s in col.round_samples() {
            if let Some((_, _, bits)) = s.trace.busiest_edge {
                assert!(bits <= net.cap_bits());
            }
        }
    }

    #[test]
    fn trace_render_output_is_bounded() {
        // An E6-sized run (18k rounds) keeps one sample per round but
        // renders a report whose length does not grow with the rounds.
        struct PingPong {
            left: usize,
        }
        impl NodeProtocol for PingPong {
            type Msg = Token;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Token>, _inbox: &[(NodeId, Token)]) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.broadcast(Token);
                }
            }
            fn is_done(&self) -> bool {
                self.left == 0
            }
        }
        let g = path(3);
        let net = Network::new(&g);
        let (out, mut col) = collected(&net, (0..3).map(|_| PingPong { left: 18_000 }).collect());
        assert_eq!(out.stats.rounds, 18_000);
        assert_eq!(col.round_samples().len(), 18_000);
        col.enter("ping-pong");
        col.exit();
        let rendered = col.render(40);
        assert!(rendered.lines().count() <= 20, "{rendered}");
        assert!(rendered.contains("edge load heatmap (top 40 of 4 edges"));
        // The heatmap still accounts for every bit.
        let bits_sum: u64 = col.edge_loads().values().sum();
        assert_eq!(bits_sum, out.stats.total_bits);
    }

    #[test]
    fn peak_round_ties_break_to_first() {
        // Nodes 3..8 each send one equal-size message in round 0, spread
        // over several parallel lanes; the round's busiest edge must pin to
        // the lowest sender under every engine.
        struct Once;
        impl NodeProtocol for Once {
            type Msg = Big;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Big>, _inbox: &[(NodeId, Big)]) {
                if ctx.round() == 0 && ctx.me() >= 3 {
                    ctx.send(ctx.neighbors()[0], Big(3));
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = path(8);
        for engine in [EngineMode::Sequential, EngineMode::Parallel { threads: 4 }] {
            let net = Network::new(&g).with_engine(engine);
            let (_, col) = collected(&net, (0..8).map(|_| Once).collect());
            let busiest: Vec<_> =
                col.round_samples().iter().map(|s| s.trace.busiest_edge).collect();
            assert_eq!(busiest, vec![Some((3, 2, 3))], "{engine:?}");
        }
    }

    #[test]
    fn ledger_accumulates() {
        let mut ledger = RoundLedger::new();
        ledger.record(
            "a",
            RunStats { rounds: 3, messages: 5, total_bits: 50, max_edge_bits: 10, dropped: 0 },
        );
        ledger.record(
            "a2",
            RunStats { rounds: 4, messages: 1, total_bits: 8, max_edge_bits: 8, dropped: 0 },
        );
        ledger.record("b", RunStats { rounds: 2, ..Default::default() });
        assert_eq!(ledger.total_rounds(), 9);
        assert_eq!(ledger.rounds_for("a"), 7);
        assert_eq!(ledger.total_messages(), 6);
        assert_eq!(ledger.total_bits(), 58);
        let mut outer = RoundLedger::new();
        outer.absorb("phase1", ledger);
        assert_eq!(outer.total_rounds(), 9);
        assert!(outer.phases()[0].0.starts_with("phase1/"));
    }
}

//! Model-conformance checking: audited runs and a cross-engine oracle.
//!
//! The CONGEST results of the paper (Lemma 7, Theorem 8, …) are only as
//! trustworthy as the simulator's enforcement of the model contract. This
//! module turns that contract into checkable invariants:
//!
//! * **per-edge bandwidth** — every directed edge carries at most
//!   `cap_bits` (qu)bits per round;
//! * **locality** — messages travel only between graph neighbors;
//! * **round accounting** — the per-round samples a
//!   [`Collector`] records are stamped with consecutive rounds and are
//!   consistent with the aggregate statistics (`rounds` equals the number
//!   of samples, per-round message/bit/drop counts sum to the totals, and
//!   the busiest recorded edge never exceeds the observed maximum);
//! * **engine agreement** — [`EngineMode::Sequential`] and
//!   [`EngineMode::Parallel`] produce bit-identical statistics, round
//!   samples, telemetry exports, and final node states for the same
//!   protocol and seed.
//!
//! Where the plain engine *aborts* on the first contract breach, an audited
//! run (`net.run_with(nodes, &mut violations)`, see
//! [`Network::run_with`]) records every breach as a [`Violation`] with
//! round and edge provenance and keeps going, so a single run reports all
//! of a protocol's violations. [`check_protocol`] wraps the whole
//! procedure into one call.

use crate::graph::NodeId;
use crate::runtime::{
    Ctx, EngineMode, MessageSize, Network, NodeProtocol, RunOutput, RunStats, RuntimeError,
};
use crate::telemetry::{Collector, RoundSample};
use std::fmt;

/// One breach of the CONGEST model contract, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A directed edge carried more than the cap in one round.
    CapExceeded {
        /// Round in which the edge overflowed.
        round: usize,
        /// Sending endpoint.
        from: NodeId,
        /// Receiving endpoint.
        to: NodeId,
        /// Bits the edge carried when the overflow was detected.
        bits: u64,
        /// The configured cap.
        cap: u64,
    },
    /// A node addressed a message to a non-neighbor.
    NonNeighborSend {
        /// Round of the offending send.
        round: usize,
        /// The sender.
        from: NodeId,
        /// The non-adjacent addressee.
        to: NodeId,
    },
    /// The per-round samples disagree with the aggregate statistics or
    /// skip a round.
    TraceInconsistent {
        /// Which accounting identity failed.
        field: &'static str,
        /// The value implied by the statistics.
        expected: u64,
        /// The value implied by the samples.
        got: u64,
    },
    /// The sequential and parallel engines disagreed on an observable.
    EngineDivergence {
        /// Which observable diverged ("stats", "round samples", …).
        field: &'static str,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CapExceeded { round, from, to, bits, cap } => {
                write!(f, "round {round}: edge {from}->{to} carried {bits} bits, cap is {cap}")
            }
            Violation::NonNeighborSend { round, from, to } => {
                write!(f, "round {round}: node {from} sent to non-neighbor {to}")
            }
            Violation::TraceInconsistent { field, expected, got } => {
                write!(f, "trace inconsistent: {field} is {got}, expected {expected}")
            }
            Violation::EngineDivergence { field } => {
                write!(f, "sequential and parallel engines disagree on {field}")
            }
        }
    }
}

/// The outcome of a conformance check.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Every violation found, in detection order (audited model breaches
    /// first, then trace inconsistencies, then engine divergences).
    pub violations: Vec<Violation>,
    /// Statistics of the audited sequential run.
    pub stats: RunStats,
}

impl ConformanceReport {
    /// Whether the run upheld every checked invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A human-readable one-line-per-violation summary.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "conformance: clean".to_string();
        }
        let mut out = format!("conformance: {} violation(s)\n", self.violations.len());
        for v in &self.violations {
            out.push_str(&format!("  - {v}\n"));
        }
        out
    }
}

/// A fully checked run: the report plus the sequential run's outputs, so
/// callers can additionally assert protocol-level correctness.
#[derive(Debug)]
pub struct Checked<P> {
    /// The conformance findings.
    pub report: ConformanceReport,
    /// The audited sequential run (final node states and statistics).
    pub run: RunOutput<P>,
    /// The telemetry of the audited sequential run; its
    /// [`round_samples`](Collector::round_samples) are the run's
    /// per-round trace.
    pub telemetry: Collector,
}

/// Check the accounting identities of one run's per-round `samples`
/// against its statistics.
///
/// Returns violations only — an empty vector means the samples carry
/// consecutive round stamps from the run's first round (the first
/// sample's), the accounting is internally consistent, and the busiest
/// edge stays within `cap`.
pub fn validate_trace(stats: &RunStats, samples: &[RoundSample], cap: u64) -> Vec<Violation> {
    let mut out = Vec::new();
    let first = samples.first().map_or(0, |s| s.round);
    if let Some((i, s)) = samples.iter().enumerate().find(|&(i, s)| s.round != first + i as u64) {
        out.push(Violation::TraceInconsistent {
            field: "consecutive round stamps",
            expected: first + i as u64,
            got: s.round,
        });
    }
    let mut check = |field: &'static str, expected: u64, got: u64| {
        if expected != got {
            out.push(Violation::TraceInconsistent { field, expected, got });
        }
    };
    check("recorded rounds", stats.rounds as u64, samples.len() as u64);
    check("message total", stats.messages, samples.iter().map(|s| s.trace.messages).sum());
    check("bit total", stats.total_bits, samples.iter().map(|s| s.trace.bits).sum());
    check("drop total", stats.dropped, samples.iter().map(|s| s.trace.dropped).sum());
    let peak =
        samples.iter().filter_map(|s| s.trace.busiest_edge.map(|(_, _, b)| b)).max().unwrap_or(0);
    if peak > stats.max_edge_bits {
        out.push(Violation::TraceInconsistent {
            field: "busiest recorded edge",
            expected: stats.max_edge_bits,
            got: peak,
        });
    }
    if stats.max_edge_bits > cap {
        out.push(Violation::TraceInconsistent {
            field: "max edge load within cap",
            expected: cap,
            got: stats.max_edge_bits,
        });
    }
    out
}

/// Run `make()`'s protocol under both engines with full auditing and return
/// every violation found: model breaches (with round/edge provenance),
/// accounting inconsistencies, and any observable divergence between the
/// sequential reference and a `threads`-worker parallel run.
///
/// The network's fault plan, bandwidth, and round limit apply as
/// configured; its [`EngineMode`] is overridden per run.
///
/// # Errors
///
/// Propagates hard runtime errors (wrong node count, round-limit or
/// retry-budget exhaustion) from either engine. Model breaches do *not*
/// error here — they are the violations being collected.
pub fn check_protocol<P, F>(
    net: &Network<'_>,
    threads: usize,
    make: F,
) -> Result<Checked<P>, RuntimeError>
where
    P: NodeProtocol + Send + fmt::Debug,
    P::Msg: Send + Sync,
    F: Fn() -> Vec<P>,
{
    let audited = |mode: EngineMode| {
        let (mut violations, mut col) = (Vec::new(), Collector::new());
        let run = net.clone().with_engine(mode).run_with(make(), (&mut violations, &mut col))?;
        Ok::<_, RuntimeError>((run, violations, col))
    };
    let (seq, mut violations, seq_col) = audited(EngineMode::Sequential)?;
    let (par, par_violations, par_col) = audited(EngineMode::Parallel { threads: threads.max(2) })?;

    let audits_diverge = par_violations != violations;
    violations.extend(validate_trace(&seq.stats, seq_col.round_samples(), net.cap_bits()));
    if par.stats != seq.stats {
        violations.push(Violation::EngineDivergence { field: "stats" });
    }
    if par_col.round_samples() != seq_col.round_samples() {
        violations.push(Violation::EngineDivergence { field: "round samples" });
    }
    if (par_col.to_chrome_jsonl(), par_col.metrics_json())
        != (seq_col.to_chrome_jsonl(), seq_col.metrics_json())
    {
        violations.push(Violation::EngineDivergence { field: "telemetry exports" });
    }
    if format!("{:?}", par.nodes) != format!("{:?}", seq.nodes) {
        violations.push(Violation::EngineDivergence { field: "node states" });
    }
    if audits_diverge {
        violations.push(Violation::EngineDivergence { field: "audit findings" });
    }
    Ok(Checked {
        report: ConformanceReport { violations, stats: seq.stats },
        run: seq,
        telemetry: seq_col,
    })
}

/// A one-bit flood: the origin holds a token, every node forwards it once.
///
/// The simplest nontrivial CONGEST protocol — `D + 1` rounds, one bit per
/// edge per direction — used as the conformance probe and in the fault
/// experiments (its correctness condition, "every node has the token", is
/// checkable at a glance).
#[derive(Debug, Clone)]
pub struct FloodProtocol {
    /// Whether this node has received (or originated) the token.
    pub has_token: bool,
    /// Whether this node already forwarded the token to its neighbors.
    pub forwarded: bool,
}

/// The flood token: one bit on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodToken;

impl MessageSize for FloodToken {
    fn size_bits(&self) -> u64 {
        1
    }
}

impl FloodProtocol {
    /// One instance per node; only `origin` starts with the token.
    pub fn instances(n: usize, origin: NodeId) -> Vec<Self> {
        (0..n).map(|v| FloodProtocol { has_token: v == origin, forwarded: false }).collect()
    }
}

impl NodeProtocol for FloodProtocol {
    type Msg = FloodToken;

    fn on_round(&mut self, ctx: &mut Ctx<'_, FloodToken>, inbox: &[(NodeId, FloodToken)]) {
        if !inbox.is_empty() {
            self.has_token = true;
        }
        if self.has_token && !self.forwarded {
            ctx.broadcast(FloodToken);
            self.forwarded = true;
        }
    }

    fn is_done(&self) -> bool {
        self.forwarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid, path};

    #[test]
    fn flood_probe_is_clean_everywhere() {
        for g in [path(12), grid(4, 5)] {
            let net = Network::new(&g);
            let checked =
                check_protocol(&net, 3, || FloodProtocol::instances(g.n(), 0)).expect("run");
            assert!(checked.report.is_clean(), "{}", checked.report.render());
            assert!(checked.run.nodes.iter().all(|f| f.has_token));
            assert_eq!(checked.report.render(), "conformance: clean");
        }
    }

    #[test]
    fn validate_trace_flags_inconsistencies() {
        let g = path(5);
        let net = Network::new(&g);
        let (mut violations, mut col) = (Vec::new(), Collector::new());
        col.advance(7); // a prior phase: the run's stamps start at 7
        let out =
            net.run_with(FloodProtocol::instances(5, 0), (&mut violations, &mut col)).expect("run");
        let mut samples = col.round_samples().to_vec();
        assert!(violations.is_empty());
        assert_eq!(samples[0].round, 7);
        assert!(validate_trace(&out.stats, &samples, net.cap_bits()).is_empty());
        // Tamper with the samples: each identity must catch its breach.
        let mut miscounted = samples.clone();
        miscounted[0].trace.messages += 1;
        let found = validate_trace(&out.stats, &miscounted, net.cap_bits());
        assert!(found
            .iter()
            .any(|v| matches!(v, Violation::TraceInconsistent { field: "message total", .. })));
        let mut restamped = samples.clone();
        restamped[2].round += 1;
        let found = validate_trace(&out.stats, &restamped, net.cap_bits());
        assert_eq!(
            found,
            vec![Violation::TraceInconsistent {
                field: "consecutive round stamps",
                expected: 9,
                got: 10
            }]
        );
        samples.pop();
        let found = validate_trace(&out.stats, &samples, net.cap_bits());
        assert!(found
            .iter()
            .any(|v| matches!(v, Violation::TraceInconsistent { field: "recorded rounds", .. })));
    }

    #[test]
    fn violations_render_with_provenance() {
        let v = Violation::CapExceeded { round: 3, from: 1, to: 2, bits: 40, cap: 20 };
        assert_eq!(v.to_string(), "round 3: edge 1->2 carried 40 bits, cap is 20");
        let v = Violation::NonNeighborSend { round: 5, from: 0, to: 9 };
        assert_eq!(v.to_string(), "round 5: node 0 sent to non-neighbor 9");
    }
}

//! Tracing from outside the program: span totals, timing wrappers around
//! the public `pquery` and `dqc-core` traits, and process counters read
//! from `/proc`.
//!
//! Nothing here reaches inside a layer. A span covers one call into a
//! layer's public function; a layer's self time is its span minus the
//! spans of the calls it made into the layers below, which the wrappers
//! capture because those calls go through the wrapped trait objects.

use congest::aggregate::CommOp;
use congest::runtime::{Network, RoundLedger, RunStats, RuntimeError};
use dqc_core::framework::ValueProvider;
use pquery::oracle::BatchSource;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Named totals (seconds or counts) summed over the traced calls.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Add `v` to the total called `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.totals.entry(name).or_insert(0.0) += v;
    }

    /// Run `f`, adding its wall time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, secs(t));
        out
    }

    /// The total called `name` (0 if never added).
    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Add one engine run's work to the totals `e` names.
    pub fn run(&mut self, e: &Engine, n: usize, s: &RunStats) {
        self.add(e.runs, 1.0);
        self.add(e.rounds, s.rounds as f64);
        self.add(e.msgs, s.messages as f64);
        self.add(e.bits, s.total_bits as f64);
        self.add(e.node_rounds, (n * s.rounds) as f64);
    }

    /// Add every engine run a ledger records.
    pub fn ledger(&mut self, e: &Engine, n: usize, ledger: &RoundLedger) {
        for (_, s) in ledger.phases() {
            self.run(e, n, s);
        }
    }
}

/// Span names for engine work: runs, rounds, messages, bits and
/// `n · rounds` (the denominator of messages per node per round).
#[derive(Debug)]
pub struct Engine {
    pub runs: &'static str,
    pub rounds: &'static str,
    pub msgs: &'static str,
    pub bits: &'static str,
    pub node_rounds: &'static str,
}

/// Engine work done through the framework's `CongestOracle`.
pub const FRAMEWORK: Engine = Engine {
    runs: "framework.engine_runs",
    rounds: "framework.rounds",
    msgs: "framework.msgs",
    bits: "framework.bits",
    node_rounds: "framework.node_rounds",
};

/// Engine work done by protocol drivers the benchmark calls directly.
pub const CONGEST: Engine = Engine {
    runs: "congest.engine_runs",
    rounds: "congest.rounds",
    msgs: "congest.msgs",
    bits: "congest.bits",
    node_rounds: "congest.node_rounds",
};

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A [`BatchSource`] that times every charged batch and counts the
/// uncharged `peek`s, forwarding everything to the wrapped source.
pub struct TimedSource<'a, S: ?Sized> {
    inner: &'a mut S,
    /// Seconds spent inside the wrapped `query`.
    pub query_s: f64,
    /// Number of `peek` calls.
    pub peeks: Cell<u64>,
}

impl<'a, S: BatchSource + ?Sized> TimedSource<'a, S> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut S) -> Self {
        TimedSource { inner, query_s: 0.0, peeks: Cell::new(0) }
    }
}

impl<S: BatchSource + ?Sized> BatchSource for TimedSource<'_, S> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn p(&self) -> usize {
        self.inner.p()
    }

    fn query(&mut self, indices: &[usize]) -> Vec<u64> {
        let t = Instant::now();
        let out = self.inner.query(indices);
        self.query_s += secs(t);
        out
    }

    fn peek(&self, i: usize) -> u64 {
        self.peeks.set(self.peeks.get() + 1);
        self.inner.peek(i)
    }

    fn batches(&self) -> usize {
        self.inner.batches()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// A [`ValueProvider`] that times `values_for` — Corollary 9's `α(p)`.
#[derive(Debug)]
pub struct TimedProvider<P> {
    inner: P,
    /// Seconds spent inside the wrapped `values_for`.
    pub alpha_s: f64,
}

impl<P> TimedProvider<P> {
    /// Wrap `inner`.
    pub fn new(inner: P) -> Self {
        TimedProvider { inner, alpha_s: 0.0 }
    }
}

impl<P: ValueProvider> ValueProvider for TimedProvider<P> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn q(&self) -> u64 {
        self.inner.q()
    }

    fn op(&self) -> CommOp {
        self.inner.op()
    }

    fn values_for(
        &mut self,
        net: &Network<'_>,
        indices: &[usize],
        ledger: &mut RoundLedger,
    ) -> Result<Vec<Vec<u64>>, RuntimeError> {
        let t = Instant::now();
        let out = self.inner.values_for(net, indices, ledger);
        self.alpha_s += secs(t);
        out
    }

    fn truth(&self, i: usize) -> u64 {
        self.inner.truth(i)
    }
}

/// CPU seconds (user + system, all threads) this process has used so far.
///
/// `/proc/self/stat` counts in clock ticks of `USER_HZ`, which is 100 on
/// every Linux architecture this benchmark targets, so the resolution is
/// 10 ms; sums over many iterations average the rounding out.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after ')'.
    (tick(11) + tick(12)) / 100.0
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

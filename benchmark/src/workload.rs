//! The interface every workload implements, and the runner that times,
//! verifies and traces it.

use crate::stats::{median, quartiles, ratio, self_time};
use crate::trace::{cpu_seconds, secs, Spans};
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The recorded workload sizes.
    Full,
    /// Tiny inputs for a quick end-to-end check of the benchmark itself.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Outcome of verifying one instance's driver calls. Each call counts once
/// in `attempted` and at most once in `misses + errors`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Driver calls checked.
    pub attempted: u64,
    /// Calls that returned a wrong result the algorithm's error bound
    /// allows (a bounded-error miss). Deterministic for a seed.
    pub misses: u64,
    /// Calls that returned `Err`, a result no correct run can give, or
    /// statistics differing from an earlier run of the same input.
    pub errors: u64,
    /// What went wrong, first few errors only.
    pub notes: Vec<String>,
}

impl Tally {
    /// Record that `calls` of the checked calls returned wrong results.
    pub fn error(&mut self, calls: u64, why: String) {
        self.errors += calls;
        self.notes.push(why);
    }

    /// Record that all of the instance's `calls` failed: they returned
    /// `Err`, or a repeat, the traced rebuild or the pins disagreed with
    /// the first output.
    pub fn fail_all(&mut self, calls: u64, why: String) {
        self.attempted = self.attempted.max(calls);
        self.errors = self.attempted - self.misses;
        self.notes.push(why);
    }

    pub fn failed(&self) -> u64 {
        self.misses + self.errors
    }

    /// The sum of per-instance tallies.
    pub fn sum<'a>(all: impl IntoIterator<Item = &'a Tally>) -> Tally {
        let mut t = Tally::default();
        for x in all {
            t.attempted += x.attempted;
            t.misses += x.misses;
            t.errors += x.errors;
            t.notes.extend(x.notes.iter().cloned());
        }
        t
    }
}

/// One benchmark workload over the public library APIs.
///
/// A run cycles through a fixed rotation of seeded instances; each
/// iteration makes one instance's driver calls. Every instance is verified
/// the first time it runs, and later runs of it must reproduce that output
/// exactly, so `attempted` and `failed` count each distinct call once and
/// do not depend on how many iterations fit in the time window.
pub trait Workload {
    type Instance;
    type Output: PartialEq + Debug;

    /// Distinct instances in the rotation.
    fn rotation(&self) -> usize;
    /// Driver calls one iteration makes.
    fn calls(&self) -> u64;
    /// Build instance `i` for `seed`: graph generation, ground truth and
    /// instance data, recorded as `generators.busy_s` and `graph.truth_s`.
    fn instance(&self, seed: u64, i: usize, sp: &mut Spans) -> Self::Instance;
    /// One iteration through the public drivers, untraced.
    fn run(&self, inst: &mut Self::Instance) -> Result<Self::Output, String>;
    /// The same iteration rebuilt from the drivers' public parts, with a
    /// span around each call into a layer. Time spent only to attribute
    /// time (a replay) goes to `trace.replay_s`.
    fn run_traced(&self, inst: &mut Self::Instance, sp: &mut Spans)
        -> Result<Self::Output, String>;
    /// Verify `out` against `inst`'s ground truth.
    fn check(&self, inst: &Self::Instance, out: &Self::Output, t: &mut Tally);
    /// Simulated CONGEST rounds and charged oracle batches the drivers
    /// reported.
    fn work(&self, out: &Self::Output) -> (u64, u64);
    /// The simulated statistics pinned for the default seed, one per line.
    fn pins(&self, out: &Self::Output) -> Vec<String>;
    /// Names of the per-layer self times that together cover a traced
    /// iteration; the rest is `trace.unattributed_s`.
    fn self_times(&self) -> &'static [&'static str];
    /// `(label, value)` lines describing how the host runs this workload.
    fn host(&self) -> Vec<(String, String)>;
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup: Vec<f64>,
    pub setup_builds: u32,
    pub setup_reps: u32,
    pub setup_spent: f64,
    pub setup_spans: Spans,
    pub wall: Vec<f64>,
    pub cpu_s: f64,
    pub rounds: u64,
    pub batches: u64,
    pub traced_wall: Vec<f64>,
    pub traced: Spans,
    /// One tally per rotation instance, then one for the pinned instance.
    pub tallies: Vec<Tally>,
}

/// Seconds of set-up sampling a run spreads over its measurement window.
const SETUP_BUDGET_S: f64 = 0.5;

/// Take one set-up sample: build the rotation for `seed` `m.setup_reps`
/// times and record the mean build time; return the last build.
///
/// The first call doubles `setup_reps` until a sample lasts at least 2 ms,
/// so microsecond set-ups are timed over enough work to be steady.
pub fn setup<W: Workload>(w: &W, seed: u64, m: &mut Measured) -> Vec<W::Instance> {
    let build = |sp: &mut Spans| -> Vec<W::Instance> {
        (0..w.rotation()).map(|i| w.instance(seed, i, sp)).collect()
    };
    m.setup_reps = m.setup_reps.max(1);
    loop {
        let t = Instant::now();
        let mut insts = build(&mut m.setup_spans);
        for _ in 1..m.setup_reps {
            insts = std::hint::black_box(build(&mut m.setup_spans));
        }
        let dt = secs(t);
        m.setup_builds += m.setup_reps;
        m.setup_spent += dt;
        if dt < 0.002 && m.setup.is_empty() {
            m.setup_reps *= 2;
            continue;
        }
        m.setup.push(dt / f64::from(m.setup_reps));
        return insts;
    }
}

/// Time iterations for `window` (and at least one full rotation), verify
/// each instance's first output, and require every repeat to match it.
///
/// Between iterations, further set-up samples are taken while their total
/// stays under [`SETUP_BUDGET_S`] prorated over the window, so a cheap
/// set-up is sampled across the whole run rather than in its first moments
/// (host speed on shared machines changes over seconds). At least three
/// samples are taken in all.
pub fn measure<W: Workload>(
    w: &W,
    seed: u64,
    insts: &mut [W::Instance],
    window: Duration,
    m: &mut Measured,
) -> Vec<Option<W::Output>> {
    let mut first: Vec<Option<W::Output>> = insts.iter().map(|_| None).collect();
    m.tallies = vec![Tally::default(); insts.len()];
    let begin = Instant::now();
    let mut it = 0;
    while it < insts.len() || begin.elapsed() < window {
        let i = it % insts.len();
        it += 1;
        let c0 = cpu_seconds();
        let t = Instant::now();
        let out = std::hint::black_box(w.run(std::hint::black_box(&mut insts[i])));
        m.wall.push(secs(t));
        m.cpu_s += cpu_seconds() - c0;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                if m.tallies[i].errors == 0 {
                    m.tallies[i].fail_all(w.calls(), format!("instance {i}: {e}"));
                }
                continue;
            }
        };
        let (rounds, batches) = w.work(&out);
        m.rounds += rounds;
        m.batches += batches;
        match &first[i] {
            None => {
                w.check(&insts[i], &out, &mut m.tallies[i]);
                first[i] = Some(out);
            }
            Some(prev) if *prev != out => m.tallies[i].fail_all(
                w.calls(),
                format!("instance {i}: a repeat run differs from the first\n  first {prev:?}\n  now   {out:?}"),
            ),
            Some(_) => {}
        }
        let share = ratio(begin.elapsed().as_secs_f64(), window.as_secs_f64()).min(1.0);
        while m.setup_spent < SETUP_BUDGET_S * share {
            setup(w, seed, m);
        }
    }
    while m.setup.len() < 3 {
        setup(w, seed, m);
    }
    first
}

/// Run every instance once more through the traced rebuild and require it
/// to reproduce the untraced output exactly.
pub fn trace<W: Workload>(
    w: &W,
    insts: &mut [W::Instance],
    untraced: &[Option<W::Output>],
    m: &mut Measured,
) {
    for (i, inst) in insts.iter_mut().enumerate() {
        let replay0 = m.traced.get("trace.replay_s");
        let t = Instant::now();
        let out = w.run_traced(inst, &mut m.traced);
        m.traced_wall.push(secs(t) - (m.traced.get("trace.replay_s") - replay0));
        match (out, &untraced[i]) {
            (Err(e), _) => m.tallies[i].fail_all(w.calls(), format!("traced instance {i}: {e}")),
            (Ok(out), Some(want)) if out != *want => m.tallies[i].fail_all(
                w.calls(),
                format!("traced instance {i} differs from the drivers\n  drivers {want:?}\n  traced  {out:?}"),
            ),
            _ => {}
        }
    }
}

/// A metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured, peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        ("wall_s", "s", median(&m.wall)),
        ("setup_s", "s", median(&m.setup)),
        ("peak_rss_mb", "MiB", peak_rss_mib),
    ]
}

/// Quartiles and sample count of the iteration and set-up times, for the
/// human-readable report and the record file.
pub fn distributions(m: &Measured) -> Vec<Metric> {
    let (w1, w3) = quartiles(&m.wall);
    let (s1, s3) = quartiles(&m.setup);
    vec![
        ("wall_s.q1", "s", w1),
        ("wall_s.q3", "s", w3),
        ("wall_s.samples", "count", m.wall.len() as f64),
        ("setup_s.q1", "s", s1),
        ("setup_s.q3", "s", s3),
        ("setup_s.samples", "count", m.setup.len() as f64),
    ]
}

/// The per-layer metrics of a traced run. Span totals are divided by the
/// number of traced iterations (set-up spans by the number of set-ups), so
/// every time and count is per iteration like `wall_s`.
pub fn per_layer<W: Workload>(w: &W, m: &Measured) -> Vec<Metric> {
    let sp = &m.traced;
    let iters = m.traced_wall.len().max(1) as f64;
    let g = |name: &str| sp.get(name);
    let per = |name: &str| sp.get(name) / iters;
    let per_setup = |name: &str| m.setup_spans.get(name) / f64::from(m.setup_builds.max(1));

    let fw_engine_s = g("framework.setup_s") + g("framework.query_s");
    let cg_engine_s = g("congest.engine_s");
    let pq_self = self_time(g("pquery.span_s"), &[g("pquery.oracle_s")]);
    let wall_sum: f64 = m.wall.iter().sum();
    let mut out: Vec<Metric> = vec![
        ("generators.busy_s", "s", per_setup("generators.busy_s")),
        ("graph.truth_s", "s", per_setup("graph.truth_s")),
        ("graph.ecc_s", "s", per("graph.ecc_s")),
        ("framework.setup_s", "s", per("framework.setup_s")),
        (
            "framework.transport_s",
            "s",
            self_time(g("framework.query_s"), &[g("framework.alpha_s")]) / iters,
        ),
        ("framework.alpha_s", "s", per("framework.alpha_s")),
        ("framework.engine_runs", "count", per("framework.engine_runs")),
        ("framework.rounds", "count", per("framework.rounds")),
        ("framework.msgs", "count", per("framework.msgs")),
        ("framework.ns_per_round", "ns/round", 1e9 * ratio(fw_engine_s, g("framework.rounds"))),
        ("framework.s_per_engine_run", "s/run", ratio(fw_engine_s, g("framework.engine_runs"))),
        ("congest.leader_s", "s", per("congest.leader_s")),
        ("congest.bfs_tree_s", "s", per("congest.bfs_tree_s")),
        ("congest.all_sources_s", "s", per("congest.all_sources_s")),
        ("congest.rounds", "count", per("congest.rounds")),
        ("congest.msgs", "count", per("congest.msgs")),
        ("congest.bits", "count", per("congest.bits")),
        ("congest.ns_per_round", "ns/round", 1e9 * ratio(cg_engine_s, g("congest.rounds"))),
        ("congest.ns_per_msg", "ns/msg", 1e9 * ratio(cg_engine_s, g("congest.msgs"))),
        (
            "congest.msgs_per_node_round",
            "msgs/node/round",
            ratio(g("congest.msgs"), g("congest.node_rounds")),
        ),
        ("pquery.self_s", "s", pq_self / iters),
        ("pquery.oracle_s", "s", per("pquery.oracle_s")),
        ("pquery.batches", "count", per("pquery.batches")),
        ("pquery.queries", "count", per("pquery.queries")),
        ("pquery.fill", "ratio", ratio(g("pquery.queries"), g("pquery.slots"))),
        ("pquery.peeks", "count", per("pquery.peeks")),
        ("pquery.ns_per_batch", "ns/batch", 1e9 * ratio(pq_self, g("pquery.batches"))),
        ("qsim.self_s", "s", self_time(g("exact.call_s"), &[g("exact.engine_s")]) / iters),
        ("exact.engine_s", "s", per("exact.engine_s")),
        ("qsim.kernel_launches", "count", per("qsim.kernel_launches")),
        (
            "qsim.threads_per_launch",
            "threads/launch",
            ratio(g("qsim.kernel_threads"), g("qsim.kernel_launches")),
        ),
        ("qsim.matrix_applies", "count", per("qsim.matrix_applies")),
        ("qsim.diag_sweeps", "count", per("qsim.diag_sweeps")),
        ("qsim.bytes_computed", "B", per("qsim.bytes_computed")),
        ("proc.cpu_s", "s", ratio(m.cpu_s, m.wall.len() as f64)),
        ("proc.cpu_util", "ratio", ratio(m.cpu_s, wall_sum)),
        ("rounds_per_s", "rounds/s", ratio(m.rounds as f64, wall_sum)),
        ("batches_per_s", "batches/s", ratio(m.batches as f64, wall_sum)),
        ("fail_frac", "ratio", {
            let t = Tally::sum(&m.tallies);
            crate::stats::fail_frac(t.failed(), t.attempted)
        }),
    ];
    let traced = median(&m.traced_wall);
    let attributed: Vec<f64> = w
        .self_times()
        .iter()
        .map(|name| out.iter().find(|(n, _, _)| n == name).map_or(0.0, |&(_, _, v)| v))
        .collect();
    let traced_mean = m.traced_wall.iter().sum::<f64>() / iters;
    out.push(("trace.overhead_frac", "ratio", ratio(traced, median(&m.wall)) - 1.0));
    out.push(("trace.unattributed_s", "s", self_time(traced_mean, &attributed)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_call_fails_at_most_once() {
        // Three calls: one bounded-error miss, then the traced rebuild
        // disagrees, which fails every call of the instance.
        let mut t = Tally { attempted: 3, misses: 1, ..Tally::default() };
        t.fail_all(3, "traced rebuild differs".into());
        assert_eq!((t.attempted, t.failed()), (3, 3));
        // An `Err` before any check still counts the calls as attempted.
        let mut e = Tally::default();
        e.fail_all(2, "Err".into());
        assert_eq!((e.attempted, e.misses, e.errors), (2, 0, 2));
        let sum = Tally::sum([&t, &e]);
        assert_eq!((sum.attempted, sum.failed()), (5, 5));
        assert_eq!(crate::stats::fail_frac(sum.failed(), sum.attempted), 1.0);
    }
}

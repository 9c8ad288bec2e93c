//! `exact`: distributed Deutsch–Jozsa and Bernstein–Vazirani on a global
//! statevector (Theorem 17), at 20–22 total qubits — the workload where
//! `qsim` does the work.

use crate::trace::{secs, Spans, CONGEST};
use crate::workload::{Scale, Tally, Workload};
use crate::{mix, Stream};
use congest::bfs::build_bfs_tree;
use congest::generators::path;
use congest::graph::Graph;
use congest::runtime::Network;
use congest::tree_comm::{distribute_register, gather_register, Register, Schedule};
use dqc_core::exact::{exact_distributed_bv, exact_distributed_dj};
use qsim::deutsch_jozsa::DjAnswer;
use qsim::kernels::{auto_threads, set_thread_cap, thread_cap};
use qsim::metrics::{self, Counter};
use qsim::state::EPS;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One network with XOR-shared DJ and BV inputs and their answers.
#[derive(Debug)]
pub struct Case {
    g: Graph,
    leader: usize,
    /// Qubits per node register: `log₂ k` for DJ, the secret length for BV.
    q: usize,
    dj_shares: Vec<Vec<bool>>,
    dj_answer: DjAnswer,
    bv_shares: Vec<Vec<bool>>,
    bv_secret: Vec<bool>,
}

/// One exact call: its answer, measured rounds, and outcome probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    answer: Vec<bool>,
    rounds: u64,
    probability: f64,
}

/// Kernel threads the benchmark allows. With `auto_threads`' two threads
/// on a shared 2-vCPU host, a busy neighbour on one vCPU slowed an
/// iteration about 1.5×; one thread was unaffected. Results are
/// bit-identical across thread counts.
const THREADS: usize = 1;

/// Every case's DJ and BV call per iteration.
#[derive(Debug)]
pub struct Exact {
    /// `(path nodes, qubits per node)`.
    shapes: &'static [(usize, usize)],
}

impl Exact {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Exact { shapes: &[(11, 2), (7, 3), (5, 4)] },
            Scale::Smoke => Exact { shapes: &[(5, 2), (3, 3)] },
        }
    }
}

/// XOR shares over `n` nodes whose aggregate is `total`.
fn share(total: &[bool], n: usize, rng: &mut StdRng) -> Vec<Vec<bool>> {
    let mut shares: Vec<Vec<bool>> =
        (0..n).map(|_| (0..total.len()).map(|_| rng.gen_bool(0.5)).collect()).collect();
    for (i, &want) in total.iter().enumerate() {
        let parity = shares.iter().fold(false, |a, s| a ^ s[i]);
        shares[0][i] ^= parity ^ want;
    }
    shares
}

fn dj_bits(a: DjAnswer) -> Vec<bool> {
    vec![a == DjAnswer::Balanced]
}

/// `build_bfs_tree`, `distribute_register` and `gather_register` exactly as
/// the exact drivers call them, timed; returns the rounds the drivers
/// report (distribute + gather).
fn replay(case: &Case, sp: &mut Spans) -> Result<u64, String> {
    let t = Instant::now();
    let n = case.g.n();
    let net = Network::new(&case.g);
    let tree = sp
        .time("congest.bfs_tree_s", || build_bfs_tree(&net, case.leader))
        .map_err(|e| e.to_string())?;
    let reg = Register::from_value(case.q as u64, 0);
    let (copies, ds) = distribute_register(&net, &tree.views, reg, Schedule::Pipelined)
        .map_err(|e| e.to_string())?;
    let (_, gs) = gather_register(&net, &tree.views, copies).map_err(|e| e.to_string())?;
    let engine = secs(t);
    sp.add("exact.engine_s", engine);
    sp.add("congest.engine_s", engine);
    sp.add("trace.replay_s", engine);
    for s in [&tree.stats, &ds, &gs] {
        sp.run(&CONGEST, n, s);
    }
    Ok((ds.rounds + gs.rounds) as u64)
}

/// Time one exact call with the qsim counters on, then replay its engine
/// calls; the replay must report the same rounds.
fn traced_call(
    case: &Case,
    sp: &mut Spans,
    call: impl FnOnce() -> Result<Call, String>,
) -> Result<Call, String> {
    let launches = metrics::get(Counter::KernelLaunches);
    let t = Instant::now();
    let out = call()?;
    sp.add("exact.call_s", secs(t));
    let amps = 1u64 << (case.g.n() * case.q);
    // Computed, not measured: every launch reads and writes each 16-byte
    // amplitude once.
    sp.add(
        "qsim.bytes_computed",
        ((metrics::get(Counter::KernelLaunches) - launches) * amps * 32) as f64,
    );
    let rounds = replay(case, sp)?;
    if rounds != out.rounds {
        return Err(format!("replayed engine calls report {rounds} rounds, driver {}", out.rounds));
    }
    Ok(out)
}

fn dj(case: &Case) -> Result<Call, String> {
    let r =
        exact_distributed_dj(&case.g, case.leader, &case.dj_shares).map_err(|e| e.to_string())?;
    Ok(Call {
        answer: dj_bits(r.answer),
        rounds: r.rounds as u64,
        probability: r.outcome_probability,
    })
}

fn bv(case: &Case) -> Result<Call, String> {
    let r =
        exact_distributed_bv(&case.g, case.leader, &case.bv_shares).map_err(|e| e.to_string())?;
    Ok(Call { answer: r.recovered, rounds: r.rounds as u64, probability: r.outcome_probability })
}

impl Workload for Exact {
    type Instance = Vec<Case>;
    type Output = Vec<Call>;

    fn rotation(&self) -> usize {
        1
    }

    fn calls(&self) -> u64 {
        2 * self.shapes.len() as u64
    }

    fn instance(&self, seed: u64, i: usize, sp: &mut Spans) -> Vec<Case> {
        let mut rng = StdRng::seed_from_u64(mix(seed, Stream::Data, i as u64));
        self.shapes
            .iter()
            .map(|&(n, q)| {
                let g = sp.time("generators.busy_s", || path(n));
                let k = 1usize << q;
                let dj_answer =
                    if rng.gen_bool(0.5) { DjAnswer::Balanced } else { DjAnswer::Constant };
                let x: Vec<bool> = match dj_answer {
                    DjAnswer::Constant => vec![rng.gen_bool(0.5); k],
                    DjAnswer::Balanced => {
                        let mut x: Vec<bool> = (0..k).map(|j| j < k / 2).collect();
                        x.shuffle(&mut rng);
                        x
                    }
                };
                let bv_secret: Vec<bool> = (0..q).map(|_| rng.gen_bool(0.5)).collect();
                Case {
                    leader: rng.gen_range(0..n),
                    q,
                    dj_shares: share(&x, n, &mut rng),
                    dj_answer,
                    bv_shares: share(&bv_secret, n, &mut rng),
                    bv_secret,
                    g,
                }
            })
            .collect()
    }

    fn run(&self, cases: &mut Vec<Case>) -> Result<Vec<Call>, String> {
        set_thread_cap(THREADS);
        let mut out = Vec::with_capacity(2 * cases.len());
        for case in cases.iter() {
            out.push(dj(case)?);
            out.push(bv(case)?);
        }
        Ok(out)
    }

    fn run_traced(&self, cases: &mut Vec<Case>, sp: &mut Spans) -> Result<Vec<Call>, String> {
        set_thread_cap(THREADS);
        let before: Vec<u64> = COUNTERS.iter().map(|&(c, _)| metrics::get(c)).collect();
        metrics::enable(true);
        let out = cases.iter().try_fold(Vec::new(), |mut out, case| {
            out.push(traced_call(case, sp, || dj(case))?);
            out.push(traced_call(case, sp, || bv(case))?);
            Ok(out)
        });
        metrics::enable(false);
        for (&(c, name), b) in COUNTERS.iter().zip(before) {
            sp.add(name, (metrics::get(c) - b) as f64);
        }
        out
    }

    fn check(&self, cases: &Vec<Case>, out: &Vec<Call>, t: &mut Tally) {
        let want = cases.iter().flat_map(|c| [dj_bits(c.dj_answer), c.bv_secret.clone()]);
        for (i, (call, want)) in out.iter().zip(want).enumerate() {
            t.attempted += 1;
            let name = if i % 2 == 0 { "DJ" } else { "BV" };
            if call.answer != want || call.probability <= 1.0 - EPS {
                t.error(
                    1,
                    format!(
                        "{name} case {}: answer {:?} (want {want:?}) with probability {}",
                        i / 2,
                        call.answer,
                        call.probability
                    ),
                );
            }
        }
    }

    fn work(&self, out: &Vec<Call>) -> (u64, u64) {
        (out.iter().map(|c| c.rounds).sum(), 0)
    }

    fn pins(&self, out: &Vec<Call>) -> Vec<String> {
        out.iter()
            .enumerate()
            .map(|(i, c)| {
                let bits: String = c.answer.iter().map(|&b| if b { '1' } else { '0' }).collect();
                let name = if i % 2 == 0 { "dj" } else { "bv" };
                format!("{name} case={} answer={bits} rounds={}", i / 2, c.rounds)
            })
            .collect()
    }

    fn self_times(&self) -> &'static [&'static str] {
        &["qsim.self_s", "exact.engine_s"]
    }

    fn host(&self) -> Vec<(String, String)> {
        let mut lines = vec![("engine".to_string(), "Auto at n ≤ 11: Sequential".to_string())];
        let cap = thread_cap();
        set_thread_cap(0);
        for &(n, q) in self.shapes {
            lines.push((format!("qsim auto_threads({})", n * q), auto_threads(n * q).to_string()));
        }
        set_thread_cap(cap);
        lines.push(("qsim thread cap used".to_string(), THREADS.to_string()));
        lines
    }
}

/// The `qsim::metrics` counters the per-layer report reads, by span name.
const COUNTERS: [(Counter, &str); 4] = [
    (Counter::KernelLaunches, "qsim.kernel_launches"),
    (Counter::KernelThreads, "qsim.kernel_threads"),
    (Counter::MatrixApplies, "qsim.matrix_applies"),
    (Counter::DiagSweeps, "qsim.diag_sweeps"),
];

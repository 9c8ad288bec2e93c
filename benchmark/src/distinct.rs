//! `distinctness`: Lemma 5's parallel element distinctness over an
//! in-memory `VecSource`, at E4's largest inputs.

use crate::trace::{secs, Spans, TimedSource};
use crate::workload::{Scale, Tally, Workload};
use crate::{mix, Stream};
use pquery::distinctness::element_distinctness;
use pquery::oracle::{BatchSource, VecSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Batch widths run on every instance, as in E4.
const WIDTHS: [usize; 3] = [1, 8, 64];

/// `k` distinct values with one planted collision.
#[derive(Debug)]
pub struct Instance {
    data: Vec<u64>,
    pair: (usize, usize),
    seed: u64,
}

/// One `element_distinctness` call: the reported pair and the charged
/// batches and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    pair: Option<(usize, usize)>,
    batches: u64,
    queries: u64,
}

/// Element distinctness at `p` ∈ {1, 8, 64} on one instance per iteration.
#[derive(Debug)]
pub struct Distinctness {
    k: usize,
    instances: usize,
}

impl Distinctness {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Distinctness { k: 32768, instances: 64 },
            Scale::Smoke => Distinctness { k: 1024, instances: 2 },
        }
    }
}

fn rng_for(inst: &Instance, w: usize) -> StdRng {
    StdRng::seed_from_u64(mix(inst.seed, Stream::Algorithm, w as u64))
}

impl Workload for Distinctness {
    type Instance = Instance;
    type Output = Vec<Call>;

    fn rotation(&self) -> usize {
        self.instances
    }

    fn calls(&self) -> u64 {
        WIDTHS.len() as u64
    }

    fn instance(&self, seed: u64, i: usize, _sp: &mut Spans) -> Instance {
        let seed = mix(seed, Stream::Data, i as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rng.gen_range(0..self.k);
        let b = (a + rng.gen_range(1..self.k)) % self.k;
        let mut data: Vec<u64> = (0..self.k as u64).map(|v| 10_000 + v).collect();
        data[b] = data[a];
        Instance { data, pair: (a.min(b), a.max(b)), seed }
    }

    fn run(&self, inst: &mut Instance) -> Result<Vec<Call>, String> {
        let mut out = Vec::with_capacity(WIDTHS.len());
        for (w, &p) in WIDTHS.iter().enumerate() {
            let mut rng = rng_for(inst, w);
            let mut src = VecSource::new(inst.data.clone(), p);
            let res = element_distinctness(&mut src, &mut rng);
            out.push(Call { pair: res.pair, batches: res.batches as u64, queries: src.queries() });
        }
        Ok(out)
    }

    fn run_traced(&self, inst: &mut Instance, sp: &mut Spans) -> Result<Vec<Call>, String> {
        let mut out = Vec::with_capacity(WIDTHS.len());
        for (w, &p) in WIDTHS.iter().enumerate() {
            let mut rng = rng_for(inst, w);
            let mut inner = VecSource::new(inst.data.clone(), p);
            let mut src = TimedSource::new(&mut inner);
            let t = Instant::now();
            let res = element_distinctness(&mut src, &mut rng);
            sp.add("pquery.span_s", secs(t));
            sp.add("pquery.oracle_s", src.query_s);
            sp.add("pquery.peeks", src.peeks.get() as f64);
            sp.add("pquery.batches", src.batches() as f64);
            sp.add("pquery.queries", src.queries() as f64);
            sp.add("pquery.slots", (p * src.batches()) as f64);
            out.push(Call { pair: res.pair, batches: res.batches as u64, queries: src.queries() });
        }
        Ok(out)
    }

    fn check(&self, inst: &Instance, out: &Vec<Call>, t: &mut Tally) {
        for (call, &p) in out.iter().zip(&WIDTHS) {
            t.attempted += 1;
            match call.pair {
                // The only collision is the planted one.
                Some(pair) if pair == inst.pair => {}
                Some(pair) => {
                    t.error(1, format!("p={p}: reported {pair:?}, planted {:?}", inst.pair))
                }
                // Lemma 5 finds an existing pair with probability ≥ 2/3.
                None => t.misses += 1,
            }
        }
    }

    fn work(&self, out: &Vec<Call>) -> (u64, u64) {
        (0, out.iter().map(|c| c.batches).sum())
    }

    fn pins(&self, out: &Vec<Call>) -> Vec<String> {
        out.iter()
            .zip(&WIDTHS)
            .map(|(c, p)| {
                format!("p={p} pair={:?} batches={} queries={}", c.pair, c.batches, c.queries)
            })
            .collect()
    }

    fn self_times(&self) -> &'static [&'static str] {
        &["pquery.self_s", "pquery.oracle_s"]
    }

    fn host(&self) -> Vec<(String, String)> {
        vec![("engine".to_string(), "not used".to_string())]
    }
}

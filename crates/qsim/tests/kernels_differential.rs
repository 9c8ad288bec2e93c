//! Differential tests: the strided kernels ([`qsim::kernels`]) against the
//! seed's branch-per-index scans ([`qsim::reference`]), over random
//! circuits on the full gate set, at 1, 2 and 4 threads.
//!
//! Two distinct claims are checked:
//!
//! * **agreement** — fast and reference states match to fidelity
//!   `1 − 1e-12` (the phase-flip negation and chunked reductions may differ
//!   from the seed's trigonometric/linear folds in the last ulps);
//! * **determinism** — the fast kernels are **bit-identical** across thread
//!   counts, including the chunked reductions (`norm_sqr`, `prob_one`).

use proptest::prelude::*;
use qsim::complex::{c64, C64};
use qsim::kernels;
use qsim::reference;
use qsim::state::State;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The full gate set of [`State`].
#[derive(Debug, Clone)]
enum Gate {
    H(usize),
    X(usize),
    Z(usize),
    Phase(usize, f64),
    Cnot(usize, usize),
    CPhase(usize, usize, f64),
    Mcx(Vec<usize>, usize),
    Mcz(Vec<usize>, usize),
    GlobalPhase(f64),
}

/// Derive a deterministic gate tape from proptest-chosen indices.
fn build_tape(n: usize, picks: &[usize]) -> Vec<Gate> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let q = i % n;
            let r = (i + 1) % n;
            let theta = 0.2 + 0.41 * (i % 7) as f64;
            match k % 9 {
                0 => Gate::H(q),
                1 => Gate::X(q),
                2 => Gate::Z(q),
                3 => Gate::Phase(q, theta),
                4 if q != r => Gate::Cnot(q, r),
                5 if q != r => Gate::CPhase(q, r, theta),
                6 if n >= 3 => {
                    let t = (i + 2) % n;
                    Gate::Mcx(vec![q, r].into_iter().filter(|&c| c != t).collect(), t)
                }
                7 if q != r => Gate::Mcz(vec![q], r),
                8 => Gate::GlobalPhase(theta),
                _ => Gate::H(q),
            }
        })
        .collect()
}

fn mat_h() -> [[C64; 2]; 2] {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    [[c64(s, 0.0), c64(s, 0.0)], [c64(s, 0.0), c64(-s, 0.0)]]
}

fn mat_x() -> [[C64; 2]; 2] {
    [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]
}

fn mat_z() -> [[C64; 2]; 2] {
    [[C64::ONE, C64::ZERO], [C64::ZERO, c64(-1.0, 0.0)]]
}

fn mat_phase(theta: f64) -> [[C64; 2]; 2] {
    [[C64::ONE, C64::ZERO], [C64::ZERO, C64::from_polar(1.0, theta)]]
}

fn mask_of(controls: &[usize]) -> usize {
    controls.iter().map(|&c| 1usize << c).sum()
}

/// Apply one gate through the strided kernels with an explicit thread count.
fn apply_fast(amps: &mut [C64], g: &Gate, threads: usize) {
    match g {
        Gate::H(q) => kernels::apply_1q(amps, *q, mat_h(), threads),
        Gate::X(q) => kernels::apply_1q(amps, *q, mat_x(), threads),
        Gate::Z(q) => kernels::apply_1q(amps, *q, mat_z(), threads),
        Gate::Phase(q, th) => kernels::apply_1q(amps, *q, mat_phase(*th), threads),
        Gate::Cnot(c, t) => kernels::apply_controlled_1q(amps, 1 << c, *t, mat_x(), threads),
        Gate::CPhase(c, t, th) => {
            kernels::apply_controlled_1q(amps, 1 << c, *t, mat_phase(*th), threads)
        }
        Gate::Mcx(cs, t) => kernels::apply_controlled_1q(amps, mask_of(cs), *t, mat_x(), threads),
        Gate::Mcz(cs, t) => kernels::apply_controlled_1q(amps, mask_of(cs), *t, mat_z(), threads),
        Gate::GlobalPhase(th) => {
            let f = C64::from_polar(1.0, *th);
            kernels::apply_1q(amps, 0, [[f, C64::ZERO], [C64::ZERO, f]], threads)
        }
    }
}

/// Apply one gate through the seed's branch-per-index reference scans.
fn apply_ref(amps: &mut [C64], g: &Gate) {
    match g {
        Gate::H(q) => reference::apply_controlled_1q(amps, &[], *q, mat_h()),
        Gate::X(q) => reference::apply_controlled_1q(amps, &[], *q, mat_x()),
        Gate::Z(q) => reference::apply_controlled_1q(amps, &[], *q, mat_z()),
        Gate::Phase(q, th) => reference::apply_controlled_1q(amps, &[], *q, mat_phase(*th)),
        Gate::Cnot(c, t) => reference::apply_controlled_1q(amps, &[*c], *t, mat_x()),
        Gate::CPhase(c, t, th) => reference::apply_controlled_1q(amps, &[*c], *t, mat_phase(*th)),
        Gate::Mcx(cs, t) => reference::apply_controlled_1q(amps, cs, *t, mat_x()),
        Gate::Mcz(cs, t) => reference::apply_controlled_1q(amps, cs, *t, mat_z()),
        Gate::GlobalPhase(th) => reference::apply_phase_fn(amps, |_| *th),
    }
}

/// Apply one gate through [`State`]'s gate methods.
fn apply_state(s: &mut State, g: &Gate) {
    match g {
        Gate::H(q) => s.h(*q),
        Gate::X(q) => s.x(*q),
        Gate::Z(q) => s.z(*q),
        Gate::Phase(q, th) => s.phase(*q, *th),
        Gate::Cnot(c, t) => s.cnot(*c, *t),
        Gate::CPhase(c, t, th) => s.cphase(*c, *t, *th),
        Gate::Mcx(cs, t) => s.mcx(cs, *t),
        Gate::Mcz(cs, t) => s.mcz(cs, *t),
        Gate::GlobalPhase(th) => s.apply_phase_fn(|_| *th),
    }
}

/// A reproducible, richly-structured amplitude vector (not normalized —
/// none of the kernels require it).
fn seeded_amps(n: usize, seed: u64) -> Vec<C64> {
    let mut st = seed | 1;
    let mut next = || {
        st = st.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (st >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..1usize << n).map(|_| c64(next(), next())).collect()
}

/// `|⟨a|b⟩|² / (‖a‖²·‖b‖²)` for raw amplitude vectors.
fn fidelity(a: &[C64], b: &[C64]) -> f64 {
    let mut re = 0.0;
    let mut im = 0.0;
    for (x, y) in a.iter().zip(b) {
        // ⟨x|y⟩ accumulates conj(x)·y.
        re += x.re * y.re + x.im * y.im;
        im += x.re * y.im - x.im * y.re;
    }
    (re * re + im * im) / (reference::norm_sqr(a) * reference::norm_sqr(b))
}

fn assert_bit_identical(a: &[C64], b: &[C64], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: amplitude {i} differs: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast kernels agree with the reference scans on random circuits, and
    /// are bit-identical across thread counts.
    #[test]
    fn kernels_match_reference_on_random_circuits(
        n in 2usize..=10,
        picks in proptest::collection::vec(0usize..9, 1..40),
        seed in any::<u64>(),
    ) {
        let tape = build_tape(n, &picks);
        let init = seeded_amps(n, seed);

        let mut ref_amps = init.clone();
        for g in &tape {
            apply_ref(&mut ref_amps, g);
        }

        let mut per_thread: Vec<Vec<C64>> = Vec::new();
        for &threads in &THREAD_COUNTS {
            let mut amps = init.clone();
            for g in &tape {
                apply_fast(&mut amps, g, threads);
            }
            per_thread.push(amps);
        }

        for (amps, &threads) in per_thread[1..].iter().zip(&THREAD_COUNTS[1..]) {
            assert_bit_identical(&per_thread[0], amps, &format!("1 vs {threads} threads"));
        }
        let f = fidelity(&per_thread[0], &ref_amps);
        prop_assert!(f > 1.0 - 1e-12, "fast/reference fidelity {f}");
    }

    /// The chunked reductions agree with the linear reference folds and are
    /// bit-identical across thread counts.
    #[test]
    fn reductions_deterministic_across_threads(
        n in 2usize..=10,
        seed in any::<u64>(),
    ) {
        let amps = seeded_amps(n, seed);
        let ns1 = kernels::norm_sqr(&amps, 1);
        for &threads in &THREAD_COUNTS[1..] {
            prop_assert_eq!(ns1.to_bits(), kernels::norm_sqr(&amps, threads).to_bits());
        }
        prop_assert!((ns1 - reference::norm_sqr(&amps)).abs() < 1e-12 * ns1.max(1.0));
        for q in 0..n {
            let p1 = kernels::prob_one(&amps, q, 1);
            for &threads in &THREAD_COUNTS[1..] {
                prop_assert_eq!(p1.to_bits(), kernels::prob_one(&amps, q, threads).to_bits());
            }
            prop_assert!((p1 - reference::prob_one(&amps, q)).abs() < 1e-12 * ns1.max(1.0));
        }
    }

    /// `State::sampler` (cumulative table + binary search) reproduces the
    /// seed's linear-scan sampler outcome-for-outcome on the same RNG
    /// stream.
    #[test]
    fn sampler_bit_compatible_with_seed_scan(
        n in 1usize..=8,
        picks in proptest::collection::vec(0usize..9, 1..20),
        seed in any::<u64>(),
    ) {
        let tape = build_tape(n, &picks);
        let mut s = State::zero(n);
        s.h_all(0..n);
        for g in &tape {
            apply_state(&mut s, g);
        }

        let amps: Vec<C64> = (0..1usize << n).map(|i| s.amplitude(i)).collect();
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let sampler = s.sampler();
        for _ in 0..32 {
            prop_assert_eq!(
                sampler.draw(&mut fast_rng),
                reference::sample(&amps, &mut ref_rng)
            );
        }
    }
}

/// Non-proptest spot check: a deep tape at n = 10 where every gate kind
/// appears, run once at each thread count, against the reference.
#[test]
fn deep_mixed_tape_all_thread_counts() {
    let n = 10;
    let picks: Vec<usize> = (0..120).map(|i| i % 9).collect();
    let tape = build_tape(n, &picks);
    let init = seeded_amps(n, 0xD1FF_5EED);

    let mut ref_amps = init.clone();
    for g in &tape {
        apply_ref(&mut ref_amps, g);
    }
    let mut first: Option<Vec<C64>> = None;
    for threads in THREAD_COUNTS {
        let mut amps = init.clone();
        for g in &tape {
            apply_fast(&mut amps, g, threads);
        }
        if let Some(f) = &first {
            assert_bit_identical(f, &amps, &format!("deep tape, {threads} threads"));
        } else {
            let f = fidelity(&amps, &ref_amps);
            assert!(f > 1.0 - 1e-12, "deep tape fidelity {f}");
            first = Some(amps);
        }
    }
}

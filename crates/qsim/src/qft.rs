//! The quantum Fourier transform, used by phase estimation (paper §6).
//!
//! Both transforms apply the textbook gates one by one through
//! [`State`]'s methods: a Hadamard per qubit, each followed (or, for the
//! inverse, preceded) by its controlled phases, plus the bit-reversal
//! swaps. The largest register the experiments transform is Lemma 29's
//! `t ≤ 10` counting qubits, so the `O(n²)` amplitude passes stay small.

use crate::state::State;
use std::f64::consts::PI;

/// Apply the QFT to `qubits` (treated as little-endian: `qubits[0]` is the
/// least-significant bit of the transformed register).
///
/// # Panics
///
/// Panics if a qubit repeats or is out of range.
pub fn qft(state: &mut State, qubits: &[usize]) {
    check(state, qubits);
    let n = qubits.len();
    // Standard circuit on a big-endian ordering, then reverse with swaps.
    for i in (0..n).rev() {
        state.h(qubits[i]);
        for j in (0..i).rev() {
            state.cphase(qubits[j], qubits[i], PI / (1 << (i - j)) as f64);
        }
    }
    reverse(state, qubits);
}

/// Apply the inverse QFT to `qubits`.
///
/// # Panics
///
/// Panics if a qubit repeats or is out of range.
pub fn iqft(state: &mut State, qubits: &[usize]) {
    check(state, qubits);
    reverse(state, qubits);
    for i in 0..qubits.len() {
        for j in 0..i {
            state.cphase(qubits[j], qubits[i], -PI / (1 << (i - j)) as f64);
        }
        state.h(qubits[i]);
    }
}

/// The bit-reversal permutation as CNOT-decomposed swaps.
fn reverse(state: &mut State, qubits: &[usize]) {
    let n = qubits.len();
    for i in 0..n / 2 {
        state.swap(qubits[i], qubits[n - 1 - i]);
    }
}

fn check(state: &State, qubits: &[usize]) {
    for (i, &q) in qubits.iter().enumerate() {
        assert!(q < state.num_qubits(), "qubit out of range");
        assert!(!qubits[..i].contains(&q), "repeated qubit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;
    use crate::reference;
    use crate::state::EPS;

    #[test]
    fn qft_of_zero_is_uniform() {
        let mut s = State::zero(3);
        qft(&mut s, &[0, 1, 2]);
        for i in 0..8 {
            assert!((s.probability(i) - 0.125).abs() < EPS);
        }
    }

    #[test]
    fn qft_iqft_roundtrip() {
        for idx in 0..8 {
            let mut s = State::basis(3, idx);
            qft(&mut s, &[0, 1, 2]);
            iqft(&mut s, &[0, 1, 2]);
            assert!((s.probability(idx) - 1.0).abs() < EPS, "basis {idx}");
        }
    }

    #[test]
    fn qft_matches_dft_matrix() {
        // QFT|x⟩ = (1/√N) Σ_y e^{2πi x y / N} |y⟩.
        let n = 3usize;
        let dim = 1usize << n;
        for x in 0..dim {
            let mut s = State::basis(n, x);
            qft(&mut s, &[0, 1, 2]);
            for y in 0..dim {
                let want = C64::from_polar(
                    1.0 / (dim as f64).sqrt(),
                    2.0 * PI * (x * y) as f64 / dim as f64,
                );
                let got = s.amplitude(y);
                assert!(
                    (got.re - want.re).abs() < 1e-9 && (got.im - want.im).abs() < 1e-9,
                    "x={x} y={y}: got {got} want {want}"
                );
            }
        }
    }

    #[test]
    fn qft_on_subset_of_qubits() {
        // QFT on qubits {1, 2} of a 3-qubit state leaves qubit 0 alone.
        let mut s = State::basis(3, 0b001);
        qft(&mut s, &[1, 2]);
        assert!((s.prob_one(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn circuit_form_matches_gatewise_form() {
        // `qft`/`iqft` must be bit-identical to the same gate sequence run
        // through the seed's branch-per-index scans.
        let qubits = [2usize, 0, 3, 1];
        let n = qubits.len();
        for idx in 0..16 {
            let mut s = State::basis(4, idx);
            s.phase(1, 0.3);
            let mut amps = s.amplitudes().to_vec();
            qft(&mut s, &qubits);
            for i in (0..n).rev() {
                reference::h(&mut amps, qubits[i]);
                for j in (0..i).rev() {
                    reference::cphase(&mut amps, qubits[j], qubits[i], PI / (1 << (i - j)) as f64);
                }
            }
            reference_swaps(&mut amps, &qubits);
            assert_eq!(s.amplitudes(), &amps[..], "qft, basis {idx}");

            iqft(&mut s, &qubits);
            reference_swaps(&mut amps, &qubits);
            for i in 0..n {
                for j in 0..i {
                    reference::cphase(&mut amps, qubits[j], qubits[i], -PI / (1 << (i - j)) as f64);
                }
                reference::h(&mut amps, qubits[i]);
            }
            assert_eq!(s.amplitudes(), &amps[..], "iqft, basis {idx}");
        }
    }

    fn reference_swaps(amps: &mut [C64], qubits: &[usize]) {
        let n = qubits.len();
        for i in 0..n / 2 {
            let (a, b) = (qubits[i], qubits[n - 1 - i]);
            reference::cnot(amps, a, b);
            reference::cnot(amps, b, a);
            reference::cnot(amps, a, b);
        }
    }
}

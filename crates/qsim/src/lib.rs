//! # qsim — a small statevector quantum-circuit simulator
//!
//! Exact-mode substrate for the reproduction of *"A Framework for
//! Distributed Quantum Queries in the CONGEST Model"* (van Apeldoorn &
//! de Vos, PODC 2022). The scalable experiments emulate quantum query
//! algorithms at the schedule level (crate `pquery`); this crate provides
//! the ground truth those emulations are validated against:
//!
//! * [`state`] — dense statevectors, gates, measurement: the one way to
//!   apply a gate;
//! * [`kernels`] — the strided, multi-threaded loops under every gate;
//! * [`mod@reference`] — the seed's branch-per-index scans, kept as the
//!   differential-test oracle;
//! * [`oracle`] — phase and XOR input oracles from classical data;
//! * [`qft`] — the quantum Fourier transform;
//! * [`grover`] — Grover/BBHT search (Lemma 2's sequential core);
//! * [`deutsch_jozsa`] — the exact algorithm behind §4.3;
//! * [`phase_estimation`] — QPE (Lemma 29);
//! * [`amplitude`] — amplitude amplification & estimation (Lemmas 27–28,
//!   Corollary 30).
//!
//! # Quickstart
//!
//! ```
//! use qsim::state::State;
//!
//! // A Bell pair.
//! let mut s = State::zero(2);
//! s.h(0);
//! s.cnot(0, 1);
//! assert!((s.probability(0b00) - 0.5).abs() < 1e-9);
//! assert!((s.probability(0b11) - 0.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod amplitude;
pub mod bernstein_vazirani;
pub mod complex;
pub mod deutsch_jozsa;
pub mod gf2;
pub mod grover;
pub mod kernels;
pub mod metrics;
pub mod oracle;
pub mod phase_estimation;
pub mod qft;
pub mod reference;
pub mod simon;
pub mod state;

pub use complex::{c64, C64};
pub use state::State;

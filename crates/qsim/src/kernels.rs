//! Strided, multi-threaded statevector kernels.
//!
//! Every gate in [`crate::state::State`] bottoms out here. The kernels
//! replace the seed's branch-per-index full scans (retained in
//! [`crate::reference`] as the differential-test oracle) with **strided
//! bit-pair loops**: a single-qubit gate on qubit `q` touches the pairs
//! `(i, i | 1<<q)` with the target bit clear in `i`, so the loops iterate
//! only those `2^{n-1}` base indices — as nested block/offset loops over
//! contiguous memory — instead of scanning all `2^n` indices and branching.
//! Controls are *hoisted out of the inner loop*: the iteration space is the
//! sub-cube where every control bit is 1, enumerated by a compressed
//! counter whose bits are expanded around the fixed (control and target)
//! positions, so no per-index mask test remains.
//!
//! ## Parallelism and determinism
//!
//! Kernels fan out with `std::thread::scope` over contiguous amplitude
//! chunks, the idiom of the `congest` parallel round engine. Results are
//! **bit-identical across thread counts**:
//!
//! * gate kernels are elementwise on disjoint pairs — each amplitude is
//!   written by exactly one thread with exactly the operations the
//!   sequential loop would perform, so there is nothing to merge;
//! * reductions ([`norm_sqr`], [`prob_one`]) accumulate per-chunk partial
//!   sums over *fixed* chunk boundaries ([`REDUCE_CHUNK`] amplitudes,
//!   independent of the thread count) and fold the partials in chunk
//!   order on the calling thread.
//!
//! [`auto_threads`] engages parallelism only for states of at least
//! [`PARALLEL_QUBIT_THRESHOLD`] qubits on hosts with more than one core;
//! below that the per-gate thread fan-out costs more than the scan.

use crate::complex::C64;
use crate::metrics::{self, Counter};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum qubit count at which [`auto_threads`] parallelizes. A `2^18`
/// amplitude pass (4 MiB) comfortably amortizes the scoped-thread spawn;
/// smaller states run the strided loops sequentially.
pub const PARALLEL_QUBIT_THRESHOLD: usize = 18;

/// Fixed reduction-chunk size (in amplitudes). Partial sums are taken per
/// `REDUCE_CHUNK` slice regardless of the thread count, which is what makes
/// reductions bit-identical across 1, 2, … threads.
pub const REDUCE_CHUNK: usize = 1 << 12;

/// Global upper bound on kernel threads (0 = uncapped). See
/// [`set_thread_cap`].
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Cap the number of threads any kernel will use (0 removes the cap).
///
/// Intended for benchmarks that want to isolate single-threaded kernel
/// gains from multi-threading gains; thread count never changes results,
/// only scheduling.
pub fn set_thread_cap(cap: usize) {
    THREAD_CAP.store(cap, Ordering::Relaxed);
}

/// The current thread cap (0 = uncapped).
pub fn thread_cap() -> usize {
    THREAD_CAP.load(Ordering::Relaxed)
}

/// The thread count the kernels pick for an `n`-qubit state: the host's
/// available parallelism for `n ≥ PARALLEL_QUBIT_THRESHOLD`, else 1,
/// clamped by [`set_thread_cap`].
pub fn auto_threads(n_qubits: usize) -> usize {
    let auto = if n_qubits >= PARALLEL_QUBIT_THRESHOLD {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        1
    };
    match thread_cap() {
        0 => auto,
        cap => auto.min(cap),
    }
}

/// Count one 2×2 pass over the state, run on `threads` workers.
fn count_matrix_pass(threads: usize) {
    metrics::bump(Counter::KernelLaunches, 1);
    metrics::bump(Counter::MatrixApplies, 1);
    metrics::bump(Counter::KernelThreads, threads as u64);
}

#[inline(always)]
fn pair_update(a: &mut C64, b: &mut C64, m: &[[C64; 2]; 2]) {
    let a0 = *a;
    let a1 = *b;
    *a = m[0][0] * a0 + m[0][1] * a1;
    *b = m[1][0] * a0 + m[1][1] * a1;
}

/// Sequential strided single-qubit kernel on a block-aligned slice.
fn apply_1q_seq(amps: &mut [C64], bit: usize, m: &[[C64; 2]; 2]) {
    for chunk in amps.chunks_exact_mut(bit << 1) {
        let (lo, hi) = chunk.split_at_mut(bit);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            pair_update(a, b, m);
        }
    }
}

/// Apply a single-qubit unitary `m` to qubit `q` of a `2^n` statevector.
///
/// # Panics
///
/// Panics if `amps.len()` is not a multiple of `2^{q+1}`.
pub fn apply_1q(amps: &mut [C64], q: usize, m: [[C64; 2]; 2], threads: usize) {
    let bit = 1usize << q;
    let block = bit << 1;
    assert!(amps.len().is_multiple_of(block), "state too small for qubit {q}");
    let threads = threads.max(1);
    count_matrix_pass(threads);
    if threads == 1 {
        apply_1q_seq(amps, bit, &m);
        return;
    }
    let num_blocks = amps.len() / block;
    if num_blocks >= threads {
        // Low/middle target: whole 2^{q+1} blocks are contiguous and
        // independent; hand each worker a contiguous run of blocks.
        let per = num_blocks.div_ceil(threads) * block;
        std::thread::scope(|s| {
            for chunk in amps.chunks_mut(per) {
                s.spawn(move || apply_1q_seq(chunk, bit, &m));
            }
        });
    } else {
        // High target: few huge blocks. Split each block at the target-bit
        // boundary and zip the halves — pair `o` is (lo[o], hi[o]) — then
        // chunk the zipped halves across workers.
        for chunk in amps.chunks_exact_mut(block) {
            let (lo, hi) = chunk.split_at_mut(bit);
            let per = bit.div_ceil(threads);
            std::thread::scope(|s| {
                for (lc, hc) in lo.chunks_mut(per).zip(hi.chunks_mut(per)) {
                    s.spawn(move || {
                        for (a, b) in lc.iter_mut().zip(hc.iter_mut()) {
                            pair_update(a, b, &m);
                        }
                    });
                }
            });
        }
    }
}

/// Insert a 0 bit at each position in `fixed` (ascending), spreading the
/// compressed counter `c` over the free bit positions.
#[inline(always)]
fn expand(mut c: usize, fixed: &[usize]) -> usize {
    for &p in fixed {
        let low = c & ((1usize << p) - 1);
        c = ((c >> p) << (p + 1)) | low;
    }
    c
}

/// A raw amplitude pointer shared across scoped workers.
///
/// Soundness rests on the kernels' index discipline: every compressed
/// counter value maps (via [`expand`]) to a distinct `(i, i | bit)` pair,
/// and distinct counters yield disjoint pairs, so workers handed disjoint
/// counter ranges never touch the same amplitude.
struct AmpsPtr(*mut C64);
unsafe impl Send for AmpsPtr {}
unsafe impl Sync for AmpsPtr {}

/// Apply a single-qubit unitary to qubit `q`, conditioned on every bit of
/// `ctrl_mask` being 1. `ctrl_mask == 0` reduces to [`apply_1q`].
///
/// The control test is hoisted out of the loop entirely: the kernel
/// iterates a compressed counter over the free (non-control, non-target)
/// bits and expands it around the fixed positions, so only the
/// `2^{n-1-|controls|}` live pairs are visited.
///
/// # Panics
///
/// Panics if the target bit is inside `ctrl_mask` or the masks exceed the
/// state.
pub fn apply_controlled_1q(
    amps: &mut [C64],
    ctrl_mask: usize,
    q: usize,
    m: [[C64; 2]; 2],
    threads: usize,
) {
    if ctrl_mask == 0 {
        apply_1q(amps, q, m, threads);
        return;
    }
    let n = amps.len().trailing_zeros() as usize;
    let bit = 1usize << q;
    assert!(ctrl_mask & bit == 0, "target cannot be its own control");
    assert!(ctrl_mask | bit < amps.len(), "control/target out of range");
    let fixed_mask = ctrl_mask | bit;
    // Fixed bit positions on the stack — no per-gate allocation.
    let mut fixed_buf = [0usize; usize::BITS as usize];
    let mut nf = 0;
    for p in 0..n {
        if fixed_mask >> p & 1 == 1 {
            fixed_buf[nf] = p;
            nf += 1;
        }
    }
    let fixed = &fixed_buf[..nf];
    let free = n - nf;
    let count = 1usize << free;
    let threads = threads.max(1).min(count);
    // The ctrl_mask == 0 case already counted inside its apply_1q call.
    count_matrix_pass(threads);
    if threads == 1 {
        for c in 0..count {
            let i = expand(c, fixed) | ctrl_mask;
            let j = i | bit;
            let a0 = amps[i];
            let a1 = amps[j];
            amps[i] = m[0][0] * a0 + m[0][1] * a1;
            amps[j] = m[1][0] * a0 + m[1][1] * a1;
        }
        return;
    }
    let ptr = AmpsPtr(amps.as_mut_ptr());
    let per = count.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let lo = t * per;
            let hi = ((t + 1) * per).min(count);
            let ptr = &ptr;
            let fixed = &fixed;
            s.spawn(move || {
                for c in lo..hi {
                    let i = expand(c, fixed) | ctrl_mask;
                    let j = i | bit;
                    // SAFETY: `expand` is injective and strictly monotone
                    // in `c`, `i` has the target bit clear and `j` set, so
                    // the pairs of disjoint counter ranges are disjoint
                    // amplitude sets (see `AmpsPtr`).
                    unsafe {
                        let pa = ptr.0.add(i);
                        let pb = ptr.0.add(j);
                        let a0 = *pa;
                        let a1 = *pb;
                        *pa = m[0][0] * a0 + m[0][1] * a1;
                        *pb = m[1][0] * a0 + m[1][1] * a1;
                    }
                }
            });
        }
    });
}

/// Negate the amplitude of every basis state selected by `pred` — the
/// `f(x) ∈ {0, π}` phase oracle without any trigonometry.
pub fn phase_flip_where<F: Fn(usize) -> bool + Sync>(amps: &mut [C64], pred: F, threads: usize) {
    metrics::bump(Counter::DiagSweeps, 1);
    let threads = threads.max(1);
    if threads == 1 {
        for (x, a) in amps.iter_mut().enumerate() {
            if pred(x) {
                *a = -*a;
            }
        }
        return;
    }
    let per = amps.len().div_ceil(threads);
    let pred = &pred;
    std::thread::scope(|s| {
        for (t, chunk) in amps.chunks_mut(per).enumerate() {
            s.spawn(move || {
                let base = t * per;
                for (off, a) in chunk.iter_mut().enumerate() {
                    if pred(base + off) {
                        *a = -*a;
                    }
                }
            });
        }
    });
}

/// Fold per-[`REDUCE_CHUNK`] partial sums in chunk order. `partial`
/// computes one chunk's sum; chunk boundaries are fixed, so the result is
/// independent of how chunks are scheduled onto threads.
fn chunked_sum<F: Fn(&[C64], usize) -> f64 + Sync>(
    amps: &[C64],
    threads: usize,
    partial: F,
) -> f64 {
    let chunks: Vec<&[C64]> = amps.chunks(REDUCE_CHUNK).collect();
    let mut partials = vec![0.0f64; chunks.len()];
    let threads = threads.max(1).min(chunks.len().max(1));
    if threads == 1 {
        for (t, chunk) in chunks.iter().enumerate() {
            partials[t] = partial(chunk, t * REDUCE_CHUNK);
        }
    } else {
        let per = chunks.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (slot, chunk_run) in partials.chunks_mut(per).zip(chunks.chunks(per)) {
                let base = chunk_run[0].as_ptr() as usize - amps.as_ptr() as usize;
                let base = base / std::mem::size_of::<C64>();
                let partial = &partial;
                s.spawn(move || {
                    for (i, (p, chunk)) in slot.iter_mut().zip(chunk_run).enumerate() {
                        *p = partial(chunk, base + i * REDUCE_CHUNK);
                    }
                });
            }
        });
    }
    partials.iter().sum()
}

/// `Σ|αᵢ|²` with fixed-chunk partial sums (bit-identical across thread
/// counts).
pub fn norm_sqr(amps: &[C64], threads: usize) -> f64 {
    chunked_sum(amps, threads, |chunk, _| chunk.iter().map(|a| a.norm_sqr()).sum())
}

/// Probability that qubit `q` reads 1: a strided sum over the upper half
/// of every `2^{q+1}` block — no per-index bit test.
pub fn prob_one(amps: &[C64], q: usize, threads: usize) -> f64 {
    let bit = 1usize << q;
    chunked_sum(amps, threads, |chunk, base| {
        // Within a fixed REDUCE_CHUNK slice, sum the entries whose target
        // bit is set. Chunks are power-of-two sized and aligned, so either
        // the whole chunk shares one target-bit value, or it contains
        // whole blocks.
        if REDUCE_CHUNK <= bit {
            if base & bit != 0 {
                chunk.iter().map(|a| a.norm_sqr()).sum()
            } else {
                0.0
            }
        } else {
            let mut s = 0.0;
            for block in chunk.chunks(bit << 1) {
                s += block[bit.min(block.len())..].iter().map(|a| a.norm_sqr()).sum::<f64>();
            }
            s
        }
    })
}

/// Complex sum with the same fixed-[`REDUCE_CHUNK`] partial-sum folding as
/// [`chunked_sum`], so the result is bit-identical across thread counts.
fn chunked_csum(amps: &[C64], threads: usize) -> C64 {
    let chunks: Vec<&[C64]> = amps.chunks(REDUCE_CHUNK).collect();
    let mut partials = vec![C64::ZERO; chunks.len()];
    let threads = threads.max(1).min(chunks.len().max(1));
    if threads == 1 {
        for (p, chunk) in partials.iter_mut().zip(&chunks) {
            *p = chunk.iter().copied().sum();
        }
    } else {
        let per = chunks.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (slot, chunk_run) in partials.chunks_mut(per).zip(chunks.chunks(per)) {
                s.spawn(move || {
                    for (p, chunk) in slot.iter_mut().zip(chunk_run) {
                        *p = chunk.iter().copied().sum();
                    }
                });
            }
        });
    }
    partials.iter().copied().sum()
}

/// The Grover diffusion `I − 2|u⟩⟨u|` over the `q` low qubits, where `|u⟩`
/// is the uniform superposition: within every contiguous `2^q` block,
/// subtract twice the block mean from each amplitude. Two memory passes
/// replace the `H^{⊗q} · S₀ · H^{⊗q}` cascade's `2q + 1` strided passes —
/// the unitary is identical. Block means are folded from fixed
/// [`REDUCE_CHUNK`] partials, so the result is bit-identical across thread
/// counts.
pub fn inversion_about_mean(amps: &mut [C64], q: usize, threads: usize) {
    let block = 1usize << q;
    assert!(block <= amps.len(), "qubit range exceeds state size");
    let threads = threads.max(1);
    let nblocks = amps.len() / block;
    if nblocks == 1 {
        // Single block spanning the whole state: parallelize the sum and
        // the subtraction across the state itself.
        let s = chunked_csum(amps, threads);
        let shift = s.scale(2.0 / block as f64);
        if threads == 1 {
            for a in amps.iter_mut() {
                *a = *a - shift;
            }
            return;
        }
        let per = amps.len().div_ceil(threads);
        std::thread::scope(|sc| {
            for chunk in amps.chunks_mut(per) {
                sc.spawn(move || {
                    for a in chunk.iter_mut() {
                        *a = *a - shift;
                    }
                });
            }
        });
        return;
    }
    // Several blocks: hand contiguous runs of whole blocks to workers; each
    // block's mean only depends on its own amplitudes.
    let per_block = |blk: &mut [C64]| {
        let s = chunked_csum(blk, 1);
        let shift = s.scale(2.0 / block as f64);
        for a in blk.iter_mut() {
            *a = *a - shift;
        }
    };
    let threads = threads.min(nblocks);
    if threads == 1 {
        for blk in amps.chunks_exact_mut(block) {
            per_block(blk);
        }
        return;
    }
    let per = nblocks.div_ceil(threads) * block;
    std::thread::scope(|s| {
        for run in amps.chunks_mut(per) {
            let per_block = &per_block;
            s.spawn(move || {
                for blk in run.chunks_exact_mut(block) {
                    per_block(blk);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn haar_ish(n: usize, seed: u64) -> Vec<C64> {
        // A deterministic, unnormalized-but-nonzero amplitude vector.
        let mut v = Vec::with_capacity(1 << n);
        let mut s = seed | 1;
        for _ in 0..(1 << n) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let re = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let im = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            v.push(c64(re, im));
        }
        v
    }

    const H: [[C64; 2]; 2] = [
        [c64(std::f64::consts::FRAC_1_SQRT_2, 0.0), c64(std::f64::consts::FRAC_1_SQRT_2, 0.0)],
        [c64(std::f64::consts::FRAC_1_SQRT_2, 0.0), c64(-std::f64::consts::FRAC_1_SQRT_2, 0.0)],
    ];

    #[test]
    fn strided_matches_reference_all_targets() {
        for n in 1..=6 {
            for q in 0..n {
                let mut fast = haar_ish(n, 42 + q as u64);
                let mut refr = fast.clone();
                apply_1q(&mut fast, q, H, 1);
                crate::reference::apply_controlled_1q(&mut refr, &[], q, H);
                assert_eq!(fast, refr, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn controlled_matches_reference() {
        for n in 2..=6 {
            for q in 0..n {
                for c in 0..n {
                    if c == q {
                        continue;
                    }
                    let mut fast = haar_ish(n, 7 + (q * 31 + c) as u64);
                    let mut refr = fast.clone();
                    apply_controlled_1q(&mut fast, 1 << c, q, H, 1);
                    crate::reference::apply_controlled_1q(&mut refr, &[c], q, H);
                    assert_eq!(fast, refr, "n={n} q={q} c={c}");
                }
            }
        }
    }

    #[test]
    fn threads_are_bit_identical() {
        for q in [0usize, 3, 7] {
            let base = haar_ish(8, 5);
            let mut one = base.clone();
            apply_1q(&mut one, q, H, 1);
            for threads in [2usize, 3, 4, 8] {
                let mut many = base.clone();
                apply_1q(&mut many, q, H, threads);
                assert_eq!(one, many, "q={q} threads={threads}");
            }
            let mut one_c = base.clone();
            apply_controlled_1q(&mut one_c, 0b10 << q.min(5), q, H, 1);
            for threads in [2usize, 4] {
                let mut many = base.clone();
                apply_controlled_1q(&mut many, 0b10 << q.min(5), q, H, threads);
                assert_eq!(one_c, many, "ctrl q={q} threads={threads}");
            }
        }
    }

    #[test]
    fn reductions_bit_identical_across_threads() {
        let amps = haar_ish(10, 99);
        let one = norm_sqr(&amps, 1);
        for threads in [2usize, 3, 4] {
            assert!(norm_sqr(&amps, threads).to_bits() == one.to_bits());
        }
        for q in 0..10 {
            let one = prob_one(&amps, q, 1);
            for threads in [2usize, 4] {
                assert!(prob_one(&amps, q, threads).to_bits() == one.to_bits(), "q={q}");
            }
        }
    }

    #[test]
    fn prob_one_matches_reference() {
        let amps = haar_ish(9, 12);
        for q in 0..9 {
            let fast = prob_one(&amps, q, 1);
            let refr = crate::reference::prob_one(&amps, q);
            assert!((fast - refr).abs() < 1e-12, "q={q}: {fast} vs {refr}");
        }
    }

    #[test]
    fn inversion_about_mean_matches_h_cascade() {
        // I − 2|u⟩⟨u| == H^{⊗q} · S₀ · H^{⊗q}: check against the gate
        // cascade built from the reference kernels.
        let n = 6usize;
        let mut fast = haar_ish(n, 77);
        let mut cascade = fast.clone();
        inversion_about_mean(&mut fast, n, 1);
        for q in 0..n {
            crate::reference::h(&mut cascade, q);
        }
        for (x, a) in cascade.iter_mut().enumerate() {
            if x == 0 {
                *a = -*a;
            }
        }
        for q in 0..n {
            crate::reference::h(&mut cascade, q);
        }
        for x in 0..1usize << n {
            assert!((fast[x] - cascade[x]).norm_sqr() < 1e-24, "x={x}");
        }
    }

    #[test]
    fn inversion_about_mean_blocks_and_threads() {
        // q < n: each contiguous 2^q block is inverted about its own mean,
        // and the result is bit-identical for every thread count.
        let n = 13usize;
        let q = 5usize;
        let orig = haar_ish(n, 31);
        let mut one = orig.clone();
        inversion_about_mean(&mut one, q, 1);
        let block = 1usize << q;
        for (b, blk) in orig.chunks(block).enumerate() {
            let mut mean = C64::ZERO;
            for a in blk {
                mean += *a;
            }
            let mean = mean.scale(1.0 / block as f64);
            for (off, a) in blk.iter().enumerate() {
                let want = *a - mean.scale(2.0);
                assert!((one[b * block + off] - want).norm_sqr() < 1e-24, "b={b} off={off}");
            }
        }
        for threads in [2usize, 3, 4, 7] {
            let mut par = orig.clone();
            inversion_about_mean(&mut par, q, threads);
            assert_eq!(par, one, "threads={threads}");
        }
        // Single-block case (q == n) across thread counts.
        let mut whole = orig.clone();
        inversion_about_mean(&mut whole, n, 1);
        for threads in [2usize, 4] {
            let mut par = orig.clone();
            inversion_about_mean(&mut par, n, threads);
            assert_eq!(par, whole, "threads={threads}");
        }
    }

    #[test]
    fn phase_flip_negates_selected() {
        let mut amps = haar_ish(5, 8);
        let orig = amps.clone();
        phase_flip_where(&mut amps, |x| x % 3 == 0, 1);
        for x in 0..32usize {
            let want = if x % 3 == 0 { -orig[x] } else { orig[x] };
            assert_eq!(amps[x], want);
        }
        let mut par = orig.clone();
        phase_flip_where(&mut par, |x| x % 3 == 0, 4);
        assert_eq!(par, amps);
    }

    #[test]
    fn expand_skips_fixed_positions() {
        // fixed = {1, 3}: counter bits land at positions 0, 2, 4, ...
        let fixed = [1usize, 3];
        let got: Vec<usize> = (0..8).map(|c| expand(c, &fixed)).collect();
        assert_eq!(
            got,
            vec![0b00000, 0b00001, 0b00100, 0b00101, 0b10000, 0b10001, 0b10100, 0b10101]
        );
    }
}

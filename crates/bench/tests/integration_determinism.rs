//! Cross-crate integration: reproducibility and robustness — identical
//! seeds replay identical executions, constrained bandwidth degrades
//! rounds but never correctness, and resource-limit errors surface
//! cleanly.

use congest::generators::{grid, path, random_connected_m};
use congest::runtime::{Network, RuntimeError};
use dqc_core::deutsch_jozsa::{quantum_dj, DjInstance};
use dqc_core::eccentricity::quantum_diameter;
use dqc_core::scheduling::{quantum_meeting_scheduling, MeetingInstance};
use pquery::deutsch_jozsa::DjAnswer;

#[test]
fn same_seed_replays_identical_execution() {
    let g = random_connected_m(40, 60, 9);
    let net = Network::new(&g);
    let a = quantum_diameter(&net, 1234).unwrap();
    let b = quantum_diameter(&net, 1234).unwrap();
    assert_eq!(a.value, b.value);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.ledger.phases().len(), b.ledger.phases().len());
    for ((na, sa), (nb, sb)) in a.ledger.phases().iter().zip(b.ledger.phases()) {
        assert_eq!(na, nb);
        assert_eq!(sa, sb, "phase {na} diverged");
    }
}

#[test]
fn different_seeds_may_change_cost_but_not_soundness() {
    let g = grid(5, 4);
    let net = Network::new(&g);
    let truth = g.diameter().unwrap();
    for seed in 0..5 {
        let r = quantum_diameter(&net, seed).unwrap();
        // Soundness: always a genuine eccentricity.
        assert_eq!(g.eccentricity(r.node), Some(r.value));
        assert!(r.value <= truth);
    }
}

#[test]
fn tight_bandwidth_degrades_rounds_not_answers() {
    let g = path(12);
    let inst = MeetingInstance::random(12, 256, 0.4, 7);
    let id_bits = congest::graph::bits_for(11);
    let generous = Network::new(&g).with_bandwidth(16 * id_bits);
    let tight = Network::new(&g).with_bandwidth(3 * id_bits);
    let rg = quantum_meeting_scheduling(&generous, &inst, 5).unwrap();
    let rt = quantum_meeting_scheduling(&tight, &inst, 5).unwrap();
    assert_eq!(inst.attendance()[rg.slot], rg.attendance);
    assert_eq!(inst.attendance()[rt.slot], rt.attendance);
    assert!(rt.rounds > rg.rounds, "tight cap should cost more: {} vs {}", rt.rounds, rg.rounds);
}

#[test]
fn dj_exactness_survives_any_bandwidth() {
    let g = path(8);
    let inst = DjInstance::random(8, 64, DjAnswer::Balanced, 3);
    for factor in [3u64, 4, 10] {
        let net = Network::new(&g).with_bandwidth(factor * congest::graph::bits_for(7));
        let r = quantum_dj(&net, &inst, 1).unwrap().unwrap();
        assert_eq!(r.answer, DjAnswer::Balanced, "factor {factor}");
    }
}

#[test]
fn round_limit_error_surfaces() {
    let g = path(30);
    let net = Network::new(&g).with_round_limit(3);
    let err = congest::bfs::build_bfs_tree(&net, 0).unwrap_err();
    // In three rounds nodes 0..=2 announce; node 2's round-2 sends are
    // still in flight and nodes 3..=29 have not announced.
    assert_eq!(
        err,
        RuntimeError::RoundLimitExceeded {
            limit: 3,
            last_active_round: Some(2),
            not_done: 27,
            first_not_done: Some(3),
            in_flight: 3,
        }
    );
}

#[test]
fn stats_internally_consistent() {
    let g = grid(4, 4);
    let net = Network::new(&g);
    let r = quantum_diameter(&net, 2).unwrap();
    assert_eq!(r.rounds, r.ledger.total_rounds());
    // Any phase's per-edge load stays within the cap.
    for (_, stats) in r.ledger.phases() {
        assert!(stats.max_edge_bits <= net.cap_bits());
        assert!(stats.total_bits >= stats.messages, "messages are ≥ 1 bit each");
    }
}

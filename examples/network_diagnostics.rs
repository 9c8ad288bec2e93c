//! Graph-theoretic self-diagnostics (§5) plus the telemetry showcase: the
//! network measures its own diameter, radius, average eccentricity and
//! girth with the paper's quantum algorithms — the input *is* the
//! topology — and then profiles a faulted run of its own control
//! protocols, printing the phase breakdown, retry counters, and per-edge
//! congestion heatmap from a `congest::telemetry::Collector`.
//!
//! ```text
//! cargo run --release -p dqc-core --example network_diagnostics
//! ```

use congest::bfs::{build_bfs_tree, BfsTreeProtocol};
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::{cycle_with_body, grid};
use congest::runtime::Network;
use congest::telemetry::Collector;
use congest::tree_comm::{BroadcastRegisterProtocol, Register, Schedule};
use dqc_core::eccentricity::{quantum_average_eccentricity, quantum_diameter, quantum_radius};
use dqc_core::girth::{classical_girth, quantum_girth};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A data-center pod: a grid fabric.
    let g = grid(12, 9);
    let net = Network::new(&g);
    println!("== grid fabric {}×{} (n = {}) ==", 12, 9, g.n());

    let d = quantum_diameter(&net, 1)?;
    println!(
        "diameter (Lemma 21)        : {:>4}   [{} rounds, truth {}]",
        d.value,
        d.rounds,
        g.diameter().unwrap()
    );
    let r = quantum_radius(&net, 1)?;
    println!(
        "radius (Lemma 21)          : {:>4}   [{} rounds, truth {}]",
        r.value,
        r.rounds,
        g.radius().unwrap()
    );
    let eps = 1.0;
    let a = quantum_average_eccentricity(&net, eps, 1)?;
    println!(
        "avg eccentricity (Lemma 22): {:>6.2} [{} rounds, truth {:.2}, ε = {eps}]",
        a.estimate,
        a.rounds,
        g.average_eccentricity().unwrap()
    );

    // A ring-backbone WAN with tree subnets: the interesting girth case.
    let g = cycle_with_body(8, 80, 5);
    let net = Network::new(&g);
    println!("\n== ring backbone with subnets (n = {}) ==", g.n());
    let q = quantum_girth(&net, 0.5, 2)?;
    let c = classical_girth(&net, 2)?;
    println!("girth quantum (Cor. 26)    : {:?}   [{} rounds]", q.girth, q.rounds);
    println!("girth classical baseline   : {:?}   [{} rounds]", c.girth, c.rounds);
    println!(
        "classical lower bound for girth is Ω(√n) ≈ {:.0} rounds [FHW12]",
        dqc_core::girth::classical_lower_bound(g.n())
    );

    // Telemetry showcase: profile the pod's own control protocols on a
    // lossy fabric — BFS tree construction and a configuration broadcast,
    // Reliable-wrapped, with 20% of messages dropped. The collector
    // records every round, the retry/backoff counters from the Reliable
    // wrapper, and cumulative per-edge load (hotspots = tree trunk edges
    // carrying the retransmit traffic).
    let g = grid(6, 5);
    let clean = Network::new(&g);
    let views = build_bfs_tree(&clean, 0)?.views;
    let net = Network::new(&g).with_faults(FaultPlan::new(7).with_drop_rate(0.2));
    let retry = RetryConfig::default();
    let mut col = Collector::new();

    col.enter("diagnostics");
    col.enter("bfs-tree");
    net.run_with(Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), retry), &mut col)?;
    col.exit();
    col.enter("config-broadcast");
    net.run_with(
        Reliable::wrap_all(
            BroadcastRegisterProtocol::instances(
                &views,
                Register::from_value(48, 0x0BAD_CAFE_F00D),
                6,
                Schedule::Pipelined,
            ),
            retry,
        ),
        &mut col,
    )?;
    col.exit();
    col.exit();

    println!("\n== telemetry: faulted control plane, grid(6x5), 20% drops ==");
    print!("{}", col.render(72));
    Ok(())
}

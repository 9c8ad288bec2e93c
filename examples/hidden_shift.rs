//! Hidden-shift discovery: the network's nodes hold XOR shares of a
//! function table promised to be 2-to-1 under an unknown shift `s`
//! (Simon's problem); the network must find `s`.
//!
//! This is the bounded-error exponential separation the paper's §4.3
//! footnote alludes to — quantum needs `O(m)` superposed queries, any
//! classical strategy pays the `Θ(2^{m/2})` birthday bound. The run also
//! demonstrates the round-engine's telemetry report.
//!
//! ```text
//! cargo run --release -p dqc-core --example hidden_shift
//! ```

use congest::bfs::BfsTreeProtocol;
use congest::generators::grid;
use congest::runtime::Network;
use congest::telemetry::Collector;
use dqc_core::simon::{classical_birthday_simon, quantum_simon, SimonInstance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = grid(4, 3);
    let net = Network::new(&g);
    let n = g.n();
    println!("network: {n}-node grid, D = {}\n", g.diameter().unwrap());

    println!(
        "{:>4}  {:>14}  {:>16}  {:>10}",
        "m", "quantum queries", "classical queries", "shift ok"
    );
    for m in [6usize, 8, 10, 12] {
        let s = (1u64 << (m - 1)) | 0b11;
        let inst = SimonInstance::random(n, m, s, m as u64);
        let q = quantum_simon(&net, &inst, 7)?;
        let c = classical_birthday_simon(&net, &inst, 7)?;
        println!(
            "{:>4}  {:>14}  {:>16}  {:>10}",
            m,
            q.queries,
            c.queries,
            q.shift == Some(s) && c.shift == Some(s),
        );
    }
    println!("\nQuantum grows linearly in m; classical doubles every two bits (birthday).");

    // Bonus: congestion profile of the BFS-tree phase on this topology.
    println!("\nBFS-tree construction congestion profile:");
    let mut col = Collector::new();
    col.enter("bfs-tree");
    net.run_with(BfsTreeProtocol::instances(n, 0), &mut col)?;
    col.exit();
    print!("{}", col.render(28));
    Ok(())
}

//! Define a switched-current testbench as SPICE-style text, then solve and
//! clock it — the text-netlist workflow a circuit designer expects.
//!
//! The circuit is a minimal second-generation SI memory cell: a
//! diode-connectable NMOS with a φ1 sampling switch, a bias source, and a
//! φ2 output path into a held bias.
//!
//! Run: `cargo run --release -p si-bench --example spice_netlist`

use si_analog::dc::DcSolver;
use si_analog::device::TwoPhaseClock;
use si_analog::engine::EngineWorkspace;
use si_analog::op_report::OpReport;
use si_analog::parse::parse_netlist;
use si_analog::tran::{run_chunk_with, TranParams};
use si_analog::units::Seconds;

const NETLIST: &str = "\
* second-generation SI memory cell testbench
V1  vdd 0   3.3
I1  vdd x   20u        ; bias current into the memory node
I2  0   xin 4u         ; signal current
S1  xin x   phi1 100 1e9
S2  xin dmp phi2 100 1e9
V2  dmp 0   1.05       ; dump bias for the off phase
C0  xin 0   0.2p
M1  x   g   0 0 NMOS W=32u L=2u
S3  x   g   phi1 100 1e9
C1  g   0   0.5p
S4  x   out phi2 100 1e9
V3  out 0   1.05       ; next stage virtual ground (ammeter)
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = parse_netlist(NETLIST)?;
    println!(
        "parsed {} elements, {} nodes, {} source branches",
        circuit.elements().len(),
        circuit.node_count(),
        circuit.branch_count()
    );

    // DC operating point (φ1 closed) and the designer's first look.
    let op = DcSolver::new().solve(&circuit)?;
    println!(
        "\noperating point report:\n{}",
        OpReport::of(&circuit, &op).render()
    );

    // Clock it: 1 MHz two-phase; watch the held output current on V3.
    let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05)?;
    let params = TranParams::new(Seconds(4e-6), Seconds(2e-9))?.with_clock(clock);
    let mut ws = EngineWorkspace::for_circuit(&circuit);
    let (result, _) = run_chunk_with(&circuit, &params, 0, params.steps(), &op, &mut ws)?;
    let branch = circuit.branch_of("V3")?;
    println!("held output current at φ2 midpoints:");
    for (k, s) in result.sample_phi2_currents(branch)?.iter().enumerate() {
        println!("  period {k}: {:+.2} µA", s.0 * 1e6);
    }
    println!("(bias + signal sampled during φ1, reproduced during φ2)");
    Ok(())
}

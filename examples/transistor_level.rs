//! Transistor-level tour: netlist the Fig. 1 class-AB half-cell, solve its
//! operating point, measure the GGA's conductance boost, then run a clocked
//! transient and watch the cell sample and hold a current.
//!
//! Run: `cargo run --release -p si-bench --example transistor_level`

use si_analog::cells::ClassAbCellDesign;
use si_analog::dc::{set_current_source, DcSolver};
use si_analog::device::TwoPhaseClock;
use si_analog::engine::EngineWorkspace;
use si_analog::smallsignal::port_conductance;
use si_analog::tran::{run_chunk_with, TranParams};
use si_analog::units::{Amps, Seconds};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cell = ClassAbCellDesign::default().build()?;
    println!(
        "class-AB half-cell netlist: {} elements, {} nodes",
        cell.cell.circuit.elements().len(),
        cell.cell.circuit.node_count()
    );

    // DC operating point.
    let op = DcSolver::new()
        .with_initial_guess(cell.cell.initial_guess.clone())
        .solve(&cell.cell.circuit)?;
    println!("\noperating point:");
    println!("  input node  : {:.3} V", op.voltage(cell.cell.input).0);
    println!("  memory gate : {:.3} V", op.voltage(cell.cell.gate).0);
    println!("  GGA output  : {:.3} V", op.voltage(cell.gga_out).0);

    // The virtual-ground conductance.
    let g = port_conductance(&cell.cell.circuit, &op, cell.cell.input)?;
    println!("\ninput conductance with GGA: {:.2} mS", g.0 * 1e3);

    // Clocked transient: drive +4 µA during the run and read the held
    // output current at the φ2 midpoints.
    let mut ckt = cell.cell.circuit.clone();
    set_current_source(&mut ckt, &cell.cell.input_source, Amps(4e-6))?;
    let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05)?; // 1 MHz, slow & safe
    let params = TranParams::new(Seconds(4e-6), Seconds(2e-9))?.with_clock(clock);
    let mut ws = EngineWorkspace::for_circuit(&ckt);
    let (result, _) = run_chunk_with(&ckt, &params, 0, params.steps(), &op, &mut ws)?;
    let branch = ckt.branch_of(&cell.cell.output_ammeter)?;
    let samples = result.sample_phi2_currents(branch)?;
    println!("\nheld output current at φ2 midpoints (drive +4 µA):");
    for (k, s) in samples.iter().enumerate() {
        println!("  period {k}: {:+.2} µA", s.0 * 1e6);
    }
    println!("(sign is inverted by the memory mirror; magnitude tracks the drive)");
    Ok(())
}

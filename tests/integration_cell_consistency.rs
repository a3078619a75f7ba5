//! Consistency between the transistor-level netlists (`si-analog`) and the
//! behavioral cell models (`si-core`): the behavioral parameters must be
//! derivable from — and consistent with — what the netlist actually does.

use si_analog::cells::{ClassACellDesign, ClassAbCellDesign, CmffDesign};
use si_analog::dc::{set_current_source, DcSolver};
use si_analog::smallsignal::port_conductance;
use si_analog::units::Amps;
use si_core::cm::{Cmff, CommonModeControl};
use si_core::params::ClassAbParams;
use si_core::Diff;

/// The behavioral `gga_gain` (150) must be of the same order as the boost
/// the transistor-level cell actually delivers.
#[test]
fn behavioral_gga_gain_matches_transistor_level_boost() {
    let ab = ClassAbCellDesign::default().build().unwrap();
    let op = DcSolver::new()
        .with_initial_guess(ab.cell.initial_guess.clone())
        .solve(&ab.cell.circuit)
        .unwrap();
    let g_ab = port_conductance(&ab.cell.circuit, &op, ab.cell.input).unwrap();

    let a = ClassACellDesign::default().build().unwrap();
    let op_a = DcSolver::new()
        .with_initial_guess(a.initial_guess.clone())
        .solve(&a.circuit)
        .unwrap();
    let g_a = port_conductance(&a.circuit, &op_a, a.input).unwrap();

    let boost = g_ab.0 / g_a.0;
    let behavioral = ClassAbParams::paper_08um().gga_gain;
    assert!(
        boost > behavioral / 3.0 && boost < behavioral * 3.0,
        "netlist boost {boost:.0}× vs behavioral gga_gain {behavioral:.0}"
    );
}

/// The transistor-level virtual ground: the input node must move less
/// than a few mV over the full signal range, i.e. the transmission error
/// implied by the netlist is in the behavioral model's class.
#[test]
fn netlist_virtual_ground_is_millivolt_class() {
    let ab = ClassAbCellDesign::default().build().unwrap();
    let mut ckt = ab.cell.circuit.clone();
    let mut guess = ab.cell.initial_guess.clone();
    let mut v = Vec::new();
    for i_ua in [-4.0, 0.0, 4.0] {
        set_current_source(&mut ckt, &ab.cell.input_source, Amps(i_ua * 1e-6)).unwrap();
        let sol = DcSolver::new()
            .with_initial_guess(guess.clone())
            .solve(&ckt)
            .unwrap();
        guess = sol.node_voltages();
        v.push(sol.voltage(ab.cell.input).0);
    }
    let swing = v[2] - v[0];
    assert!(
        swing.abs() < 5e-3,
        "input node moved {swing} V over 8 µA — not a virtual ground"
    );
}

/// The Fig. 2 netlist and the behavioral `Cmff` must agree on what reaches
/// the next stage: differential preserved, common mode suppressed by more
/// than an order of magnitude.
#[test]
fn cmff_netlist_and_behavioral_model_agree() {
    // Transistor level.
    let mut net = CmffDesign::default().build().unwrap();
    net.drive(Amps(0.0), Amps(0.0)).unwrap();
    let base = net.residual_common_mode().unwrap();
    net.drive(Amps(3e-6), Amps(2e-6)).unwrap();
    let with_signal = net.residual_common_mode().unwrap();
    let dm = net.differential_output().unwrap();
    let tl_cm_gain = (with_signal.0 - base.0) / 2e-6;
    let tl_dm_gain = dm.0 / 3e-6;

    // Behavioral.
    let mut cmff = Cmff::paper_08um();
    let y = cmff.process(Diff::from_modes(3e-6, 2e-6));
    let b_cm_gain = y.cm() / 2e-6;
    let b_dm_gain = y.dm() / 3e-6;

    assert!(
        (tl_dm_gain - 1.0).abs() < 0.05,
        "netlist dm gain {tl_dm_gain}"
    );
    assert!(
        (b_dm_gain - 1.0).abs() < 1e-9,
        "behavioral dm gain {b_dm_gain}"
    );
    assert!(tl_cm_gain.abs() < 0.15, "netlist cm gain {tl_cm_gain}");
    assert!(b_cm_gain.abs() < 0.05, "behavioral cm gain {b_cm_gain}");
}

/// The transistor-level transient sample-and-hold: the held output current
/// must respond to the programmed input current with the memory-mirror
/// inversion, matching the behavioral cell's sign convention.
#[test]
fn netlist_transient_hold_tracks_drive_like_behavioral_cell() {
    use si_analog::device::TwoPhaseClock;
    use si_analog::engine::EngineWorkspace;
    use si_analog::tran::{run_chunk_with, TranParams};
    use si_analog::units::Seconds;

    let cell = ClassAbCellDesign::default().build().unwrap();
    let op = DcSolver::new()
        .with_initial_guess(cell.cell.initial_guess.clone())
        .solve(&cell.cell.circuit)
        .unwrap();

    let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05).unwrap();
    let held_at = |drive_ua: f64| {
        let mut ckt = cell.cell.circuit.clone();
        set_current_source(&mut ckt, &cell.cell.input_source, Amps(drive_ua * 1e-6)).unwrap();
        let params = TranParams::new(Seconds(3e-6), Seconds(2e-9))
            .unwrap()
            .with_clock(clock);
        let mut ws = EngineWorkspace::for_circuit(&ckt);
        let (result, _) = run_chunk_with(&ckt, &params, 0, params.steps(), &op, &mut ws).unwrap();
        let branch = ckt.branch_of(&cell.cell.output_ammeter).unwrap();
        result.sample_phi2_currents(branch).unwrap()[2].0
    };
    let y_zero = held_at(0.0);
    let y_plus = held_at(4.0);
    let y_minus = held_at(-4.0);
    // The differential response (offset removed) is the negative of the
    // drive, like the behavioral cell's inversion.
    let gain_plus = (y_plus - y_zero) / 4e-6;
    let gain_minus = (y_minus - y_zero) / -4e-6;
    assert!(
        (gain_plus + 1.0).abs() < 0.25,
        "hold gain {gain_plus} (expected ≈ −1)"
    );
    assert!(
        (gain_minus + 1.0).abs() < 0.25,
        "hold gain {gain_minus} (expected ≈ −1)"
    );
}

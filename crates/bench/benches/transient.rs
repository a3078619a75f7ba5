//! Benchmark of the clocked transient engine: one full clock period of the
//! class-AB cell at the step size the sample-and-hold experiments use.
//! This bounds how much transistor-level simulation per experiment second
//! the harness can afford. The `tran_cell_chain_*` pairs time the same
//! step loop on the delay-line cell chain under each solver backend.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use si_analog::cells::{si_cell_chain, ClassAbCellDesign};
use si_analog::dc::{set_current_source, DcSolver};
use si_analog::device::TwoPhaseClock;
use si_analog::engine::EngineWorkspace;
use si_analog::solver::{BackendMode, BackendPolicy};
use si_analog::tran::{run_chunk_with, TranParams};
use si_analog::units::{Amps, Seconds};

fn bench_transient_period(c: &mut Criterion) {
    let cell = ClassAbCellDesign::default().build().unwrap();
    let mut ckt = cell.cell.circuit.clone();
    set_current_source(&mut ckt, &cell.cell.input_source, Amps(4e-6)).unwrap();
    let op = DcSolver::new()
        .with_initial_guess(cell.cell.initial_guess.clone())
        .solve(&ckt)
        .unwrap();
    let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05).unwrap();

    // One clock period at 2 ns steps = 500 Newton-solved time points.
    let params = TranParams::new(Seconds(1e-6), Seconds(2e-9))
        .unwrap()
        .with_clock(clock);
    let steps = params.steps();
    c.bench_function("tran_class_ab_cell_one_period", |b| {
        b.iter(|| {
            let mut ws = EngineWorkspace::for_circuit(&ckt);
            run_chunk_with(black_box(&ckt), &params, 0, steps, &op, &mut ws).unwrap()
        })
    });

    // Coarser steps for the scaling picture.
    let coarse = TranParams::new(Seconds(1e-6), Seconds(10e-9))
        .unwrap()
        .with_clock(clock);
    let coarse_steps = coarse.steps();
    c.bench_function("tran_class_ab_cell_one_period_coarse", |b| {
        b.iter(|| {
            let mut ws = EngineWorkspace::for_circuit(&ckt);
            run_chunk_with(black_box(&ckt), &coarse, 0, coarse_steps, &op, &mut ws).unwrap()
        })
    });

    // The same coarse period on a persistent workspace, which keeps the
    // assemble/factor/solve buffers warm across periods.
    c.bench_function("tran_one_period_reused_workspace", |b| {
        let mut ws = EngineWorkspace::for_circuit(&ckt);
        b.iter(|| run_chunk_with(black_box(&ckt), &coarse, 0, coarse_steps, &op, &mut ws).unwrap())
    });
}

// Dense-vs-sparse backend pairs on one clock period (32 steps) of the
// delay-line cell chain, from its DC operating point on a reused
// workspace: the transient counterpart of the `dc_cell_chain_*` pairs in
// `dc_solver.rs`, where every step pays assembly, factorization and
// back-substitution once per Newton iteration.
fn bench_backend_pairs(c: &mut Criterion) {
    let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05).unwrap();
    let params = TranParams::new(Seconds(1e-6), Seconds(1e-6 / 32.0))
        .unwrap()
        .with_clock(clock);
    let steps = params.steps();
    for stages in [48usize, 160] {
        let line = si_cell_chain(stages).unwrap();
        let op = DcSolver::new()
            .with_initial_guess(line.initial_guess.clone())
            .solve(&line.circuit)
            .unwrap();
        for (tag, mode) in [
            ("dense", BackendMode::ForceDense),
            ("sparse", BackendMode::ForceSparse),
        ] {
            c.bench_function(&format!("tran_cell_chain_{stages}_{tag}"), |b| {
                let mut ws = EngineWorkspace::for_circuit(&line.circuit);
                ws.set_backend_policy(BackendPolicy {
                    mode,
                    ..BackendPolicy::default()
                });
                b.iter(|| {
                    run_chunk_with(black_box(&line.circuit), &params, 0, steps, &op, &mut ws)
                        .unwrap()
                })
            });
        }
    }
}

criterion_group!(benches, bench_transient_period, bench_backend_pairs);
criterion_main!(benches);

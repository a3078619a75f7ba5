//! Benchmark of the clocked transient engine: one full clock period of the
//! class-AB cell at the step size the sample-and-hold experiments use.
//! This bounds how much transistor-level simulation per experiment second
//! the harness can afford.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use si_analog::cells::ClassAbCellDesign;
use si_analog::dc::{set_current_source, DcSolver};
use si_analog::device::TwoPhaseClock;
use si_analog::engine::EngineWorkspace;
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

criterion_group!(benches, bench_transient_period);
criterion_main!(benches);

//! E7 / Fig. 7 — SNDR ("Signal/(Noise+THD)") versus input level for both
//! modulators, OSR 128, 0 dB = 6 µA.
//!
//! The paper's two findings, both reproduced here:
//! * with the chips' **white (thermal) circuit noise**, the chopper and
//!   non-chopper curves overlap and the dynamic range is ≈ 10.5 bits —
//!   "the chopper stabilized SI modulator did not offer the performance
//!   superiority … the thermal noise determined the noise floor",
//! * with `--flicker`, the same comparison under **1/f-dominated** circuit
//!   noise shows the regime where chopping *does* pay (the ablation the
//!   paper argues from).
//!
//! An ideal (quantization-limited) overlay shows the > 13-bit bound the
//! paper cites. Series go to `target/experiments/fig7_sweep.tsv`; a
//! structured run report — per-level SNDR plus the transistor-level cell
//! bias solver health at each level's peak current — goes to
//! `target/experiments/exp_fig7_report.json`.
//!
//! Run: `cargo run --release -p si-bench --bin exp_fig7 [--quick] [--flicker]`

use si_analog::units::Amps;
use si_bench::report::Report;
use si_bench::run_report::{experiments_dir, PointRecord, RunReport};
use si_bench::solver_health::cell_bias_health;
use si_dsp::metrics::ideal_delta_sigma_sqnr_db;
use si_modulator::arch::SecondOrderTopology;
use si_modulator::ideal::IdealModulator;
use si_modulator::measure::MeasurementConfig;
use si_modulator::si::{ChopperSiModulator, NoiseModel, SiModulator, SiModulatorConfig};
use si_modulator::sweep::{fig7_levels, sndr_sweep, SweepResult};

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_fig7 failed: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let flicker = std::env::args().any(|a| a == "--flicker");
    let mut cfg = MeasurementConfig::paper_fig5();
    cfg.record_len = if quick { 16_384 } else { 65_536 };

    let mut base = SiModulatorConfig::paper_08um();
    if flicker {
        base.noise = NoiseModel::Flicker {
            rms: 120e-9,
            octaves: 20,
        };
    }
    let levels = fig7_levels();

    // Per-point determinism comes from `SiModulatorConfig::seed`, so the
    // parallel sweep is byte-identical to a serial loop (asserted by the
    // engine integration test).
    let plain = sndr_sweep(|| SiModulator::new(base), &levels, &cfg)?;
    let chopped = sndr_sweep(|| ChopperSiModulator::new(base), &levels, &cfg)?;
    let ideal = sndr_sweep(
        || IdealModulator::new(SecondOrderTopology::paper_scaled(), 6e-6),
        &levels,
        &cfg,
    )?;

    let noise_kind = if flicker { "1/f" } else { "white (thermal)" };
    let mut t = Report::new(&format!(
        "Fig. 7 — SNDR vs input level (OSR 128, 0 dB = 6 µA, {noise_kind} circuit noise)"
    ));
    for (i, &level) in levels.iter().enumerate() {
        t.row(
            &format!("SNDR at {level:+.0} dB"),
            "chopper ≈ non-chopper (white noise)",
            &format!(
                "plain {:5.1}  chopper {:5.1}  ideal {:5.1} dB",
                plain.points[i].sinad_db, chopped.points[i].sinad_db, ideal.points[i].sinad_db
            ),
        );
    }
    t.row(
        "dynamic range",
        "≈ 63 dB / 10.5 bit (both)",
        &format!(
            "plain {:.1} dB ({:.1} bit), chopper {:.1} dB ({:.1} bit)",
            plain.dynamic_range_db,
            plain.dynamic_range_bits(),
            chopped.dynamic_range_db,
            chopped.dynamic_range_bits()
        ),
    );
    t.row(
        "ideal (quantization-limited) DR",
        "> 13 bit",
        &format!(
            "{:.1} dB ({:.1} bit); theory {:.1} dB",
            ideal.dynamic_range_db,
            ideal.dynamic_range_bits(),
            ideal_delta_sigma_sqnr_db(2, 128.0)?
        ),
    );
    t.print();

    write_tsv(&levels, &plain, &chopped, &ideal)?;
    write_run_report(noise_kind, &levels, &plain, &chopped, &ideal)?;

    if flicker {
        // Chopping must win under 1/f noise.
        let gain = chopped.dynamic_range_db - plain.dynamic_range_db;
        println!("\nchopper advantage under 1/f noise: {gain:.1} dB");
        if gain < 3.0 {
            return Err(format!("chopper advantage only {gain:.1} dB under 1/f noise").into());
        }
    } else {
        // Paper's negative result: no chopper advantage under white noise.
        // (A residual ~3 dB comes from the chopped loop translating the
        // baseband-entering circuit junk out of band; the paper's measured
        // curves overlap to within a similar margin.)
        let gap = (chopped.dynamic_range_db - plain.dynamic_range_db).abs();
        if gap > 5.0 {
            return Err(
                format!("chopper and plain DR differ by {gap:.1} dB under white noise").into(),
            );
        }
        for r in [&plain, &chopped] {
            if !(9.0..=12.0).contains(&r.dynamic_range_bits()) {
                return Err(format!(
                    "dynamic range {:.1} bit outside the 10.5-bit class",
                    r.dynamic_range_bits()
                )
                .into());
            }
        }
        if ideal.dynamic_range_bits() < 12.0 {
            return Err("ideal overlay below 12 bits — quantization bound wrong".into());
        }
    }
    Ok(())
}

/// Assembles the structured run report: the behavioral SNDR numbers per
/// level, joined with a transistor-level solver-health record — the Fig. 1
/// class-AB cell biased at each level's peak input current — so the report
/// carries per-sweep-point Newton iteration counts and the total
/// factorization count next to the figure data.
fn write_run_report(
    noise_kind: &str,
    levels: &[f64],
    plain: &SweepResult,
    chopped: &SweepResult,
    ideal: &SweepResult,
) -> Result<(), Box<dyn std::error::Error>> {
    let (health, solver) = cell_bias_health(levels, Amps(6e-6))?;

    let mut report = RunReport::new("exp_fig7");
    report.note("artifact", "Fig. 7 SNDR vs input level, OSR 128");
    report.note("circuit_noise", noise_kind);
    report.note("full_scale", "6 uA");
    report.metric("dr_plain_db", plain.dynamic_range_db);
    report.metric("dr_chopper_db", chopped.dynamic_range_db);
    report.metric("dr_ideal_db", ideal.dynamic_range_db);
    report.metric("total_factorizations", solver.total_factorizations() as f64);
    for (i, (&level, h)) in levels.iter().zip(&health).enumerate() {
        let mut point = PointRecord::new(format!("level {level:+.0} dB"))
            .with("level_db", level)
            .with("plain_sndr_db", plain.points[i].sinad_db)
            .with("chopper_sndr_db", chopped.points[i].sinad_db)
            .with("ideal_sndr_db", ideal.points[i].sinad_db);
        for (name, value) in h.to_record().values {
            point = point.with(format!("cell_{name}"), value);
        }
        report.point(point);
    }
    report.set_solver(solver);
    let path = report.write(experiments_dir())?;
    println!("run report: {}", path.display());
    Ok(())
}

fn write_tsv(
    levels: &[f64],
    plain: &SweepResult,
    chopped: &SweepResult,
    ideal: &SweepResult,
) -> Result<(), Box<dyn std::error::Error>> {
    use std::fmt::Write as _;
    let mut out = String::from("# level_db\tplain_sndr_db\tchopper_sndr_db\tideal_sndr_db\n");
    for (i, level) in levels.iter().enumerate() {
        let _ = writeln!(
            out,
            "{level:.1}\t{:.2}\t{:.2}\t{:.2}",
            plain.points[i].sinad_db, chopped.points[i].sinad_db, ideal.points[i].sinad_db
        );
    }
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fig7_sweep.tsv");
    std::fs::write(&path, out)?;
    println!("\nsweep series written to {}", path.display());

    let series = |label: &str, r: &SweepResult| si_bench::plot::Series {
        label: label.to_string(),
        points: r.points.iter().map(|p| (p.level_db, p.sinad_db)).collect(),
    };
    let chart = si_bench::plot::Chart {
        title: "Fig. 7 — Signal/(Noise+THD) vs input level (OSR 128, 0 dB = 6 µA)".into(),
        x_label: "input level (dB)".into(),
        y_label: "SNDR (dB)".into(),
        x_scale: si_bench::plot::Scale::Linear,
        series: vec![
            series("non-chopper", plain),
            series("chopper", chopped),
            series("ideal (quantization only)", ideal),
        ],
    };
    if let Some(svg) = chart.render_svg() {
        let svg_path = dir.join("fig7_sweep.svg");
        std::fs::write(&svg_path, svg)?;
        println!("figure rendered to {}", svg_path.display());
    }
    Ok(())
}

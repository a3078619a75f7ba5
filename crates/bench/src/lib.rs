//! Experiment harness for the reproduction: shared measurement pipelines
//! and report formatting used by the `exp_*` binaries (one per table and
//! figure of the paper) and the Criterion benchmarks.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_cell` | Fig. 1 / Eqs. 1–2 — class-AB cell, GGA virtual ground, supply headroom |
//! | `exp_cmff` | Fig. 2 — common-mode feedforward vs feedback |
//! | `exp_ntf` | Eq. 3 — linear analysis and simulated NTF/STF |
//! | `exp_table1` | Table 1 — delay-line THD/SNR/power |
//! | `exp_fig5` | Fig. 5 — SI modulator output spectrum |
//! | `exp_fig6` | Fig. 6 — chopper-stabilized spectra, both taps |
//! | `exp_fig7` | Fig. 7 — SNDR vs input level, both modulators |
//! | `exp_table2` | Table 2 — modulator performance summary |
//! | `exp_noise_budget` | §V — the 33 nA / 45 dB / +21 dB / 66 dB noise chain |
//! | `exp_ablation` | DESIGN.md §5 — GGA gain, CMFF/CMFB/none, OSR and loop-order sweeps |
//! | `exp_monte_carlo` | mismatch yield: SINAD distribution over process spread |
//! | `exp_low_voltage` | the ref. \[15\] direction: supply sweep to the 1.2 V design point |
//! | `exp_mash` | MASH 2-1 cascade vs the single second-order loop |

// Validation sites deliberately use `!(x > 0.0)`-style negated
// comparisons: unlike `x <= 0.0`, they reject NaN as well.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
pub mod delay_line;
pub mod harness;
pub mod netfuzz;
pub mod plot;
pub mod report;
pub mod run_report;
pub mod solver_health;

pub use delay_line::{measure_delay_line, DelayLineMeasurement, DelayLineSetup};
pub use run_report::{PointRecord, RunReport};

//! # ffis-bench — the reproduction harness
//!
//! One subcommand per table/figure of the paper's evaluation section
//! (see DESIGN.md's experiment index), plus ablations, the §V-A
//! repair study, `scale` (the engine-law differential driver CI diffs
//! `DIGESTS.txt` from) and the `daemon` client. The `repro` binary
//! prints each table and saves it (with any PGM/CSV artifacts) under
//! `results/`. Nothing here judges wall-clock: time is measured by
//! `benchmark/`.
//!
//! ```text
//! repro table1 | table2 | table3 | table4
//! repro fig5 | fig6 | fig7 | fig8 | fig9
//! repro protect | repair | ablation-bits | ablation-shorn
//! repro all [--quick] [--runs N] [--seed S] [--grid G] [--out DIR]
//! ```

pub mod cli;
pub mod daemon_cli;
pub mod experiments;
pub mod report;

pub use cli::Options;
pub use report::{Report, Table};

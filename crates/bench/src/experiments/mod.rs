//! Experiment implementations, one per paper table/figure (see the
//! experiment index in DESIGN.md).

pub mod ablations;
pub mod campaigns;
pub mod extensions;
pub mod figures;
pub mod scale;
pub mod tables;

use crate::cli::Options;
use crate::report::Report;

/// All experiment names, in `repro all` execution order.
pub const ALL: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "read-vs-write",
    "protect",
    "ablation-bits",
    "ablation-shorn",
];

/// Dispatch one experiment by name.
pub fn run(name: &str, opts: &Options) -> Result<Report, String> {
    Ok(match name {
        "table1" => tables::table1(opts),
        "table2" => tables::table2(opts),
        "table3" => tables::table3(opts),
        "table4" => tables::table4(opts),
        "fig5" => figures::fig5(opts),
        "fig6" => figures::fig6(opts),
        "fig7" => campaigns::fig7(opts),
        "fig8" => figures::fig8(opts),
        "fig9" => figures::fig9(opts),
        "read-vs-write" => campaigns::read_vs_write(opts),
        "protect" => campaigns::protect(opts),
        "ablation-bits" => ablations::ablation_bits(opts),
        "ablation-shorn" => ablations::ablation_shorn(opts),
        "repair" => ablations::repair(opts),
        "profile" => extensions::profile(opts),
        "read-faults" => extensions::read_faults(opts),
        "checksum" => ablations::checksum(opts),
        "param-faults" => extensions::param_faults(opts),
        "scale" => scale::scale(opts),
        other => return Err(format!("unknown experiment '{}'", other)),
    })
}

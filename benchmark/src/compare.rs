//! Result sets and their comparison.
//!
//! A result set is what `benchmark all` writes: provenance plus, per
//! workload, the full report of each of its runs (one process and one
//! seed per run). `compare` reads two sets and applies each
//! end-to-end metric's bound to every workload it applies to.

use std::path::Path;

use ffis_daemon::json::{self, Json};

use crate::schema::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{summarize, Summary};

pub const SCHEMA: &str = "ffis-benchmark/1";

/// Assemble a result set from per-workload run reports.
pub fn result_set(
    provenance: Json,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace: bool,
    workloads: Vec<(&'static str, Vec<Json>)>,
) -> Json {
    let runs = workloads.first().map_or(0, |w| w.1.len());
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("provenance".into(), provenance),
        ("seed".into(), Json::Num(seed as f64)),
        ("runs".into(), Json::Num(runs as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("smoke".into(), Json::Bool(smoke)),
        ("trace".into(), Json::Bool(trace)),
        (
            "workloads".into(),
            Json::Arr(
                workloads
                    .into_iter()
                    .map(|(name, runs)| {
                        Json::Obj(vec![
                            ("workload".into(), Json::Str(name.into())),
                            ("runs".into(), Json::Arr(runs)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path.display(), e))?;
    let set = json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e))?;
    match set.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => Ok(set),
        other => Err(format!("{}: schema {:?}, expected {SCHEMA:?}", path.display(), other)),
    }
}

fn number(v: Option<&Json>) -> Option<f64> {
    match v {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

fn runs_of<'a>(set: &'a Json, workload: &str) -> &'a [Json] {
    set.get("workloads")
        .and_then(Json::as_arr)
        .and_then(|ws| {
            ws.iter().find(|w| w.get("workload").and_then(Json::as_str) == Some(workload))
        })
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// One value per run of `metric` on `workload` (`failed_share` is
/// derived from the runs' failure counts).
pub fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(set, workload)
        .iter()
        .filter_map(|run| {
            if metric == "failed_share" {
                let attempted = number(run.get("attempted"))?;
                Some(number(run.get("failed"))? / attempted.max(1.0))
            } else {
                number(run.get("metrics")?.get(metric)?.get("value"))
            }
        })
        .collect()
}

/// How one workload × metric pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound (or the quartile
    /// ranges overlap although the medians differ by more than it):
    /// neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn token(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric comparison.
#[derive(Debug, Clone, Copy)]
pub struct Judgement {
    pub verdict: Verdict,
    pub base: Summary,
    pub cand: Summary,
    /// Change for the worse as a share of the baseline median.
    pub share: f64,
    /// The wider of the two interquartile ranges over the baseline median.
    pub spread: f64,
}

/// Apply `def`'s bound and floor to a baseline and a candidate sample.
pub fn judge(def: &EndToEnd, base: &[f64], cand: &[f64]) -> Judgement {
    let (b, c) = (summarize(base), summarize(cand));
    // Positive `worse` is a change for the worse, in the metric's unit.
    let sign = if def.better == Better::Lower { 1.0 } else { -1.0 };
    let worse = sign * (c.median - b.median);
    let share = if b.median == 0.0 { 0.0 } else { worse / b.median.abs() };
    let spread = ((b.q3 - b.q1).max(c.q3 - c.q1)) / b.median.abs().max(f64::MIN_POSITIVE);
    let judged = |verdict| Judgement { verdict, base: b, cand: c, share, spread };
    if def.name == "failed_share" {
        // Any increase of the failed share is a regression.
        return judged(if worse > 0.0 { Verdict::Regressed } else { Verdict::Ok });
    }
    let every_candidate_better = {
        let key = |v: &f64| sign * v;
        let worst_cand = cand.iter().map(key).fold(f64::NEG_INFINITY, f64::max);
        let best_base = base.iter().map(key).fold(f64::INFINITY, f64::min);
        worst_cand < best_base
    };
    // A change smaller than the floor is no change at all.
    let within_floor = worse.abs() <= def.floor;
    let verdict = if share <= def.bound || within_floor {
        if spread <= def.bound || within_floor || every_candidate_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else {
        // Beyond the bound: certain only when the quartile ranges are
        // disjoint, the candidate's better quartile past the
        // baseline's worse one.
        let (cand_better_q, base_worse_q) =
            if def.better == Better::Lower { (c.q1, b.q3) } else { (c.q3, b.q1) };
        if sign * (cand_better_q - base_worse_q) > 0.0 || (b.n == 1 && c.n == 1) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    };
    judged(verdict)
}

/// Compare two result sets; returns the printed table and whether any
/// pair regressed.
pub fn compare(base: &Json, cand: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<15} {:>12} {:>12} {:>8} {:>6} {:>9}  {}\n",
        "workload", "metric", "baseline", "candidate", "change", "bound", "spread", "verdict"
    );
    let mut regressed = false;
    for (workload, _) in WORKLOADS {
        for def in &END_TO_END {
            let (b, c) = (values(base, workload, def.name), values(cand, workload, def.name));
            if b.is_empty() && c.is_empty() {
                continue;
            }
            if b.is_empty() || c.is_empty() {
                out.push_str(&format!(
                    "{:<14} {:<15} present in only one set: unresolved\n",
                    workload, def.name
                ));
                continue;
            }
            let j = judge(def, &b, &c);
            regressed |= j.verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{:<14} {:<15} {:>12.5} {:>12.5} {:>+7.1}% {:>5.0}% {:>8.1}%  {}\n",
                workload,
                def.name,
                j.base.median,
                j.cand.median,
                j.share * 100.0,
                def.bound * 100.0,
                j.spread * 100.0,
                j.verdict.token()
            ));
        }
    }
    (out, regressed)
}

/// Median, quartiles and spread of every end-to-end metric of a set.
pub fn summary(set: &Json) -> String {
    let mut out = format!(
        "{:<14} {:<15} {:>12} {:>12} {:>12} {:>8} {:>4}\n",
        "workload", "metric", "median", "q1", "q3", "spread", "n"
    );
    for (workload, _) in WORKLOADS {
        for def in &END_TO_END {
            let v = values(set, workload, def.name);
            if v.is_empty() {
                continue;
            }
            let s = summarize(&v);
            out.push_str(&format!(
                "{:<14} {:<15} {:>12.5} {:>12.5} {:>12.5} {:>7.1}% {:>4}\n",
                workload,
                def.name,
                s.median,
                s.q1,
                s.q3,
                crate::stats::spread(&v) * 100.0,
                s.n
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::end_to_end;

    fn wall() -> &'static EndToEnd {
        end_to_end("wall_s").unwrap()
    }

    #[test]
    fn within_bound_and_tight_is_ok() {
        let base = [1.00, 1.01, 0.99, 1.02, 1.00];
        let cand = [1.04, 1.05, 1.03, 1.06, 1.04];
        assert_eq!(judge(wall(), &base, &cand).verdict, Verdict::Ok);
    }

    #[test]
    fn beyond_bound_with_disjoint_quartiles_regresses() {
        let base = [1.00, 1.01, 0.99, 1.02, 1.00];
        let cand = [1.40, 1.41, 1.39, 1.42, 1.40];
        let j = judge(wall(), &base, &cand);
        assert_eq!(j.verdict, Verdict::Regressed);
        assert!((j.share - 0.40).abs() < 1e-9);
        // Higher-is-better metrics regress downwards.
        let rate = end_to_end("runs_per_s").unwrap();
        assert_eq!(judge(rate, &cand, &base).verdict, Verdict::Regressed);
        assert_eq!(judge(rate, &base, &cand).verdict, Verdict::Ok);
    }

    #[test]
    fn overlapping_quartiles_or_wide_spread_stay_unresolved() {
        let base = [1.0, 1.4, 0.8, 1.3, 0.9];
        let cand = [1.3, 1.5, 0.9, 1.6, 1.0];
        assert_eq!(judge(wall(), &base, &cand).verdict, Verdict::Unresolved);
        // Within the bound (or better), but noisier than the bound:
        // not "unchanged".
        let cand = [1.02, 1.4, 0.8, 1.3, 0.9];
        assert_eq!(judge(wall(), &base, &cand).verdict, Verdict::Unresolved);
        let cand = [0.95, 1.4, 0.8, 1.3, 0.9];
        assert_eq!(judge(wall(), &base, &cand).verdict, Verdict::Unresolved);
        // ... unless every candidate run beats every baseline run.
        let cand = [0.5, 0.7, 0.4, 0.65, 0.45];
        assert_eq!(judge(wall(), &base, &cand).verdict, Verdict::Ok);
    }

    #[test]
    fn floors_and_failed_share() {
        // 20 ms worse on a 50 ms first result is under the 30 ms floor.
        let first = end_to_end("first_result_s").unwrap();
        assert_eq!(judge(first, &[0.050], &[0.070]).verdict, Verdict::Ok);
        assert_eq!(judge(first, &[0.050], &[0.090]).verdict, Verdict::Regressed);
        let failed = end_to_end("failed_share").unwrap();
        assert_eq!(judge(failed, &[0.0, 0.0], &[0.0, 0.0]).verdict, Verdict::Ok);
        assert_eq!(judge(failed, &[0.0, 0.0], &[0.001, 0.001]).verdict, Verdict::Regressed);
    }

    #[test]
    fn a_set_compared_with_itself_is_all_ok() {
        let run = |wall: f64| {
            json::parse(&format!(
                "{{\"attempted\":10,\"failed\":0,\"metrics\":{{\"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}}}}}}"
            ))
            .unwrap()
        };
        let set = result_set(
            Json::Null,
            1,
            1.0,
            true,
            false,
            vec![("nyx_write", vec![run(1.0), run(1.1)])],
        );
        assert_eq!(values(&set, "nyx_write", "wall_s"), vec![1.0, 1.1]);
        assert_eq!(values(&set, "nyx_write", "failed_share"), vec![0.0, 0.0]);
        let (table, regressed) = compare(&set, &set);
        assert!(!regressed, "{table}");
        assert!(table.contains("nyx_write") && table.contains("wall_s") && table.contains("ok"));
        assert!(!table.contains("scan_meta"));
        assert!(summary(&set).contains("wall_s"));
    }
}

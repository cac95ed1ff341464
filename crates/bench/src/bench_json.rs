//! Machine-readable benchmark emission (`BENCH_*.json`).
//!
//! The report tables are for humans; CI archives the same numbers as
//! JSON artifacts so the perf trajectory (runs/s, wall time,
//! checkpoint hits, speedups) is queryable across commits. Documents
//! are [`ffis_daemon::json::Json`] values — the workspace's one JSON
//! emitter — and this module only decides where they land.

use std::path::PathBuf;

use ffis_daemon::json::Json;

/// Where benchmark JSON lands: `$FFIS_BENCH_JSON_DIR` when set (the CI
/// artifact staging directory), `target/bench-json` otherwise.
pub fn out_dir() -> PathBuf {
    std::env::var_os("FFIS_BENCH_JSON_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bench-json"))
}

/// Write one JSON document under [`out_dir`], returning the path.
/// Best-effort by design: a bench must never fail because an artifact
/// directory is read-only — the numbers were already printed.
pub fn save(name: &str, doc: &Json) -> Option<PathBuf> {
    save_in(&out_dir(), name, doc)
}

/// [`save`] into an explicit directory (the `repro` experiments write
/// next to their reports in `--out`).
pub fn save_in(dir: &std::path::Path, name: &str, doc: &Json) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(name);
    std::fs::write(&path, format!("{}\n", doc.render())).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_in_writes_the_document() {
        let dir = std::env::temp_dir().join(format!("ffis-bench-json-{}", std::process::id()));
        let doc = Json::Obj(vec![ffis_daemon::json::field("ok", Json::Num(1.0))]);
        let path = save_in(&dir, "BENCH_t.json", &doc).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":1}\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}

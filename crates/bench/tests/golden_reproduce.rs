//! Golden `reproduce` reports.
//!
//! `golden/<id>.md` is exactly what `reproduce <id>` prints on stdout
//! for the paper-scale ids whose every number is simulated: `fig14`,
//! `serving`, `batching` and `continuous`. Each test re-renders one id
//! and compares it byte for byte, so a change that moves any simulated
//! latency, throughput or table cell fails here rather than in a manual
//! diff of `reproduce all`.
//!
//! An intended change to one of these reports regenerates them with
//!
//! ```text
//! DFX_BLESS_GOLDEN=1 cargo test -p dfx-bench --test golden_reproduce
//! ```
//!
//! and says in the same change which numbers moved and why.

use dfx_bench::experiments::CATALOG;

/// Renders `id` as `reproduce` prints it and compares it with its golden
/// file (or rewrites the file under `DFX_BLESS_GOLDEN`).
fn check(id: &str, golden: &str) {
    let entry = CATALOG
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("`{id}` is not a catalog id"));
    let actual = (entry.run)(false).to_markdown() + "\n";
    if std::env::var_os("DFX_BLESS_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{id}.md", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, actual).expect("write golden report");
        return;
    }
    for (i, (a, e)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, e, "{id}: golden line {} differs", i + 1);
    }
    assert_eq!(actual, golden, "{id}: report length or line endings differ");
}

#[test]
fn fig14_report_matches_the_golden_file() {
    check("fig14", include_str!("golden/fig14.md"));
}

#[test]
fn serving_report_matches_the_golden_file() {
    check("serving", include_str!("golden/serving.md"));
}

#[test]
fn batching_report_matches_the_golden_file() {
    check("batching", include_str!("golden/batching.md"));
}

#[test]
fn continuous_report_matches_the_golden_file() {
    check("continuous", include_str!("golden/continuous.md"));
}

//! Golden `reproduce` reports.
//!
//! `golden/<id>.md` is exactly what `reproduce <id>` prints on stdout,
//! for every catalog id except `accuracy` (the one slow id, which runs
//! the functional model over its task sets). Each test re-renders one id and compares it byte for byte,
//! so a change that moves any simulated latency, throughput, table cell
//! or allocator row (the `memory` sweep's reserved and paged rows)
//! fails here rather than in a manual diff of `reproduce all`.
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

/// One test per golden id: `name => "id"` checks `golden/<id>.md`.
macro_rules! golden_tests {
    ($($name:ident => $id:literal,)*) => {$(
        #[test]
        fn $name() {
            check($id, include_str!(concat!("golden/", $id, ".md")));
        }
    )*};
}

golden_tests! {
    table1_report_matches_the_golden_file => "table1",
    fig3_report_matches_the_golden_file => "fig3",
    fig4_report_matches_the_golden_file => "fig4",
    fig8_report_matches_the_golden_file => "fig8",
    fig13_report_matches_the_golden_file => "fig13",
    fig14_report_matches_the_golden_file => "fig14",
    fig15_report_matches_the_golden_file => "fig15",
    fig16_report_matches_the_golden_file => "fig16",
    fig17_report_matches_the_golden_file => "fig17",
    fig18_report_matches_the_golden_file => "fig18",
    table2_report_matches_the_golden_file => "table2",
    ablation_report_matches_the_golden_file => "ablation",
    serving_report_matches_the_golden_file => "serving",
    batching_report_matches_the_golden_file => "batching",
    continuous_report_matches_the_golden_file => "continuous",
    memory_report_matches_the_golden_file => "memory",
    cluster_report_matches_the_golden_file => "cluster",
}

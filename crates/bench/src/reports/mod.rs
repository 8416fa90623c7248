//! Report generators: one function per table/figure/ablation, each
//! returning the text the corresponding `report_*` binary prints.
//!
//! Keeping these as library functions lets `report_all` regenerate every
//! experiment in one invocation (the data recorded in EXPERIMENTS.md).

pub mod ablations;
pub mod figures;
pub mod models;
pub mod table1;

/// Regenerates every report in experiment-index order.
/// A report section: title plus generator.
type Section = (&'static str, fn() -> String);

pub fn all() -> String {
    let mut out = String::new();
    let sections: Vec<Section> = vec![
        ("T1  — Table I", table1::report as fn() -> String),
        ("F7  — Fig. 7 segmented regression", figures::fig7),
        ("F8  — Fig. 8 cache-miss comparison", figures::fig8),
        ("F9  — Fig. 9 parallel-sort correlations", figures::fig9),
        (
            "F10a — Fig. 10a Memhist (SIFT, occurrences)",
            figures::fig10a,
        ),
        (
            "F10b — Fig. 10b Memhist (mlc remote, costs)",
            figures::fig10b,
        ),
        ("F11 — Fig. 11 Phasenprüfer", figures::fig11),
        (
            "X1  — ablation: batched vs multiplexed",
            ablations::acquisition,
        ),
        ("X2  — ablation: threshold cycling", ablations::cycling),
        (
            "X3  — ablation: Bonferroni correction",
            ablations::bonferroni,
        ),
        (
            "X4  — Memhist vs mlc verification",
            ablations::verify_memhist,
        ),
        (
            "X7  — ablation: normality of counter noise",
            ablations::normality,
        ),
        (
            "X8  — ablation: prefetcher contribution",
            ablations::prefetch,
        ),
        ("X5  — cross-machine transfer", ablations::transfer),
        ("X6  — classical models vs simulator", models::report),
    ];
    for (title, f) in sections {
        out.push_str(&format!("\n{}\n{}\n\n", title, "=".repeat(title.len())));
        out.push_str(&f());
        out.push('\n');
    }
    out
}

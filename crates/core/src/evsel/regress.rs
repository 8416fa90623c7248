//! Parameter regressions: "EvSel uses regressions to correlate parameters
//! with event counters. To find interdependencies, linear, quadratic, and
//! exponential regressions are created and evaluated" (§IV-A-2).
//!
//! A [`ParameterSweep`] holds one run set per value of a swept input
//! parameter (thread count, workload size, …); [`correlate`] fits all
//! three families per event and reports the winner with its R² — the
//! "regression function types, and the regression functions themselves …
//! along with their coefficients of determination" of Fig. 9.

use super::EvSel;
use crate::report::render_table;
use np_counters::catalog::EventId;
use np_counters::measurement::RunSet;
use np_stats::correlate::pearson_r;
use np_stats::regression::{best_fit, RegressionFit};

/// A swept input parameter with one measured run set per point.
#[derive(Debug, Clone)]
pub struct ParameterSweep {
    /// Name of the swept parameter ("threads", "size", …).
    pub parameter: String,
    /// `(parameter value, measurements)` pairs, ascending.
    pub points: Vec<(f64, RunSet)>,
}

impl ParameterSweep {
    /// Creates an empty sweep.
    pub fn new(parameter: impl Into<String>) -> Self {
        ParameterSweep {
            parameter: parameter.into(),
            points: Vec::new(),
        }
    }

    /// Adds one measured point.
    pub fn push(&mut self, value: f64, runs: RunSet) {
        self.points.push((value, runs));
    }

    /// Per-event series: mean counter value at each parameter point.
    pub fn series(&self, event: EventId) -> (Vec<f64>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (v, rs) in &self.points {
            if let Some(m) = rs.mean(event) {
                x.push(*v);
                y.push(m);
            }
        }
        (x, y)
    }

    /// Events covered by every point.
    pub fn events(&self) -> Vec<EventId> {
        let mut events: Option<Vec<EventId>> = None;
        for (_, rs) in &self.points {
            let e = rs.events();
            events = Some(match events {
                None => e,
                Some(prev) => prev.into_iter().filter(|x| e.contains(x)).collect(),
            });
        }
        events.unwrap_or_default()
    }
}

/// One event's correlation result.
#[derive(Debug, Clone)]
pub struct CorrelationRow {
    /// The event.
    pub event: EventId,
    /// Pearson correlation between parameter and mean counter value.
    pub pearson: f64,
    /// Best regression fit (by R² in the original space).
    pub best: RegressionFit,
    /// All evaluated fits, best first.
    pub fits: Vec<RegressionFit>,
}

/// The full sweep report.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Swept parameter name.
    pub parameter: String,
    /// Per-event rows, sorted by |Pearson r| descending.
    pub rows: Vec<CorrelationRow>,
}

impl SweepReport {
    /// Row for one event.
    pub fn row(&self, event: EventId) -> Option<&CorrelationRow> {
        self.rows.iter().find(|r| r.event == event)
    }

    /// Rows whose |r| meets `threshold` — the strong correlations EvSel
    /// surfaces (the paper highlights R > 0.95 and R > 0.99).
    pub fn strong(&self, threshold: f64) -> Vec<&CorrelationRow> {
        self.rows
            .iter()
            .filter(|r| r.pearson.abs() >= threshold)
            .collect()
    }

    /// Renders the Fig. 9-style table.
    pub fn render(&self) -> String {
        let mut out = format!("EvSel correlations vs {}\n\n", self.parameter);
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.event.name().to_string(),
                    format!("{:+.4}", r.pearson),
                    r.best.kind.name().to_string(),
                    r.best.formula(),
                    format!("{:.4}", r.best.r_squared),
                    format!("{:.2} %", 100.0 * r.best.slope_confidence()),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["event", "pearson", "family", "fit", "R^2", "confidence"],
            &rows,
        ));
        out
    }
}

/// Performs the correlation analysis for [`EvSel::correlate`].
pub fn correlate(_evsel: &EvSel, sweep: &ParameterSweep) -> SweepReport {
    let mut rows = Vec::new();
    for event in sweep.events() {
        let (x, y) = sweep.series(event);
        if x.len() < 4 {
            continue;
        }
        let Some(r) = pearson_r(&x, &y) else { continue };
        let Some((best, fits)) = best_fit(&x, &y) else {
            continue;
        };
        rows.push(CorrelationRow {
            event,
            pearson: r,
            best,
            fits,
        });
    }
    rows.sort_by(|a, b| {
        b.pearson
            .abs()
            .partial_cmp(&a.pearson.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    SweepReport {
        parameter: sweep.parameter.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_counters::measurement::Measurement;
    use np_simulator::HwEvent;

    fn point(seed: u64, pairs: &[(EventId, f64)]) -> RunSet {
        let mut rs = RunSet::new(format!("p{seed}"));
        for rep in 0..3 {
            let mut m = Measurement::new(seed * 10 + rep);
            for (e, v) in pairs {
                // Tiny deterministic jitter so t-test-able samples exist.
                m.values.insert(*e, v * (1.0 + rep as f64 * 1e-4));
            }
            rs.runs.push(m);
        }
        rs
    }

    fn sweep_with(f_lock: impl Fn(f64) -> f64, f_spec: impl Fn(f64) -> f64) -> ParameterSweep {
        let mut s = ParameterSweep::new("threads");
        for t in [1.0, 2.0, 4.0, 8.0, 16.0] {
            s.push(
                t,
                point(
                    t as u64,
                    &[
                        (HwEvent::L1dLocked, f_lock(t)),
                        (HwEvent::SpecJumpsRetired, f_spec(t)),
                        (HwEvent::Instructions, 1e6), // flat: no correlation
                    ],
                ),
            );
        }
        s
    }

    #[test]
    fn linear_positive_correlation_found() {
        let s = sweep_with(|t| 1000.0 + 500.0 * t, |t| 1e5 - 1000.0 * t);
        let rep = EvSel::default().correlate(&s);
        let row = rep.row(HwEvent::L1dLocked).unwrap();
        assert!(row.pearson > 0.99, "r = {}", row.pearson);
        assert!(row.best.r_squared > 0.99);
    }

    #[test]
    fn negative_correlation_found() {
        let s = sweep_with(|t| 1000.0 * t, |t| 2e5 * (-0.2 * t).exp());
        let rep = EvSel::default().correlate(&s);
        let row = rep.row(HwEvent::SpecJumpsRetired).unwrap();
        assert!(row.pearson < -0.8, "r = {}", row.pearson);
        // The generating family wins.
        assert_eq!(
            row.best.kind,
            np_stats::regression::RegressionKind::Exponential
        );
    }

    #[test]
    fn flat_series_is_weak() {
        let s = sweep_with(|t| 100.0 * t, |t| 5e4 - 10.0 * t);
        let rep = EvSel::default().correlate(&s);
        let strong = rep.strong(0.95);
        assert!(strong.iter().all(|r| r.event != HwEvent::Instructions));
    }

    #[test]
    fn rows_sorted_by_strength() {
        let s = sweep_with(|t| 777.0 * t, |t| 1e5 - 3.0 * t * t);
        let rep = EvSel::default().correlate(&s);
        for w in rep.rows.windows(2) {
            assert!(w[0].pearson.abs() >= w[1].pearson.abs());
        }
    }

    #[test]
    fn render_shows_formula_and_r2() {
        let s = sweep_with(|t| 10.0 + 2.0 * t, |t| 100.0 / t);
        let text = EvSel::default().correlate(&s).render();
        assert!(text.contains("threads"));
        assert!(text.contains("R^2"));
        assert!(text.contains("y = "));
    }

    #[test]
    fn too_few_points_skipped() {
        let mut s = ParameterSweep::new("size");
        s.push(1.0, point(1, &[(HwEvent::Cycles, 10.0)]));
        s.push(2.0, point(2, &[(HwEvent::Cycles, 20.0)]));
        let rep = EvSel::default().correlate(&s);
        assert!(rep.rows.is_empty());
    }
}

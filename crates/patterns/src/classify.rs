//! Evaluating the signature table into scored verdicts.
//!
//! A verdict fires only when every rule of the signature has an
//! available metric *and* passes. Confidence is deterministic integer
//! arithmetic: the weakest rule's margin beyond (or short of) its
//! threshold sets a base score in `[500, 1000]`, and when an np-analysis
//! envelope prior is supplied the prior's certainty is blended in — a
//! verdict backed by a tight static envelope outranks one whose primary
//! event the static pass can barely bound.

use crate::metrics::MetricSet;
use crate::signatures::{signatures, RuleOp};
use np_analysis::Priors;
use serde::{Deserialize, Serialize};

/// One rule's evaluation, preserved verbatim in `np-patterns/1`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evidence {
    /// Metric name (`remote_ratio`, ...).
    pub metric: String,
    /// Comparison symbol (`>=` / `<=`).
    pub op: String,
    /// Rule threshold in per-mille.
    pub threshold_pm: u64,
    /// Observed metric value in per-mille (0 when unavailable).
    pub observed_pm: u64,
    /// Whether the metric could be derived from this input at all.
    pub available: bool,
    /// Whether the rule passed.
    pub passed: bool,
}

/// One pattern's scored verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Pattern name (`bandwidth-bound`, ...).
    pub pattern: String,
    /// Whether the signature fired.
    pub fired: bool,
    /// Blended confidence in per-mille.
    pub confidence_pm: u64,
    /// The envelope prior's certainty for the pattern's primary event;
    /// `None` when no prior was supplied (capture slices) or the static
    /// pass derives no envelope for the event.
    pub envelope_confidence_pm: Option<u64>,
    /// Per-rule evidence, in signature order.
    pub evidence: Vec<Evidence>,
}

/// How far `observed` sits beyond (fired) or short of (not fired) the
/// threshold, in per-mille of the threshold, clamped to 1000.
fn margin_pm(op: RuleOp, threshold: u64, observed: u64) -> u64 {
    let t = threshold.max(1);
    let distance = match op {
        RuleOp::Ge => observed.abs_diff(threshold),
        RuleOp::Le => threshold.abs_diff(observed),
    };
    // In u128: an observed value from a hostile capture may be near
    // `u64::MAX`.
    (u128::from(distance) * 1000 / u128::from(t)).min(1000) as u64
}

/// Evaluates every signature against one metric set.
///
/// `priors` carries the np-analysis envelopes of the program under test
/// (full-run classification); pass `None` for capture slices, where no
/// program is in hand.
pub fn classify(metrics: &MetricSet, priors: Option<&Priors>) -> Vec<Verdict> {
    signatures()
        .iter()
        .map(|sig| {
            let mut evidence = Vec::with_capacity(sig.rules.len());
            let mut all_available = true;
            let mut fired = true;
            // Weakest link: the rule closest to its threshold bounds the
            // confidence of the whole conjunction.
            let mut weakest = 1000u64;
            for rule in sig.rules {
                let value = metrics.get(rule.metric);
                let available = value.is_some();
                let observed = value.unwrap_or(0);
                let passed = available && rule.passes(observed);
                all_available &= available;
                fired &= passed;
                if available {
                    weakest = weakest.min(margin_pm(rule.op, rule.threshold_pm, observed));
                }
                evidence.push(Evidence {
                    metric: rule.metric.name().to_string(),
                    op: rule.op.symbol().to_string(),
                    threshold_pm: rule.threshold_pm,
                    observed_pm: observed,
                    available,
                    passed,
                });
            }
            // A signature with a missing input neither fires nor claims
            // confidence about not firing.
            let base = if all_available { 500 + weakest / 2 } else { 0 };
            let envelope = priors
                .and_then(|p| p.get(sig.prior_event))
                .map(|p| p.certainty_pm);
            let confidence_pm = match envelope {
                Some(env) if all_available => (2 * base + env) / 3,
                _ => base,
            };
            Verdict {
                pattern: sig.pattern.name().to_string(),
                fired: fired && all_available,
                confidence_pm,
                envelope_confidence_pm: envelope,
                evidence,
            }
        })
        .collect()
}

/// The names of the fired patterns, in verdict order.
pub fn fired_names(verdicts: &[Verdict]) -> Vec<String> {
    verdicts
        .iter()
        .filter(|v| v.fired)
        .map(|v| v.pattern.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indicators::{Indicators, NodeVector};
    use crate::metrics::derive;

    fn healthy() -> MetricSet {
        // A balanced, local, cache-friendly shape.
        let n = NodeVector {
            instructions: 100_000,
            cycles: 200_000,
            mem_stall: 10_000,
            local_dram: 500,
            load: 50_000,
            store: 20_000,
            imc_read: 500,
            ..NodeVector::default()
        };
        derive(&Indicators {
            nodes: vec![n, n],
            wall_cycles: 200_000,
        })
    }

    #[test]
    fn margins_clamp_for_observed_values_near_u64_max() {
        assert_eq!(margin_pm(RuleOp::Ge, 300, u64::MAX), 1000);
        assert_eq!(margin_pm(RuleOp::Le, u64::MAX, 0), 1000);
        assert_eq!(margin_pm(RuleOp::Ge, 1000, 1500), 500);
    }

    #[test]
    fn healthy_vector_fires_nothing() {
        let verdicts = classify(&healthy(), None);
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts.iter().all(|v| !v.fired), "{verdicts:?}");
        assert!(fired_names(&verdicts).is_empty());
    }

    #[test]
    fn latency_shape_fires_latency_only() {
        let n = NodeVector {
            instructions: 10_000,
            cycles: 1_000_000,
            mem_stall: 900_000,
            local_dram: 9_000,
            load: 9_500,
            store: 100,
            imc_read: 9_000,
            ..NodeVector::default()
        };
        let m = derive(&Indicators {
            nodes: vec![n, n],
            wall_cycles: 1_000_000,
        });
        let fired = fired_names(&classify(&m, None));
        assert_eq!(fired, vec!["latency-bound"]);
    }

    #[test]
    fn missing_metric_blocks_fire_and_zeroes_confidence() {
        // No cycles family: bandwidth/latency rules are unavailable.
        let n = NodeVector {
            instructions: 10_000,
            local_dram: 9_000,
            load: 9_500,
            ..NodeVector::default()
        };
        let m = derive(&Indicators {
            nodes: vec![n],
            wall_cycles: 0,
        });
        let verdicts = classify(&m, None);
        let bw = verdicts
            .iter()
            .find(|v| v.pattern == "bandwidth-bound")
            .unwrap();
        assert!(!bw.fired);
        assert_eq!(bw.confidence_pm, 0);
        assert!(bw.evidence.iter().any(|e| !e.available));
    }

    #[test]
    fn confidence_grows_with_margin() {
        let shape = |stall: u64| {
            let n = NodeVector {
                instructions: 10_000,
                cycles: 1_000_000,
                mem_stall: stall,
                local_dram: 9_000,
                load: 9_500,
                store: 100,
                imc_read: 9_000,
                ..NodeVector::default()
            };
            derive(&Indicators {
                nodes: vec![n, n],
                wall_cycles: 1_000_000,
            })
        };
        let just_over = classify(&shape(760_000), None);
        let far_over = classify(&shape(980_000), None);
        let conf = |vs: &[Verdict]| {
            vs.iter()
                .find(|v| v.pattern == "latency-bound")
                .unwrap()
                .confidence_pm
        };
        assert!(conf(&far_over) > conf(&just_over));
    }
}

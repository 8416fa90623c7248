//! SARIF 2.1.0 serialisation of an [`AuditReport`].
//!
//! Hand-written like the rest of the workspace's JSON (no serde in the
//! tree): one `run`, every rule declared up front, one `result` per
//! finding. Findings waived inline never reach the report, so every
//! result is one the gate fails on. Output is deterministic: findings
//! arrive pre-sorted from the report and field order is fixed by
//! construction.

use super::rules::RULES;
use super::{escape_json, AuditReport};
use std::fmt::Write as _;

/// SARIF schema/version pinned by the report.
const SARIF_VERSION: &str = "2.1.0";
const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders `report` as a SARIF 2.1.0 log.
pub fn to_sarif(report: &AuditReport) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"$schema\":\"{SARIF_SCHEMA}\",\"version\":\"{SARIF_VERSION}\",\"runs\":[{{\
         \"tool\":{{\"driver\":{{\"name\":\"np-audit\",\"rules\":["
    );
    for (i, (id, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            escape_json(id),
            escape_json(desc)
        );
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            escape_json(f.rule),
            escape_json(&f.message),
            escape_json(&f.path),
            f.line
        );
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::super::AuditFinding;
    use super::*;

    #[test]
    fn sarif_declares_rules_and_escapes_messages() {
        let report = AuditReport {
            findings: vec![
                AuditFinding {
                    rule: "lock-order",
                    path: "crates/a/src/lib.rs".to_string(),
                    line: 3,
                    message: "cycle \"a\" <-> \"b\"".to_string(),
                },
                AuditFinding {
                    rule: "unsafe-safety",
                    path: "crates/b/src/lib.rs".to_string(),
                    line: 9,
                    message: "unsafe without SAFETY".to_string(),
                },
            ],
            ..AuditReport::default()
        };
        // The whole document, byte for byte: rule declarations, escaping
        // and result locations.
        let want = concat!(
            r#"{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","#,
            r#""runs":[{"tool":{"driver":{"name":"np-audit","rules":["#,
            r#"{"id":"lock-order","shortDescription":{"text":"Lock-acquisition-order cycle: two lock labels are acquired in opposite orders somewhere in the workspace (deadlock risk)."}},"#,
            r#"{"id":"condvar-discipline","shortDescription":{"text":"Condvar wait outside a predicate loop, or notify without holding the guarded lock (lost/spurious wakeup risk)."}},"#,
            r#"{"id":"atomics-ordering","shortDescription":{"text":"Relaxed ordering outside crates/telemetry, or an Acquire/Release one-sided pairing on an atomic."}},"#,
            r#"{"id":"hot-path-hygiene","shortDescription":{"text":"Allocation, locking or IO inside a fn annotated `// audit:hot` (chunk execution and simulator inner loops)."}},"#,
            r#"{"id":"unsafe-safety","shortDescription":{"text":"`unsafe` without a `// SAFETY:` justification in the preceding lines; all sites land in the committed inventory."}},"#,
            r#"{"id":"no-panic-reachable","shortDescription":{"text":"unwrap/expect/panic in a server/probe/acquisition entry file, or reachable from one through the approximate call graph."}},"#,
            r#"{"id":"bounded-reads","shortDescription":{"text":"Raw socket read in a file that touches TcpStream; go through np_resilience::io::read_line_bounded."}},"#,
            r#"{"id":"guarded-telemetry","shortDescription":{"text":"np_telemetry::global() call outside crates/telemetry without an enabled() guard in the enclosing fn."}},"#,
            r#"{"id":"no-wall-clock","shortDescription":{"text":"Instant::now()/SystemTime::now() in a deterministic path (simulator, fault plan, pool, sampler, np top, bench harness, pattern classifier)."}}"#,
            r#"]}},"results":["#,
            r#"{"ruleId":"lock-order","level":"error","message":{"text":"cycle \"a\" <-> \"b\""},"#,
            r#""locations":[{"physicalLocation":{"artifactLocation":{"uri":"crates/a/src/lib.rs"},"region":{"startLine":3}}}]},"#,
            r#"{"ruleId":"unsafe-safety","level":"error","message":{"text":"unsafe without SAFETY"},"#,
            r#""locations":[{"physicalLocation":{"artifactLocation":{"uri":"crates/b/src/lib.rs"},"region":{"startLine":9}}}]}"#,
            r#"]}]}"#,
        );
        assert_eq!(to_sarif(&report), want);
    }
}

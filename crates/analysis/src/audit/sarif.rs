//! SARIF 2.1.0 serialisation of an [`AuditReport`].
//!
//! Hand-written like the rest of the workspace's JSON (no serde in the
//! tree): one `run`, every rule declared up front, one `result` per
//! finding. Suppressed findings are emitted with an `external`
//! suppression object so SARIF viewers show the gate exactly as the CLI
//! applies it. Output is deterministic: findings arrive pre-sorted from
//! the report and field order is fixed by construction.

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
             \"region\":{{\"startLine\":{}}}}}}}]",
            escape_json(f.rule),
            escape_json(&f.message),
            escape_json(&f.path),
            f.line
        );
        if f.suppressed {
            out.push_str(",\"suppressions\":[{\"kind\":\"external\"}]");
        }
        out.push('}');
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::super::AuditFinding;
    use super::*;

    #[test]
    fn sarif_declares_rules_and_marks_suppressions() {
        let report = AuditReport {
            findings: vec![
                AuditFinding {
                    rule: "lock-order",
                    path: "crates/a/src/lib.rs".to_string(),
                    line: 3,
                    message: "cycle \"a\" <-> \"b\"".to_string(),
                    suppressed: false,
                },
                AuditFinding {
                    rule: "unsafe-safety",
                    path: "crates/b/src/lib.rs".to_string(),
                    line: 9,
                    message: "unsafe without SAFETY".to_string(),
                    suppressed: true,
                },
            ],
            ..AuditReport::default()
        };
        let sarif = to_sarif(&report);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"name\":\"np-audit\""));
        for (id, _) in RULES {
            assert!(
                sarif.contains(&format!("\"id\":\"{id}\"")),
                "rule {id} declared"
            );
        }
        assert!(
            sarif.contains("cycle \\\"a\\\" <-> \\\"b\\\""),
            "messages escaped"
        );
        assert!(sarif.contains("\"startLine\":3"));
        assert_eq!(sarif.matches("\"suppressions\"").count(), 1);
    }
}

//! # np audit — workspace concurrency & determinism static analysis
//!
//! The workspace's one static source analyzer: a token scan (no `syn`,
//! no `rustc` plumbing, zero dependencies) for the cross-crate
//! invariants the type system cannot express. The pipeline:
//!
//! ```text
//! blanking lexer -> per-file fn index -> approximate call graph
//!   -> nine rules -> inline allows -> JSON/SARIF
//! ```
//!
//! - [`index`] — per-file `fn` items (spans, calls, `audit:hot` marks).
//! - [`callgraph`] — crate-aware name-matched call edges + bounded BFS.
//! - [`rules`] — lock-order cycles, condvar discipline, atomics
//!   orderings, hot-path hygiene, unsafe inventory, panic reachability,
//!   and the line-local rules: bounded socket reads, guarded telemetry,
//!   no wall clocks in deterministic code.
//! - [`sarif`] — SARIF 2.1.0 output for CI annotation.
//!
//! Everything is deterministic: files scan in sorted order, every map is
//! a `BTreeMap`, and two runs over the same tree produce byte-identical
//! JSON (pinned by a test). The one way to waive a finding is
//! `// audit:allow(<rule>)` on the offending line; every other finding
//! fails the gate.

pub mod callgraph;
pub mod index;
pub mod rules;
pub mod sarif;

pub use callgraph::CallGraph;
pub use index::WorkspaceIndex;
pub use rules::UnsafeSite;

use crate::lexer::marker_allows;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Rule id (one of [`rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation with the evidence inline.
    pub message: String,
}

/// The full audit result.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// All findings, sorted by `(path, line, rule, message)`.
    pub findings: Vec<AuditFinding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Fns indexed.
    pub fns_indexed: usize,
    /// Call-graph edges resolved.
    pub call_edges: usize,
    /// Every `unsafe` site, justified or not (the committed inventory).
    pub unsafe_sites: Vec<UnsafeSite>,
}

impl AuditReport {
    /// Whether the gate passes: no finding survived the inline allows.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "np-audit: {} files, {} fns, {} call edges",
            self.files_scanned, self.fns_indexed, self.call_edges
        );
        for f in &self.findings {
            let _ = writeln!(out, "  [{}] {}:{} {}", f.rule, f.path, f.line, f.message);
        }
        let unsafe_unjustified = self
            .unsafe_sites
            .iter()
            .filter(|s| s.justification.is_none())
            .count();
        let _ = writeln!(
            out,
            "  unsafe sites: {} ({} unjustified)",
            self.unsafe_sites.len(),
            unsafe_unjustified
        );
        if self.is_clean() {
            out.push_str("audit clean\n");
        } else {
            let _ = writeln!(out, "audit FAILED: {} finding(s)", self.findings.len());
        }
        out
    }

    /// Deterministic JSON (schema `np-audit/2`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"version\":\"np-audit/2\",\"files_scanned\":{},\"fns_indexed\":{},\
             \"call_edges\":{},\"findings\":[",
            self.files_scanned, self.fns_indexed, self.call_edges
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                escape_json(f.rule),
                escape_json(&f.path),
                f.line,
                escape_json(&f.message)
            );
        }
        out.push_str("],\"unsafe_sites\":[");
        for (i, s) in self.unsafe_sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"line\":{},\"justified\":{}}}",
                escape_json(&s.path),
                s.line,
                s.justification.is_some()
            );
        }
        out.push_str("]}");
        out
    }

    /// SARIF 2.1.0 output (see [`sarif`]).
    pub fn to_sarif(&self) -> String {
        sarif::to_sarif(self)
    }

    /// The committed unsafe-inventory markdown (`UNSAFE_INVENTORY.md`).
    pub fn inventory_markdown(&self) -> String {
        let mut out = String::from(
            "# Unsafe inventory\n\n\
             Generated by `np audit --inventory`; CI regenerates and diffs this\n\
             file, so every new `unsafe` block must land here together with its\n\
             `// SAFETY:` justification.\n\n",
        );
        if self.unsafe_sites.is_empty() {
            out.push_str("No `unsafe` code in the workspace.\n");
            return out;
        }
        out.push_str("| Site | Context | Justification |\n|---|---|---|\n");
        for s in &self.unsafe_sites {
            let just = s.justification.as_deref().unwrap_or("**MISSING**");
            let clean = |t: &str| t.replace('|', "\\|").replace('`', "'");
            let _ = writeln!(
                out,
                "| {}:{} | `{}` | {} |",
                s.path,
                s.line,
                clean(&s.context),
                clean(just)
            );
        }
        out
    }
}

/// Audits in-memory `(path, source)` pairs (the callers: the workspace
/// walk below, fixtures in tests, seeded temp trees in the CLI tests).
pub fn audit_sources(sources: &[(String, String)]) -> AuditReport {
    let ws = WorkspaceIndex::build(sources);
    let graph = CallGraph::build(&ws);

    let mut findings = Vec::new();
    rules::lock_order(&ws, &graph, &mut findings);
    rules::condvar(&ws, &mut findings);
    rules::atomics(&ws, &mut findings);
    rules::hot_path(&ws, &mut findings);
    let unsafe_sites = rules::unsafe_safety(&ws, &mut findings);
    rules::panic_reachable(&ws, &graph, &mut findings);
    rules::line_rules(&ws, &mut findings);

    // Inline waivers: `// audit:allow(<rule>)` on the offending line.
    let by_path: BTreeMap<&str, usize> = ws
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    findings.retain(|f| {
        by_path
            .get(f.path.as_str())
            .map(|&fi| &ws.files[fi])
            .filter(|file| f.line >= 1 && f.line <= file.lexed.len())
            .is_none_or(|file| !marker_allows(file.lexed.raw(f.line - 1), f.rule))
    });

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    findings.dedup();

    AuditReport {
        findings,
        files_scanned: ws.files.len(),
        fns_indexed: ws.fn_count(),
        call_edges: graph.edge_count,
        unsafe_sites,
    }
}

/// Audits the workspace rooted at `root`: every `.rs` under `src/` and
/// `crates/*/src/`, vendored shims excluded. Tests, benches and examples
/// are out of scope by construction.
pub fn audit_workspace(root: &Path) -> std::io::Result<AuditReport> {
    Ok(audit_sources(&workspace_sources(root)?))
}

/// The `(relative path, source)` pairs [`audit_workspace`] scans, in
/// sorted path order (the determinism anchor).
fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let top_src = root.join("src");
    if top_src.is_dir() {
        collect_rs(&top_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let c = entry?.path();
            let src = c.join("src");
            if src.is_dir() && c.file_name().is_some_and(|n| n != "shims") {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, std::fs::read_to_string(f)?));
    }
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` into `out`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Escapes `s` for a JSON string literal (the report and SARIF writers).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn clean_sources_audit_clean() {
        let report = audit_sources(&src(&[(
            "crates/a/src/lib.rs",
            "pub fn add(a: u32, b: u32) -> u32 { a + b }\n",
        )]));
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.fns_indexed, 1);
    }

    #[test]
    fn inline_allow_waives_a_finding() {
        let bad = "fn f(cv: &std::sync::Condvar, g: std::sync::MutexGuard<u32>) {\n    \
                   let _g = cv.wait(g);\n}\n";
        let allowed = "fn f(cv: &std::sync::Condvar, g: std::sync::MutexGuard<u32>) {\n    \
                       let _g = cv.wait(g); // audit:allow(condvar-discipline)\n}\n";
        let r1 = audit_sources(&src(&[("crates/a/src/lib.rs", bad)]));
        assert_eq!(r1.findings.len(), 1, "{}", r1.render());
        let r2 = audit_sources(&src(&[("crates/a/src/lib.rs", allowed)]));
        assert!(r2.is_clean(), "{}", r2.render());
    }

    #[test]
    fn json_is_deterministic_and_versioned() {
        let files = src(&[(
            "crates/a/src/lib.rs",
            "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n",
        )]);
        let a = audit_sources(&files);
        let b = audit_sources(&files);
        assert_eq!(a.to_json(), b.to_json(), "byte-identical across runs");
        assert!(a.to_json().starts_with("{\"version\":\"np-audit/2\""));
        assert_eq!(a.unsafe_sites.len(), 1);
        assert!(a.inventory_markdown().contains("**MISSING**"));
    }

    #[test]
    fn json_escapes_paths_and_messages() {
        let report = AuditReport {
            findings: vec![AuditFinding {
                rule: "no-panic-reachable",
                path: "a\"b.rs".into(),
                line: 7,
                message: "tab\there\\".into(),
            }],
            files_scanned: 3,
            ..AuditReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"files_scanned\":3"), "{json}");
        assert!(json.contains("\"path\":\"a\\\"b.rs\""), "{json}");
        assert!(json.contains("tab\\there\\\\"), "{json}");
        assert_eq!(escape_json("\u{1}\n"), "\\u0001\\n");
        assert!(!report.is_clean());
    }

    #[test]
    fn workspace_scan_covers_the_serve_crate() {
        let root = std::env::temp_dir().join(format!("np-audit-serve-{}", std::process::id()));
        let src_dir = root.join("crates").join("serve").join("src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .unwrap();
        let report = audit_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(report.files_scanned, 1);
        let got: Vec<_> = report
            .findings
            .iter()
            .map(|f| (f.path.as_str(), f.rule, f.line))
            .collect();
        assert_eq!(
            got,
            vec![("crates/serve/src/lib.rs", "no-panic-reachable", 1)]
        );
    }
}

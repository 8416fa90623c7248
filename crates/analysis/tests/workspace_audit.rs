//! The workspace must pass its own audit: the same scan `np audit`, CI
//! and `scripts/verify.sh` run. Three properties are pinned here:
//!
//! 1. zero findings (inline `// audit:allow(<rule>)` is the only waiver);
//! 2. two runs produce byte-identical JSON (the determinism contract);
//! 3. the committed `UNSAFE_INVENTORY.md` matches the tree.

use np_analysis::audit_workspace;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_audits_clean() {
    let report = audit_workspace(&workspace_root()).expect("workspace sources are readable");
    assert!(
        report.files_scanned > 40,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
    assert!(
        report.fns_indexed > 300,
        "index looks truncated: only {} fns",
        report.fns_indexed
    );
    assert!(
        report.is_clean(),
        "workspace audit violations:\n{}",
        report.render()
    );
}

#[test]
fn audit_json_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = audit_workspace(&root).expect("first run");
    let b = audit_workspace(&root).expect("second run");
    assert_eq!(a.to_json(), b.to_json(), "audit JSON must be deterministic");
    assert_eq!(a.to_sarif(), b.to_sarif(), "SARIF must be deterministic");
}

#[test]
fn committed_unsafe_inventory_matches_the_tree() {
    let root = workspace_root();
    let report = audit_workspace(&root).expect("workspace sources are readable");
    let committed = std::fs::read_to_string(root.join("UNSAFE_INVENTORY.md"))
        .expect("UNSAFE_INVENTORY.md is committed at the workspace root");
    assert_eq!(
        committed,
        report.inventory_markdown(),
        "UNSAFE_INVENTORY.md is stale; regenerate with `np audit --inventory UNSAFE_INVENTORY.md`"
    );
}

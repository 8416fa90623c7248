//! End-to-end contract of `np patterns` through the real CLI entry
//! point (`numa_perf_tools::cli::run`): single-workload classification
//! writes a byte-stable np-patterns/1 document and reports the verdict
//! against the registry label, per-phase capture attribution round-trips
//! a sampled capture deterministically, error paths reject unknown
//! workloads and foreign capture schemas with exit-2 errors, and the
//! full verification sweep is byte-identical at any pool width.

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// A fresh per-test directory under the system temp dir, removed with
/// everything in it when the guard drops (also when the test panics).
struct TmpDir(std::path::PathBuf);

impl std::ops::Deref for TmpDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tmp_dir(tag: &str) -> TmpDir {
    let dir = std::env::temp_dir().join(format!("np-patterns-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TmpDir(dir)
}

fn classify_single(out: &std::path::Path, json: bool) -> String {
    let mut argv = vec![
        "patterns",
        "--workload",
        "stream-bound",
        "--machine",
        "two-socket",
        "--size",
        "96",
        "--threads",
        "2",
        "--out",
        out.to_str().unwrap(),
    ];
    if json {
        argv.push("--json");
    }
    numa_perf_tools::cli::run(&args(&argv)).unwrap()
}

#[test]
fn single_mode_recovers_the_label_and_writes_a_stable_document() {
    let dir = tmp_dir("single");
    let a = dir.join("a.json");
    let b = dir.join("b.json");

    let text = classify_single(&a, false);
    assert!(text.contains("stream-bound"), "{text}");
    assert!(text.contains("MATCH"), "{text}");
    assert!(text.contains("numa-imbalance"), "{text}");

    // Identical invocations write byte-identical documents.
    classify_single(&b, false);
    let doc_a = std::fs::read_to_string(&a).unwrap();
    let doc_b = std::fs::read_to_string(&b).unwrap();
    assert_eq!(doc_a, doc_b, "single-mode document is not reproducible");
    assert!(doc_a.contains("\"np-patterns/1\""), "{doc_a}");
    assert!(doc_a.contains("\"matched\": true"), "{doc_a}");

    // --json streams exactly the bytes that went to disk.
    let streamed = classify_single(&a, true);
    assert_eq!(streamed, std::fs::read_to_string(&a).unwrap());
}

#[test]
fn capture_mode_attributes_phases_and_round_trips() {
    let dir = tmp_dir("capture");
    let cap = dir.join("capture.json");
    let tl = dir.join("timeline.json");
    let out = numa_perf_tools::cli::run(&args(&[
        "run",
        "--sample",
        "--workload",
        "row-major",
        "--size",
        "128",
        "--reps",
        "2",
        "--seed",
        "3",
        "--machine",
        "two-socket",
        "--out",
        cap.to_str().unwrap(),
        "--timeline",
        tl.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("sampled campaign"), "{out}");

    let doc_a = dir.join("phases-a.json");
    let doc_b = dir.join("phases-b.json");
    let classify = |doc: &std::path::Path| {
        numa_perf_tools::cli::run(&args(&[
            "patterns",
            "--capture",
            cap.to_str().unwrap(),
            "--out",
            doc.to_str().unwrap(),
        ]))
        .unwrap()
    };
    let text = classify(&doc_a);
    assert!(text.contains("per-phase pattern attribution"), "{text}");
    assert!(text.contains("row-major"), "{text}");

    classify(&doc_b);
    assert_eq!(
        std::fs::read_to_string(&doc_a).unwrap(),
        std::fs::read_to_string(&doc_b).unwrap(),
        "capture attribution is not reproducible"
    );
}

#[test]
fn unknown_workload_is_rejected() {
    let dir = tmp_dir("unknown");
    let err = numa_perf_tools::cli::run(&args(&[
        "patterns",
        "--workload",
        "no-such-workload",
        "--out",
        dir.join("doc.json").to_str().unwrap(),
    ]))
    .unwrap_err();
    assert!(err.contains("no-such-workload"), "{err}");
}

#[test]
fn foreign_capture_schema_is_rejected() {
    let dir = tmp_dir("schema");
    let bogus = dir.join("bogus.json");
    std::fs::write(
        &bogus,
        r#"{"schema":"np-other/9","machine":"y","workload":"x","seed":1,"repetitions":1,"phases":[],"series":[]}"#,
    )
    .unwrap();
    let err = numa_perf_tools::cli::run(&args(&[
        "patterns",
        "--capture",
        bogus.to_str().unwrap(),
        "--out",
        dir.join("doc.json").to_str().unwrap(),
    ]))
    .unwrap_err();
    assert!(err.contains("schema"), "{err}");
    assert!(err.contains("np-other/9"), "{err}");

    // Damaged captures are refused with a message, not a panic or an
    // allocation sized by a number they carry.
    let series = |name: &str, t0: u64, sums: &str| {
        format!(
            r#"{{"name":"{name}","stride":1,"t0":{t0},"dt":[0,10],"phase":[0,0],"count":[1,1],"sum":{sums},"min":[1,1],"max":[1,1]}}"#
        )
    };
    for (tag, series) in [
        ("short-sum", series("rep0.node0.qpi", 0, "[1]")),
        ("huge-node", series("rep0.node100000000000.qpi", 0, "[1,1]")),
        (
            "time-overflow",
            series("rep0.node0.qpi", u64::MAX - 5, "[1,1]"),
        ),
        (
            "sum-overflow",
            series("rep0.node0.qpi", 0, &format!("[{},1]", u64::MAX)),
        ),
    ] {
        let path = dir.join(format!("{tag}.json"));
        std::fs::write(
            &path,
            format!(
                r#"{{"schema":"np-capture/1","machine":"y","workload":"x","seed":1,"repetitions":1,"phases":["-"],"series":[{series}]}}"#
            ),
        )
        .unwrap();
        let err = numa_perf_tools::cli::run(&args(&[
            "patterns",
            "--capture",
            path.to_str().unwrap(),
            "--out",
            dir.join("doc.json").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("invalid capture"), "{tag}: {err}");
    }
}

/// The full 96-case sweep at two pool widths — minutes of debug-mode
/// simulation on small hosts, so it is opt-in here (`-- --ignored`);
/// the nightly CI job runs the same byte-identity diff in release mode
/// on every run.
#[test]
#[ignore = "full verification sweep; covered in release by CI and nightly"]
fn verification_sweep_is_byte_identical_across_pool_widths() {
    let dir = tmp_dir("verify");
    let serial = dir.join("serial.json");
    let wide = dir.join("wide.json");
    for (threads, path) in [("1", &serial), ("8", &wide)] {
        let out = numa_perf_tools::cli::run(&args(&[
            "patterns",
            "--verify",
            "--threads",
            threads,
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("pattern verification sweep"), "{out}");
    }
    assert_eq!(
        std::fs::read_to_string(&serial).unwrap(),
        std::fs::read_to_string(&wide).unwrap(),
        "sweep document depends on pool width"
    );
}

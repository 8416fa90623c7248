//! End-to-end check of the time-series layer: `run --sample` must write
//! a byte-identical capture across repeated runs AND across pool thread
//! counts (the determinism contract), `report` must render it as text
//! and as a self-contained HTML file and refuse damaged documents with
//! an error, and `top` must complete a bounded live loop that shows
//! only its own machine.

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn run_capture(dir: &std::path::Path, tag: &str, threads: &str) -> (String, String) {
    let cap = dir.join(format!("{tag}.capture.json"));
    let tl = dir.join(format!("{tag}.timeline.json"));
    let out = numa_perf_tools::cli::run(&args(&[
        "run",
        "--sample",
        "--workload",
        "row-major",
        "--size",
        "256",
        "--reps",
        "3",
        "--seed",
        "7",
        "--machine",
        "two-socket",
        "--threads",
        threads,
        "--out",
        cap.to_str().unwrap(),
        "--timeline",
        tl.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("sampled campaign"), "{out}");
    (
        std::fs::read_to_string(&cap).unwrap(),
        std::fs::read_to_string(&tl).unwrap(),
    )
}

#[test]
fn sampled_run_is_deterministic_and_reportable() {
    let dir = std::env::temp_dir().join(format!("np-ts-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // --- capture determinism ------------------------------------------
    // Byte-identical across runs and across EVERY thread count: the
    // per-repetition samplers merge in submission order, so --threads is
    // purely a throughput knob.
    let (base, timeline) = run_capture(&dir, "t1a", "1");
    let (again, _) = run_capture(&dir, "t1b", "1");
    assert_eq!(base, again, "capture differs between identical runs");
    for threads in ["2", "8"] {
        let (other, _) = run_capture(&dir, &format!("t{threads}"), threads);
        assert_eq!(
            base, other,
            "capture differs between 1 and {threads} threads"
        );
    }

    // The capture parses back and carries per-node, phase-attributed
    // series for every repetition.
    let cap: np_core::capture::Capture = serde_json::from_str(&base).unwrap();
    assert_eq!(cap.schema, np_core::capture::CAPTURE_SCHEMA);
    assert_eq!(cap.repetitions, 3);
    assert!(
        cap.phases.iter().any(|p| p == "measure"),
        "{:?}",
        cap.phases
    );
    assert!(!cap.node_ids().is_empty());
    for rep in 0..3 {
        assert!(
            cap.series
                .iter()
                .any(|s| s.name.starts_with(&format!("rep{rep}."))),
            "no series for repetition {rep}"
        );
    }

    // The timeline is wall-clock and hence NOT deterministic, but its
    // chunk accounting must cover every repetition.
    let tl: np_core::capture::Timeline = serde_json::from_str(&timeline).unwrap();
    assert_eq!(tl.schema, np_core::capture::TIMELINE_SCHEMA);
    assert_eq!(tl.chunk.len(), 3);

    // --- report: text and self-contained HTML -------------------------
    let cap_path = dir.join("t1a.capture.json");
    let tl_path = dir.join("t1a.timeline.json");
    let text = numa_perf_tools::cli::run(&args(&[
        "report",
        "--capture",
        cap_path.to_str().unwrap(),
        "--timeline",
        tl_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(text.contains("rep0."), "{text}");
    assert!(text.contains("worker timeline"), "{text}");

    let html_path = dir.join("report.html");
    let out = numa_perf_tools::cli::run(&args(&[
        "report",
        "--capture",
        cap_path.to_str().unwrap(),
        "--timeline",
        tl_path.to_str().unwrap(),
        "--html",
        "--out",
        html_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("HTML report"), "{out}");
    let html = std::fs::read_to_string(&html_path).unwrap();
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("<svg"));
    assert!(html.contains("worker timeline"));
    // Self-contained: no scripts, no external fetches.
    assert!(!html.contains("<script"));
    assert!(!html.contains("http://") && !html.contains("https://"));

    // A capture from a different schema version is refused, not
    // misrendered.
    let stale = base.replacen("np-capture/1", "np-capture/0", 1);
    let stale_path = dir.join("stale.capture.json");
    std::fs::write(&stale_path, stale).unwrap();
    let err = numa_perf_tools::cli::run(&args(&[
        "report",
        "--capture",
        stale_path.to_str().unwrap(),
    ]))
    .unwrap_err();
    assert!(err.contains("schema"), "{err}");

    // Damaged documents are refused with a message, not a panic or an
    // allocation sized by a number they carry.
    let mut short_sum = cap.clone();
    short_sum.series[0].sum.pop();
    let mut huge_node = cap.clone();
    huge_node.series[0].name = "rep0.node100000000000.qpi".to_string();
    let mut time_overflow = cap.clone();
    time_overflow.series[0].t0 = u64::MAX;
    *time_overflow.series[0].dt.last_mut().unwrap() += 1;
    let mut sum_overflow = cap.clone();
    sum_overflow.series[0].sum.fill(u64::MAX);
    for (tag, bad) in [
        ("short-sum", &short_sum),
        ("huge-node", &huge_node),
        ("time-overflow", &time_overflow),
        ("sum-overflow", &sum_overflow),
    ] {
        let path = dir.join(format!("{tag}.capture.json"));
        std::fs::write(&path, serde_json::to_string(bad).unwrap()).unwrap();
        for html in [false, true] {
            let mut argv = vec!["report", "--capture", path.to_str().unwrap()];
            if html {
                argv.extend(["--html", "--out", html_path.to_str().unwrap()]);
            }
            let err = numa_perf_tools::cli::run(&args(&argv)).unwrap_err();
            assert!(err.contains("invalid capture"), "{tag}: {err}");
        }
    }
    let mut short_start = tl.clone();
    short_start.start_ns.pop();
    let mut huge_pool = tl.clone();
    huge_pool.workers = 10_000_000_000_000;
    for (tag, bad) in [("short-start", &short_start), ("huge-pool", &huge_pool)] {
        let path = dir.join(format!("{tag}.timeline.json"));
        std::fs::write(&path, serde_json::to_string(bad).unwrap()).unwrap();
        for html in [false, true] {
            let mut argv = vec![
                "report",
                "--capture",
                cap_path.to_str().unwrap(),
                "--timeline",
                path.to_str().unwrap(),
            ];
            if html {
                argv.extend(["--html", "--out", html_path.to_str().unwrap()]);
            }
            let err = numa_perf_tools::cli::run(&args(&argv)).unwrap_err();
            assert!(err.contains("invalid timeline"), "{tag}: {err}");
        }
    }

    // --- top: a bounded live loop over the capture observer -----------
    let out = numa_perf_tools::cli::run(&args(&[
        "top",
        "--machine",
        "two-socket",
        "--workload",
        "row-major",
        "--size",
        "256",
        "--ticks",
        "3",
        "--interval",
        "60",
    ]))
    .unwrap();
    assert!(out.contains("np top"), "{out}");
    assert!(out.contains("3 tick(s)"), "{out}");
    // The capture observer fed per-node series.
    assert!(out.contains("node0."), "{out}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `top` draws only the runs of its own simulator, however many other
/// simulations run in the process meanwhile.
#[test]
fn top_shows_only_its_own_machine() {
    use np_simulator::{MachineConfig, MachineSim};
    use np_workloads::Workload;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
    use std::sync::{mpsc, Arc};

    let stop = Arc::new(AtomicBool::new(false));
    let ring_runs = Arc::new(AtomicU64::new(0));
    let (looping, first_run) = mpsc::channel();
    let other = {
        let (stop, ring_runs) = (Arc::clone(&stop), Arc::clone(&ring_runs));
        std::thread::spawn(move || {
            let cfg = MachineConfig::eight_socket_ring();
            let sim = MachineSim::new(cfg.clone());
            let program = np_workloads::cache_miss::CacheMissKernel::row_major(64).build(&cfg);
            while !stop.load(SeqCst) {
                sim.run(&program, 1).unwrap();
                if ring_runs.fetch_add(1, SeqCst) == 0 {
                    looping.send(()).unwrap();
                }
            }
        })
    };
    // Start `top` only once the eight-socket loop is running.
    first_run.recv().unwrap();
    let before = ring_runs.load(SeqCst);
    let out = numa_perf_tools::cli::run(&args(&[
        "top",
        "--machine",
        "two-socket",
        "--size",
        "256",
        "--ticks",
        "3",
        "--interval",
        "60",
    ]))
    .unwrap();
    let during = ring_runs.load(SeqCst) - before;
    stop.store(true, SeqCst);
    other.join().unwrap();
    assert!(during >= 1, "no eight-socket run completed while top ran");
    assert!(out.contains("node1."), "{out}");
    assert!(!out.contains("node7."), "{out}");
}

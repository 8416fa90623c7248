//! End-to-end check of the observability layer: one CLI invocation with
//! `--telemetry` and `--trace` must produce a well-formed metrics
//! snapshot (counters from several subsystems) and a Chrome-trace file
//! that chrome://tracing / Perfetto would accept.
//!
//! Telemetry state is process-global, so everything lives in a single
//! test function — independent #[test]s would race on the enable flag.

use serde_json::Value;

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn cli_produces_snapshot_and_valid_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("np-tele-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tele = dir.join("out.json");
    let trace = dir.join("out.trace.json");
    let session = dir.join("session");

    // `stat --save` exercises the simulator, acquisition, runner and
    // session layers in one command; the CLI layer itself is the fifth.
    let out = numa_perf_tools::cli::run(&args(&[
        "stat",
        "--workload",
        "row-major",
        "--size",
        "48",
        "--reps",
        "2",
        "--machine",
        "two-socket",
        "--save",
        "tele-run",
        "--session",
        session.to_str().unwrap(),
        "--telemetry",
        tele.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]))
    .unwrap();

    // The report embeds the snapshot.
    assert!(
        out.contains("== tool telemetry =="),
        "no telemetry section in:\n{out}"
    );

    // --- metrics snapshot ---------------------------------------------
    let snap: Value = serde_json::from_str(&std::fs::read_to_string(&tele).unwrap()).unwrap();
    let counters = match snap.get("counters") {
        Some(Value::Object(entries)) => entries.clone(),
        other => panic!("counters is not an object: {other:?}"),
    };
    let live: Vec<&str> = counters
        .iter()
        .filter(|(_, v)| !matches!(v, Value::UInt(0) | Value::Int(0)))
        .map(|(n, _)| n.as_str())
        .collect();
    for prefix in ["cli.", "sim.", "acq.", "runner.", "session."] {
        assert!(
            live.iter().any(|n| n.starts_with(prefix)),
            "no live {prefix}* counter in {live:?}"
        );
    }
    // Per-NUMA-node memory ops are attributed.
    assert!(
        live.iter().any(|n| n.starts_with("sim.mem_ops.node")),
        "{live:?}"
    );

    // The campaign's counted work: one all-events campaign of two
    // repetitions, each one simulation that stands for its 9 register
    // batches' logical runs (`plan.total_runs()` = 18), and one span per
    // repetition.
    let count = |v: Option<&Value>| -> u64 {
        match v {
            Some(Value::UInt(u)) => *u,
            Some(Value::Int(i)) => u64::try_from(*i).unwrap(),
            other => panic!("not a count: {other:?}"),
        }
    };
    for (name, expected) in [
        ("runner.campaigns", 1),
        ("runner.repetitions", 2),
        ("runner.reps_done", 2),
        ("acq.batched.batch_runs", 18),
        ("acq.runs", 2),
        ("sim.runs", 2),
    ] {
        assert_eq!(
            count(snap.get("counters").and_then(|c| c.get(name))),
            expected,
            "counter {name}"
        );
    }
    let histograms = snap.get("histograms").expect("histograms section");
    let reps = histograms
        .get("span.runner.repetition")
        .expect("runner.repetition span recorded");
    assert_eq!(count(reps.get("count")), 2, "runner.repetition samples");

    // --- Chrome trace --------------------------------------------------
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let events: Vec<Value> = match serde_json::from_str(&trace_text).unwrap() {
        Value::Array(events) => events,
        other => panic!("trace is not a JSON array: {other:?}"),
    };
    assert!(events.len() >= 2, "trace has no span events");

    let field = |e: &Value, k: &str| -> Option<Value> { e.get(k).cloned() };
    let as_u64 = |v: &Value| -> u64 {
        match v {
            Value::UInt(u) => *u,
            Value::Int(i) => u64::try_from(*i).unwrap(),
            other => panic!("not an integer: {other:?}"),
        }
    };

    // Leads with process-name metadata, then complete ("X") events whose
    // timestamps are monotonically non-decreasing and self-consistent.
    assert_eq!(field(&events[0], "ph"), Some(Value::Str("M".into())));
    let mut last_ts = 0u64;
    let mut cats = std::collections::BTreeSet::new();
    for e in &events[1..] {
        assert_eq!(field(e, "ph"), Some(Value::Str("X".into())), "{e:?}");
        let ts = as_u64(&field(e, "ts").unwrap());
        let dur = as_u64(&field(e, "dur").unwrap());
        assert!(ts >= last_ts, "events not sorted by ts");
        assert!(ts.checked_add(dur).is_some());
        last_ts = ts;
        if let Some(Value::Str(cat)) = field(e, "cat") {
            cats.insert(cat);
        }
    }
    // Spans cover multiple subsystems, and parents envelope children:
    // the cli.execute span must contain every sim.run span.
    assert!(cats.len() >= 3, "trace covers too few subsystems: {cats:?}");
    let span_of = |name: &str| -> Vec<(u64, u64)> {
        events[1..]
            .iter()
            .filter(|e| field(e, "name") == Some(Value::Str(name.into())))
            .map(|e| {
                (
                    as_u64(&field(e, "ts").unwrap()),
                    as_u64(&field(e, "dur").unwrap()),
                )
            })
            .collect()
    };
    let cli_spans = span_of("cli.execute");
    assert_eq!(cli_spans.len(), 1);
    let (cli_ts, cli_dur) = cli_spans[0];
    for (ts, dur) in span_of("sim.run") {
        assert!(
            ts >= cli_ts && ts + dur <= cli_ts + cli_dur + 1,
            "sim.run outside cli.execute"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

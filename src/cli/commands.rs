//! Command implementations for the CLI.

use super::args::{Cli, Command};
use super::{report, top, workloads};
use np_core::annotate::{annotate, RegionNames};
use np_core::balance::BalanceReport;
use np_core::capture::{Capture, Timeline};
use np_core::evsel::{EvSel, ParameterSweep};
use np_core::memhist::{HistogramMode, Memhist};
use np_core::objprof;
use np_core::phasen::Phasenpruefer;
use np_core::runner::{MeasurementPlan, Runner};
use np_counters::catalog::EventCatalog;
use np_simulator::{HwEvent, MachineSim};
use np_workloads::mlc;

/// Executes a parsed command line.
pub fn execute(cli: &Cli) -> Result<String, String> {
    match cli.command {
        Command::Table1 => table1(cli),
        Command::Catalog => catalog(cli),
        Command::Stat => stat(cli),
        Command::Compare => compare(cli),
        Command::Sweep => sweep(cli),
        Command::Memhist => memhist(cli),
        Command::Phasen => phasen(cli),
        Command::Annotate => annotate_cmd(cli),
        Command::Objprof => objprof_cmd(cli),
        Command::Balance => balance(cli),
        Command::Mlc => mlc_cmd(cli),
        Command::Diff => diff(cli),
        Command::Archives => archives(cli),
        Command::C2c => c2c(cli),
        Command::Analyze => analyze_cmd(cli),
        Command::Audit => audit_cmd(cli),
        Command::Serve => serve_cmd(cli),
        Command::Loadgen => loadgen_cmd(cli),
        Command::Bench => bench_cmd(cli),
        Command::Run => run_cmd(cli),
        Command::Top => top::run_top(cli),
        Command::Report => report_cmd(cli),
        Command::Patterns => patterns_cmd(cli),
    }
}

/// `np run --sample`: a seeded measurement campaign with a deterministic
/// per-node time-series capture. Writes the capture JSON to `--out`
/// (byte-identical for the same plan at ANY `--threads`), optionally the
/// pool worker timeline to `--timeline`, and `--save NAME` records the
/// capture in the session archive next to the run sets.
fn run_cmd(cli: &Cli) -> Result<String, String> {
    if !cli.sample {
        return Err("run needs --sample (for an unsampled measurement, use `stat`)".to_string());
    }
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let runner = Runner::new(machine).with_threads(cli.threads.max(1));
    let campaign = runner.measure_sampled(w.as_ref(), &plan(cli), cli.capacity.max(2))?;
    let cap = Capture::from_sampler(&cli.machine, name, cli.seed, cli.reps, &campaign.sampler);
    let json =
        serde_json::to_string_pretty(&cap).map_err(|e| format!("run: serialize capture: {e}"))?;
    std::fs::write(&cli.out, json + "\n")
        .map_err(|e| format!("run: cannot write '{}': {e}", cli.out))?;
    let mut out = format!(
        "sampled campaign: {} on {} ({} repetition(s), {} worker(s))\n\
         capture: {} series, {} phase(s) -> {}\n",
        name,
        cli.machine,
        cli.reps,
        campaign.workers,
        cap.series.len(),
        cap.phases.len(),
        cli.out
    );
    if let Some(tl_path) = &cli.timeline {
        let tl = Timeline::from_profile(campaign.workers, &campaign.profile);
        let json = serde_json::to_string_pretty(&tl)
            .map_err(|e| format!("run: serialize timeline: {e}"))?;
        std::fs::write(tl_path, json + "\n")
            .map_err(|e| format!("run: cannot write '{tl_path}': {e}"))?;
        out.push_str(&format!(
            "timeline: {} chunk(s) across {} worker(s) -> {tl_path}\n",
            tl.chunk.len(),
            tl.workers
        ));
    }
    if let Some(save) = &cli.save {
        session(cli)?
            .save_capture(save, &cap)
            .map_err(|e| format!("run: save capture: {e}"))?;
        out.push_str(&format!(
            "archived as capture '{save}' in {}\n",
            cli.session
        ));
    }
    Ok(out)
}

/// `np report`: render a capture (from `np run --sample`) as a text
/// summary, or with `--html` as a self-contained single-file HTML report
/// written to `--out`.
fn report_cmd(cli: &Cli) -> Result<String, String> {
    let path = cli
        .capture
        .as_deref()
        .ok_or("report needs --capture FILE (from `run --sample`)")?;
    let cap = Capture::load(path).map_err(|e| format!("report: {e}"))?;
    let timeline = match &cli.timeline {
        Some(tl_path) => Some(Timeline::load(tl_path).map_err(|e| format!("report: {e}"))?),
        None => None,
    };
    if cli.html {
        let html = report::html_report(&cap, timeline.as_ref());
        std::fs::write(&cli.out, html)
            .map_err(|e| format!("report: cannot write '{}': {e}", cli.out))?;
        Ok(format!(
            "HTML report ({} series, {} phase(s)) written to {}\n",
            cap.series.len(),
            cap.phases.len(),
            cli.out
        ))
    } else {
        Ok(report::text_summary(&cap, timeline.as_ref()))
    }
}

/// `np patterns`: the performance-pattern identification engine.
///
/// Three modes:
/// * `--verify` re-proves every registry label on both quiet machine
///   presets at 2 and 4 threads; any mismatch is an error (exit 2). The
///   full `np-patterns/1` document lands in `--out` either way, so CI
///   keeps the artifact even for a red run.
/// * `--capture FILE` classifies each phase slice of an `np-capture/1`
///   timeline — attribution without re-running anything (and without
///   envelope priors: no program is in hand).
/// * `--workload NAME` classifies one registry workload on `--machine`
///   with the np-analysis envelope priors of that very program.
fn patterns_cmd(cli: &Cli) -> Result<String, String> {
    if cli.verify {
        patterns_verify(cli)
    } else if cli.capture.is_some() {
        patterns_capture(cli)
    } else {
        patterns_single(cli)
    }
}

/// Writes the `np-patterns/1` document to `--out` and returns the body
/// to print: the pretty JSON itself under `--json`, else `text`.
fn patterns_emit(
    cli: &Cli,
    doc: &np_patterns::PatternsDoc,
    text: String,
) -> Result<String, String> {
    let json = serde_json::to_string_pretty(doc)
        .map_err(|e| format!("patterns: serialize document: {e}"))?
        + "\n";
    std::fs::write(&cli.out, &json)
        .map_err(|e| format!("patterns: cannot write '{}': {e}", cli.out))?;
    Ok(if cli.json { json } else { text })
}

/// One verdict line: `bandwidth-bound   fired  conf 812  dram_per_kcycle >= 34 (38)`.
fn patterns_verdict_lines(out: &mut String, verdicts: &[np_patterns::Verdict], indent: &str) {
    for v in verdicts {
        let evidence: Vec<String> = v
            .evidence
            .iter()
            .map(|e| {
                if e.available {
                    format!(
                        "{} {} {} ({})",
                        e.metric, e.op, e.threshold_pm, e.observed_pm
                    )
                } else {
                    format!("{} unavailable", e.metric)
                }
            })
            .collect();
        out.push_str(&format!(
            "{indent}{:<16} {:>5}  conf {:>4}  {}\n",
            v.pattern,
            if v.fired { "FIRED" } else { "-" },
            v.confidence_pm,
            evidence.join(", ")
        ));
    }
}

/// Renders one classified case for the text report.
fn patterns_case_text(case: &np_patterns::CaseDoc) -> String {
    let mut out = format!(
        "pattern verdicts: {} on {} x{} (seed {})\n\n",
        case.workload, case.machine, case.threads, case.seed
    );
    out.push_str("  metric              value_pm\n");
    for m in &case.metrics {
        if m.available {
            out.push_str(&format!("  {:<18} {:>9}\n", m.metric, m.value_pm));
        } else {
            out.push_str(&format!("  {:<18} {:>9}\n", m.metric, "n/a"));
        }
    }
    out.push('\n');
    patterns_verdict_lines(&mut out, &case.verdicts, "  ");
    out.push_str(&format!(
        "\n  fired:    [{}]\n  expected: [{}]  {}\n",
        case.fired.join(", "),
        case.expected.join(", "),
        if case.matched { "MATCH" } else { "MISMATCH" }
    ));
    out
}

/// `np patterns --verify`: the full labeled-registry sweep.
fn patterns_verify(cli: &Cli) -> Result<String, String> {
    let pool = np_parallel::Pool::new(cli.threads.max(1));
    let outcome = np_patterns::sweep(&pool, cli.seed);
    let machines: Vec<String> = np_patterns::sweep_machines()
        .iter()
        .map(|(label, _)| label.to_string())
        .collect();
    let threads: Vec<String> = np_patterns::SWEEP_THREADS
        .iter()
        .map(|t| t.to_string())
        .collect();
    let mut text = format!(
        "pattern verification sweep: {} case(s) — {{{}}} x {{{}}} thread(s) x {} workload(s), seed {}\n",
        outcome.doc.total_cases,
        machines.join(", "),
        threads.join(", "),
        workloads::NAMES.len(),
        cli.seed
    );
    text.push_str(&format!("document -> {}\n", cli.out));
    if outcome.failures.is_empty() {
        text.push_str("every expected pattern recovered (0 mismatches)\n");
        patterns_emit(cli, &outcome.doc, text)
    } else {
        // Still park the artifact: a red sweep's evidence is the thing
        // you want to look at.
        patterns_emit(cli, &outcome.doc, String::new())?;
        Err(format!(
            "pattern verification failed ({} of {} case(s)):\n{}",
            outcome.failures.len(),
            outcome.doc.total_cases,
            outcome.failures.join("\n")
        ))
    }
}

/// `np patterns --capture FILE`: per-phase attribution over a capture.
fn patterns_capture(cli: &Cli) -> Result<String, String> {
    let path = cli.capture.as_deref().unwrap_or_default();
    let cap = Capture::load(path).map_err(|e| format!("patterns: {e}"))?;
    let mut phases = Vec::with_capacity(cap.phases.len());
    for (idx, phase) in cap.phases.iter().enumerate() {
        let indicators = np_patterns::Indicators::from_capture_phase(&cap, idx);
        let metrics = np_patterns::derive(&indicators);
        let verdicts = np_patterns::classify(&metrics, None);
        let fired = np_patterns::fired_names(&verdicts);
        phases.push(np_patterns::PhaseDoc {
            phase: phase.clone(),
            metrics: np_patterns::metric_docs(&metrics),
            verdicts,
            fired,
        });
    }
    let doc = np_patterns::PatternsDoc::new(&cap.workload, Vec::new(), phases);
    let mut text = format!(
        "per-phase pattern attribution: {} on {} ({} phase(s))\n\n",
        cap.workload,
        cap.machine,
        doc.phases.len()
    );
    for p in &doc.phases {
        let label = if p.fired.is_empty() {
            "healthy".to_string()
        } else {
            p.fired.join(", ")
        };
        text.push_str(&format!("  phase {:<16} -> {label}\n", p.phase));
        patterns_verdict_lines(&mut text, &p.verdicts, "    ");
        text.push('\n');
    }
    text.push_str(&format!("document -> {}\n", cli.out));
    patterns_emit(cli, &doc, text)
}

/// `np patterns --workload NAME`: classify one registry workload.
fn patterns_single(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let program = w.build(&machine);
    let (metrics, verdicts) = np_patterns::classify_run(&program, &machine, cli.seed)?;
    let fired = np_patterns::fired_names(&verdicts);
    let expected: Vec<String> = np_workloads::registry::expected_patterns(name)
        .unwrap_or(&[])
        .iter()
        .map(|s| s.to_string())
        .collect();
    let matched = fired == expected;
    let case = np_patterns::CaseDoc {
        workload: name.to_string(),
        machine: cli.machine.clone(),
        threads: cli.threads as u64,
        seed: cli.seed,
        metrics: np_patterns::metric_docs(&metrics),
        verdicts,
        fired,
        expected,
        matched,
    };
    let mut text = patterns_case_text(&case);
    text.push_str(&format!("\ndocument -> {}\n", cli.out));
    let doc = np_patterns::PatternsDoc::new(name, vec![case], Vec::new());
    patterns_emit(cli, &doc, text)
}

/// `np bench`: the matrix harness front-end. The first positional word
/// picks the mode: `run` (default) executes a `--config` matrix (or the
/// built-in smoke matrix) and writes the `np-bench/1` report plus
/// optional `--md`/`--csv` renderings; `diff <baseline>` gates a current
/// run against a committed baseline (regressions exit 2); `trend
/// <history>` renders (and with `--append` extends) a JSONL run history;
/// `speedup` gates measured multi-core speedup within one report.
fn bench_cmd(cli: &Cli) -> Result<String, String> {
    let mode = cli.positional.first().map(String::as_str).unwrap_or("run");
    match mode {
        "run" => bench_run(cli),
        "diff" => bench_diff(cli),
        "trend" => bench_trend(cli),
        "speedup" => bench_speedup(cli),
        other => Err(format!(
            "bench: unknown mode '{other}' (run | diff | trend | speedup)"
        )),
    }
}

/// Loads `--config` (TOML subset), or the built-in smoke matrix.
fn bench_load_config(cli: &Cli) -> Result<np_bench::harness::MatrixConfig, String> {
    let cfg = match &cli.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("bench: cannot read config '{path}': {e}"))?;
            np_bench::harness::MatrixConfig::parse(&text)
                .map_err(|e| format!("bench: config '{path}': {e}"))?
        }
        None => np_bench::harness::MatrixConfig::smoke(),
    };
    cfg.validate().map_err(|e| format!("bench: {e}"))
}

/// Runs the configured matrix with `--threads` outer parallelism.
fn bench_execute(cli: &Cli) -> Result<np_bench::harness::BenchReport, String> {
    np_bench::harness::run_matrix(&bench_load_config(cli)?, cli.threads.max(1))
}

/// Reads an `np-bench/1` report from disk.
fn bench_read_report(path: &str) -> Result<np_bench::harness::BenchReport, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("bench: cannot read '{path}': {e}"))?;
    np_bench::harness::BenchReport::from_json(&json).map_err(|e| format!("bench: '{path}': {e}"))
}

/// Writes the optional `--md` / `--csv` renderings of a report.
fn bench_write_renderings(
    cli: &Cli,
    report: &np_bench::harness::BenchReport,
    out: &mut String,
) -> Result<(), String> {
    if let Some(md) = &cli.md {
        std::fs::write(md, np_bench::harness::formats::markdown(report))
            .map_err(|e| format!("bench: cannot write '{md}': {e}"))?;
        out.push_str(&format!("markdown written to {md}\n"));
    }
    if let Some(csv) = &cli.csv {
        std::fs::write(csv, np_bench::harness::formats::csv(report))
            .map_err(|e| format!("bench: cannot write '{csv}': {e}"))?;
        out.push_str(&format!("csv written to {csv}\n"));
    }
    Ok(())
}

fn bench_run(cli: &Cli) -> Result<String, String> {
    let report = bench_execute(cli)?;
    std::fs::write(&cli.out, report.to_json_pretty()?)
        .map_err(|e| format!("bench: cannot write '{}': {e}", cli.out))?;
    let mut out = np_bench::harness::formats::live_table(&report);
    out.push_str(&format!(
        "report written to {} ({})\n",
        cli.out,
        np_bench::harness::BENCH_SCHEMA
    ));
    bench_write_renderings(cli, &report, &mut out)?;
    if cli.smoke {
        if report.audit_ok() {
            out.push_str("smoke: OK\n");
        } else {
            return Err(format!(
                "bench --smoke failed: a cell audit diverged\n{out}"
            ));
        }
    }
    Ok(out)
}

fn bench_diff(cli: &Cli) -> Result<String, String> {
    let baseline_path = cli
        .baseline
        .clone()
        .or_else(|| cli.positional.get(1).cloned())
        .ok_or("bench diff needs a baseline (`np bench diff <baseline.json>` or --baseline)")?;
    let baseline = bench_read_report(&baseline_path)?;
    let current = match &cli.current {
        Some(path) => bench_read_report(path)?,
        None => bench_execute(cli)?,
    };
    let d = np_bench::harness::diff_reports(&baseline, &current, cli.noise_pct, cli.alpha);
    let mut out = np_bench::harness::formats::diff_table(&d);
    if let Some(md) = &cli.md {
        std::fs::write(md, np_bench::harness::formats::diff_markdown(&d))
            .map_err(|e| format!("bench: cannot write '{md}': {e}"))?;
        out.push_str(&format!("markdown written to {md}\n"));
    }
    // A failing gate surfaces as Err, which main maps to exit code 2 —
    // the CI contract.
    match np_bench::harness::gate(&d) {
        Ok(()) => Ok(format!("{out}\ngate: OK ({} cell(s))\n", d.cells.len())),
        Err(e) => Err(format!("{out}\n{e}")),
    }
}

/// `np bench speedup [report.json]`: the measured-speedup gate. Judges
/// every multi-threaded cell of one report against its *own*
/// single-thread cell — no cross-host baseline, so wall-clock noise
/// between machines cannot fake or mask a result. Cells whose driver
/// publishes a modeled speedup (the pooled compute paths) must measure
/// strictly above 1.0; a pool slower than its sequential baseline exits
/// 2. On hosts with fewer than two hardware threads the gate reports
/// and skips — measured parallel speedup is physically impossible there.
fn bench_speedup(cli: &Cli) -> Result<String, String> {
    let report = match cli
        .current
        .clone()
        .or_else(|| cli.positional.get(1).cloned())
    {
        Some(path) => bench_read_report(&path)?,
        None => bench_execute(cli)?,
    };
    let rows = np_bench::harness::speedup_rows(&report);
    let mut out = np_bench::harness::speedup::render(&report, &rows);
    if !np_bench::harness::speedup::host_can_speed_up(&report) {
        out.push_str(
            "speedup: SKIP (recorded on a host with < 2 hardware threads; \
             the gate needs real parallelism)\n",
        );
        return Ok(out);
    }
    match np_bench::harness::gate_speedup(&rows) {
        Ok(()) => {
            let gated = rows.iter().filter(|r| r.gated).count();
            Ok(format!("{out}\nspeedup gate: OK ({gated} gated cell(s))\n"))
        }
        Err(e) => Err(format!("{out}\n{e}")),
    }
}

fn bench_trend(cli: &Cli) -> Result<String, String> {
    use np_bench::harness::trend;
    let history_path = cli
        .append
        .clone()
        .or_else(|| cli.positional.get(1).cloned())
        .ok_or(
            "bench trend needs a history file (`np bench trend <history.jsonl>` or --append FILE)",
        )?;
    let mut history = match std::fs::read_to_string(&history_path) {
        Ok(text) => text,
        // --append bootstraps a missing history file.
        Err(_) if cli.append.is_some() => String::new(),
        Err(e) => return Err(format!("bench: cannot read '{history_path}': {e}")),
    };
    let mut out = String::new();
    if cli.append.is_some() {
        let run = match &cli.current {
            Some(path) => bench_read_report(path)?,
            None => bench_execute(cli)?,
        };
        history = trend::append_run(&history, &run)?;
        std::fs::write(&history_path, &history)
            .map_err(|e| format!("bench: cannot write '{history_path}': {e}"))?;
        out.push_str(&format!("appended run to {history_path}\n"));
    }
    let runs = trend::parse_history(&history)?;
    if let Some(md) = &cli.md {
        std::fs::write(md, trend::trend_markdown(&runs))
            .map_err(|e| format!("bench: cannot write '{md}': {e}"))?;
        out.push_str(&format!("markdown written to {md}\n"));
    }
    out.push_str(&trend::render_trend(&runs));
    Ok(out)
}

/// `np serve`: run the indicator exchange. Binds `--addr` (an ephemeral
/// localhost port by default), announces the bound address on stdout so
/// clients can dial in, then serves `--conns` connections (forever when
/// 0) before summarising store and cache state.
fn serve_cmd(cli: &Cli) -> Result<String, String> {
    let addr = cli.addr.as_deref().unwrap_or("127.0.0.1:0");
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| format!("serve: cannot bind '{addr}': {e}"))?;
    serve_on(cli, listener)
}

/// The serving half of `np serve`, parameterised over the listener so
/// tests can pick the port.
fn serve_on(cli: &Cli, listener: std::net::TcpListener) -> Result<String, String> {
    let server =
        np_serve::ExchangeServer::new(cli.shards, cli.cache_cap).with_workers(cli.workers.max(1));
    let store = server.store();
    let cache = server.cache();
    let local = listener
        .local_addr()
        .map_err(|e| format!("serve: no local address: {e}"))?;
    println!(
        "np serve: indicator exchange on {local} ({} shards, cache {}, {} workers)",
        cli.shards.max(1),
        cli.cache_cap.max(1),
        cli.workers.max(1)
    );
    let conns = if cli.conns == 0 {
        usize::MAX
    } else {
        cli.conns
    };
    server
        .serve(&listener, conns)
        .map_err(|e| format!("serve: {e}"))?;
    Ok(format!(
        "served {} connections: {} sets across {} shards (generation {}), \
         cache {}/{} entries, {} hits / {} misses / {} evictions\n",
        conns,
        store.len(),
        store.shard_count(),
        store.generation(),
        cache.len(),
        cache.capacity(),
        cache.hits(),
        cache.misses(),
        cache.evictions(),
    ))
}

/// `np loadgen`: benchmark an exchange. With `--addr` it hammers a
/// running server; without, it boots an in-process one (same `--shards`
/// / `--cache-cap` / `--workers` knobs as `serve`). The summary is
/// written to `--out` as JSON, and `--smoke` turns the run's invariants
/// (zero errors, cache exercised, transfer audit passed) into the exit
/// status — the CI gate.
fn loadgen_cmd(cli: &Cli) -> Result<String, String> {
    let local = match cli.addr {
        Some(_) => None,
        None => {
            let server = np_serve::ExchangeServer::new(cli.shards, cli.cache_cap)
                .with_workers(cli.workers.max(1));
            let listener =
                np_serve::ExchangeServer::bind().map_err(|e| format!("loadgen: bind: {e}"))?;
            Some(
                server
                    .start(listener)
                    .map_err(|e| format!("loadgen: start server: {e}"))?,
            )
        }
    };
    let addr = match (&cli.addr, &local) {
        (Some(addr), _) => addr.clone(),
        (None, Some(handle)) => handle.addr().to_string(),
        (None, None) => return Err("loadgen: no server".to_string()),
    };
    let config = np_serve::LoadgenConfig {
        addr,
        clients: cli.clients.max(1),
        frames_per_client: cli.frames.max(1),
        seed: cli.seed,
    };
    let result = np_serve::loadgen::run(&config);
    if let Some(handle) = local {
        handle.stop();
    }
    let summary = result.map_err(|e| format!("loadgen: {e}"))?;
    // The artifact is one np-bench/1 loadgen cell, so `np bench
    // diff`/`trend` read it directly.
    let report = np_bench::harness::loadgen_report(&summary);
    std::fs::write(&cli.out, report.to_json_pretty()?)
        .map_err(|e| format!("loadgen: cannot write '{}': {e}", cli.out))?;
    let mut out = format!(
        "== indicator-exchange load ==\n\
         clients               {}\n\
         frames                {}\n\
         requests              {}\n\
         errors                {}\n\
         degraded frames       {}\n\
         hammer throughput     {:.0} frames/s ({:.1} ms)\n\
         predict cold          {:.1} us\n\
         predict warm (cached) {:.1} us\n\
         cache speedup         {:.1}x\n\
         cache hits/misses     {}/{} ({} evictions)\n\
         transfer audit        {} (rel diff {:.2e})\n\
         stored sets           {}\n\
         summary written to    {}\n",
        summary.clients,
        summary.frames,
        summary.requests,
        summary.errors,
        summary.degraded_frames,
        summary.frames_per_sec,
        summary.hammer_ms,
        summary.cold_predict_micros,
        summary.warm_predict_micros,
        summary.cache_speedup,
        summary.cache_hits,
        summary.cache_misses,
        summary.cache_evictions,
        if summary.transfer_consistent {
            "consistent with direct np-models evaluation"
        } else {
            "INCONSISTENT"
        },
        summary.transfer_rel_diff,
        summary.stored_sets,
        cli.out,
    );
    out.push_str("\n== server rate window ==\n");
    out.push_str(&summary.rate_table());
    if cli.smoke {
        if summary.smoke_ok() {
            out.push_str("smoke: OK\n");
        } else {
            return Err(format!("loadgen --smoke failed:\n{out}"));
        }
    }
    Ok(out)
}

/// `np analyze`: static code-to-indicator analysis, proven against one
/// dynamic run — every observed counter total must land inside its static
/// envelope, or the command fails.
fn analyze_cmd(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    match cli.workload.as_deref() {
        Some(name) => analyze_one(cli, &machine, name),
        None => analyze_all(cli, &machine),
    }
}

fn fmt_max(max: Option<u64>) -> String {
    match max {
        Some(m) => m.to_string(),
        None => "∞".to_string(),
    }
}

fn analyze_one(
    cli: &Cli,
    machine: &np_simulator::MachineConfig,
    name: &str,
) -> Result<String, String> {
    let w = workloads::build(name, cli.size, cli.threads, machine)?;
    let program = w.build(machine);
    let a = np_analysis::analyze(&program, machine);
    let mut out = format!(
        "static analysis: {} on {} ({} thread(s), {} basic block(s))\n\n",
        w.name(),
        cli.machine,
        program.threads().len(),
        a.block_count
    );
    match &a.validate {
        Ok(()) => out.push_str("  validation: ok\n"),
        Err(e) => out.push_str(&format!("  validation: FAILED — {e}\n")),
    }
    match &a.barriers {
        Ok(order) if order.is_empty() => out.push_str("  barriers:   none\n"),
        Ok(order) => out.push_str(&format!("  barriers:   {} release(s)\n", order.len())),
        Err(dl) => out.push_str(&format!("  barriers:   {dl}\n")),
    }
    if a.races.is_empty() {
        out.push_str("  races:      none\n");
    } else {
        out.push_str(&format!("  races:      {} finding(s)\n", a.races.len()));
        for r in a.races.iter().take(8) {
            out.push_str(&format!("              {r}\n"));
        }
        if a.races.len() > 8 {
            out.push_str(&format!("              … {} more\n", a.races.len() - 8));
        }
    }
    if a.validate.is_err() || a.barriers.is_err() {
        out.push_str("\nno dynamic run: the program cannot execute\n");
        return Ok(out);
    }

    // Differential proof: one engine run, every total inside its envelope.
    let sim = MachineSim::new(machine.clone());
    let run = sim
        .run(&program, cli.seed)
        .map_err(|e| format!("invalid program: {e}"))?;
    let totals = run.counters.totals();
    out.push_str(&format!(
        "\n  {:<28} {:>16} {:>16} {:>16}\n",
        "event",
        "static min",
        "static max",
        format!("observed@{}", cli.seed)
    ));
    let mut violations = 0usize;
    for (event, bound) in a.bounds.iter() {
        let observed = totals[event.index()];
        let ok = bound.contains(observed);
        if !ok {
            violations += 1;
        }
        out.push_str(&format!(
            "  {:<28} {:>16} {:>16} {:>16}{}\n",
            event.name(),
            bound.min,
            fmt_max(bound.max),
            observed,
            if ok { "" } else { "  OUTSIDE" }
        ));
    }
    let wall_ok = a.bounds.wall_cycles.contains(run.cycles);
    if !wall_ok {
        violations += 1;
    }
    out.push_str(&format!(
        "  {:<28} {:>16} {:>16} {:>16}{}\n",
        "wall cycles",
        a.bounds.wall_cycles.min,
        fmt_max(a.bounds.wall_cycles.max),
        run.cycles,
        if wall_ok { "" } else { "  OUTSIDE" }
    ));
    if violations > 0 {
        return Err(format!(
            "static envelope violated: {violations} event(s) outside bounds for {name} (seed {})",
            cli.seed
        ));
    }
    out.push_str("\ndifferential: every observed total inside its static envelope\n");
    Ok(out)
}

fn analyze_all(cli: &Cli, machine: &np_simulator::MachineConfig) -> Result<String, String> {
    // Registry defaults are sized for real measurements; a sweep over all
    // workloads uses a small size unless one is given explicitly.
    let size = cli.size.unwrap_or(96);
    let sim = MachineSim::new(machine.clone());
    let mut out = format!(
        "static analysis of {} registry workloads (size {}, {} thread(s), seed {})\n\n",
        workloads::NAMES.len(),
        size,
        cli.threads,
        cli.seed
    );
    out.push_str(&format!(
        "  {:<20} {:>7} {:>9} {:>6}  envelope\n",
        "workload", "blocks", "releases", "races"
    ));
    let mut programs = Vec::with_capacity(workloads::NAMES.len());
    for name in workloads::NAMES {
        let w = workloads::build(name, Some(size), cli.threads, machine)?;
        programs.push((name.to_string(), w.build(machine)));
    }
    // The static passes fan across the pool in registry order; the
    // differential runs stay serial so failures read top-to-bottom.
    let analyses = np_analysis::analyze_many(&programs, machine, &np_parallel::Pool::default());
    let mut failures = Vec::new();
    for ((name, a), (_, program)) in analyses.iter().zip(&programs) {
        let releases = match &a.barriers {
            Ok(order) => order.len().to_string(),
            Err(_) => "DEADLOCK".to_string(),
        };
        let verdict = if a.validate.is_ok() && a.barriers.is_ok() {
            let run = sim
                .run(program, cli.seed)
                .map_err(|e| format!("invalid program: {e}"))?;
            let v = a.bounds.check(&run.counters.totals(), run.cycles);
            if v.is_empty() {
                "ok"
            } else {
                failures.push(format!("{name}: {}", v.join("; ")));
                "OUTSIDE"
            }
        } else {
            failures.push(format!("{name}: does not execute"));
            "skipped"
        };
        out.push_str(&format!(
            "  {:<20} {:>7} {:>9} {:>6}  {}\n",
            name,
            a.block_count,
            releases,
            a.races.len(),
            verdict
        ));
    }
    if failures.is_empty() {
        out.push_str(
            "\ndifferential: every workload's observed totals inside its static envelope\n",
        );
        Ok(out)
    } else {
        Err(format!(
            "static envelopes violated:\n{}",
            failures.join("\n")
        ))
    }
}

/// `np audit`: the workspace concurrency & determinism audit. Any finding
/// not waived inline with `// audit:allow(<rule>)` is an error (the
/// binary exits 2) so CI fails on a violation; `--sarif` emits the
/// code-scanning report, and `--inventory` regenerates the committed
/// unsafe inventory. Both side files are written before the gate decides.
fn audit_cmd(cli: &Cli) -> Result<String, String> {
    let report = np_analysis::audit_workspace(std::path::Path::new(&cli.path))
        .map_err(|e| format!("audit: cannot scan '{}': {e}", cli.path))?;
    if let Some(p) = &cli.sarif {
        std::fs::write(p, report.to_sarif())
            .map_err(|e| format!("audit: cannot write SARIF '{p}': {e}"))?;
    }
    if let Some(p) = &cli.inventory {
        std::fs::write(p, report.inventory_markdown())
            .map_err(|e| format!("audit: cannot write inventory '{p}': {e}"))?;
    }
    let body = if cli.json {
        report.to_json() + "\n"
    } else {
        report.render() + "\n"
    };
    if report.is_clean() {
        Ok(body)
    } else {
        Err(body)
    }
}

fn c2c(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let program = w.build(&machine);
    let sim = MachineSim::new(machine);
    let analysis = np_core::c2c::analyse(&sim, &program, cli.seed);
    Ok(analysis.render(10))
}

fn session(cli: &Cli) -> Result<np_core::session::Session, String> {
    np_core::session::Session::open(&cli.session).map_err(|e| format!("session: {e}"))
}

fn diff(cli: &Cli) -> Result<String, String> {
    let a = cli.workload_a.as_deref().ok_or("diff needs -a ARCHIVE")?;
    let b = cli.workload_b.as_deref().ok_or("diff needs -b ARCHIVE")?;
    let report = session(cli)?
        .compare(&EvSel::default(), a, b)
        .map_err(|e| format!("diff: {e}"))?;
    Ok(report.render())
}

fn archives(cli: &Cli) -> Result<String, String> {
    let names = session(cli)?.list().map_err(|e| format!("archives: {e}"))?;
    if names.is_empty() {
        return Ok(format!("no archives in {}\n", cli.session));
    }
    Ok(names.join("\n") + "\n")
}

fn workload_name(cli: &Cli) -> Result<&str, String> {
    cli.workload
        .as_deref()
        .ok_or_else(|| "this command needs --workload NAME".to_string())
}

fn plan(cli: &Cli) -> MeasurementPlan {
    let mut p = MeasurementPlan::all_events(cli.reps, cli.seed);
    if cli.multiplexed {
        p = p.multiplexed();
    }
    p
}

fn table1(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    if cli.json {
        // Dump the full config: edit the JSON and pass it back with
        // `--machine my-machine.json` to simulate a custom topology.
        return serde_json::to_string_pretty(&machine)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| e.to_string());
    }
    let mut out = String::from("Simulated test system\n");
    for (k, v) in machine.table_i_rows() {
        out.push_str(&format!("  {k:<18} {v}\n"));
    }
    Ok(out)
}

fn catalog(cli: &Cli) -> Result<String, String> {
    let cat = EventCatalog::builtin();
    if cli.json {
        return Ok(cat.to_json());
    }
    let mut out = String::new();
    for e in &cat.events {
        out.push_str(&format!(
            "{:#06x}/{:#04x}  {:<28} {}  — {}\n",
            e.code,
            e.umask,
            e.name,
            if e.uncore { "[uncore]" } else { "[core]  " },
            e.description
        ));
    }
    Ok(out)
}

fn stat(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let runner = Runner::new(machine);
    let plan = plan(cli);
    let runs = runner.measure(w.as_ref(), &plan)?;
    if let Some(save) = &cli.save {
        session(cli)?
            .save(save, &runs)
            .map_err(|e| format!("save: {e}"))?;
    }
    let mut out = format!(
        "counters for {} ({} repetitions, {}; {} runs on hardware, {} simulated):\n\n",
        runs.label,
        runs.len(),
        if cli.multiplexed {
            "multiplexed"
        } else {
            "batched runs"
        },
        plan.total_runs(),
        runs.len()
    );
    for event in runs.events() {
        let mean = runs.mean(event).unwrap_or(0.0);
        if mean == 0.0 {
            continue;
        }
        out.push_str(&format!("  {:<28} {:>16.0}\n", event.name(), mean));
    }
    let zeroes = runs.all_zero_events().len();
    out.push_str(&format!(
        "\n  ({zeroes} events stayed zero and are not shown)\n"
    ));
    Ok(out)
}

fn compare(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let a_name = cli.workload_a.as_deref().ok_or("compare needs -a NAME")?;
    let b_name = cli.workload_b.as_deref().ok_or("compare needs -b NAME")?;
    let a = workloads::build(a_name, cli.size, cli.threads, &machine)?;
    let b = workloads::build(b_name, cli.size, cli.threads, &machine)?;
    let runner = Runner::new(machine);
    let runs_a = runner.measure(a.as_ref(), &plan(cli))?;
    let runs_b = runner.measure(b.as_ref(), &plan(cli))?;
    Ok(EvSel::default().compare(&runs_a, &runs_b).render())
}

fn sweep(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let runner = Runner::new(machine.clone());
    let mut sweep = ParameterSweep::new("threads");
    for threads in [1usize, 2, 3, 4, 6, 8, 12, 16] {
        if threads > machine.topology.total_cores() {
            break;
        }
        let w = workloads::build(name, cli.size, threads, &machine)?;
        let runs = runner.measure(w.as_ref(), &plan(cli))?;
        sweep.push(threads as f64, runs);
    }
    Ok(EvSel::default().correlate(&sweep).render())
}

fn memhist(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let program = w.build(&machine);
    let sim = MachineSim::new(machine);
    let tool = Memhist::with_defaults();
    let result = tool.measure(&sim, &program, cli.seed);
    let mode = if cli.costs {
        HistogramMode::Costs
    } else {
        HistogramMode::Occurrences
    };
    let mut out = format!(
        "Memhist, {} ({} mode):\n\n",
        w.name(),
        if cli.costs {
            "event costs"
        } else {
            "event occurrences"
        }
    );
    out.push_str(&result.render(mode));
    out.push_str(&format!("\nnegative bins: {}\n", result.negative_bins()));
    Ok(out)
}

fn phasen(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let program = w.build(&machine);
    let sim = MachineSim::new(machine);
    let pp = Phasenpruefer::default();
    let events = [
        HwEvent::Instructions,
        HwEvent::LoadRetired,
        HwEvent::StoreRetired,
        HwEvent::L1dMiss,
        HwEvent::LocalDramAccess,
    ];
    let (report, attr) = pp
        .measure(&sim, &program, cli.seed, &events)
        .ok_or("phase detection failed (footprint too short?)")?;
    let mut out = format!(
        "phase transition at cycle {} (ramp slope {:+.3} MiB/sample, compute {:+.3})\n\n",
        report.pivot_time,
        report.ramp_slope(),
        report.compute_slope()
    );
    out.push_str(&attr.render(&events));
    Ok(out)
}

fn annotate_cmd(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let regions = workloads::region_names(name);
    if regions.is_empty() {
        return Err(format!("workload '{name}' declares no source regions"));
    }
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let program = w.build(&machine);
    let sim = MachineSim::new(machine);
    let run = sim
        .run(&program, cli.seed)
        .map_err(|e| format!("invalid program: {e}"))?;
    let names = RegionNames::new(&regions);
    let events = [
        HwEvent::Instructions,
        HwEvent::L1dMiss,
        HwEvent::FillBufferReject,
        HwEvent::HitmTransfer,
        HwEvent::StallCycles,
    ];
    Ok(annotate(&run, &names, &events))
}

fn objprof_cmd(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let program = w.build(&machine);
    let sim = MachineSim::new(machine);
    let prof = objprof::profile(&sim, &program, cli.seed);
    Ok(prof.render(&workloads::object_names(name)))
}

fn balance(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let name = workload_name(cli)?;
    let w = workloads::build(name, cli.size, cli.threads, &machine)?;
    let program = w.build(&machine);
    let sim = MachineSim::new(machine.clone());
    let run = sim
        .run(&program, cli.seed)
        .map_err(|e| format!("invalid program: {e}"))?;
    Ok(BalanceReport::from_run(&machine, &run).render())
}

fn mlc_cmd(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    let sim = MachineSim::new(machine.clone());
    let matrix = mlc::measure_matrix(&sim, 8 << 20, 500, cli.seed);
    let mut out =
        String::from("node-to-node load latency (cycles, median of a dependent chase):\n\n      ");
    for to in 0..machine.topology.nodes {
        out.push_str(&format!("{to:>8}"));
    }
    out.push('\n');
    for (from, row) in matrix.iter().enumerate() {
        out.push_str(&format!("  {from:>4}"));
        for v in row {
            out.push_str(&format!("{v:>8.0}"));
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    fn run(args: &[&str]) -> Result<String, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        super::super::run(&v)
    }

    #[test]
    fn table1_prints_machine() {
        let out = run(&["table1", "--machine", "two-socket"]).unwrap();
        assert!(out.contains("Two-socket"));
    }

    #[test]
    fn catalog_text_and_json() {
        let text = run(&["catalog"]).unwrap();
        assert!(text.contains("fill-buffer-rejects"));
        let json = run(&["catalog", "--json"]).unwrap();
        assert!(json.trim_start().starts_with('{'));
    }

    #[test]
    fn stat_measures_a_small_workload() {
        let out = run(&[
            "stat",
            "--workload",
            "row-major",
            "--size",
            "64",
            "--machine",
            "two-socket",
            "--reps",
            "2",
        ])
        .unwrap();
        assert!(out.contains("instructions"));
        assert!(out.contains("stayed zero"));
        // All 35 events need 9 register batches per repetition on a real
        // PMU; the simulator runs each repetition once.
        assert!(
            out.lines()
                .next()
                .unwrap()
                .ends_with("18 runs on hardware, 2 simulated):"),
            "{out}"
        );
    }

    #[test]
    fn sampled_run_rejects_multiplexed_acquisition() {
        let out_path = std::env::temp_dir().join(format!("np-run-mux-{}.json", std::process::id()));
        let err = run(&[
            "run",
            "--sample",
            "--multiplexed",
            "--workload",
            "stream-local",
            "--machine",
            "two-socket",
            "--reps",
            "2",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(
            err.contains("capture") && err.contains("multiplexed"),
            "{err}"
        );
        assert!(!out_path.exists(), "no capture may be written");
    }

    #[test]
    fn compare_requires_both_workloads() {
        let err = run(&["compare", "-a", "row-major"]).unwrap_err();
        assert!(err.contains("-b"));
    }

    #[test]
    fn compare_small_kernels() {
        let out = run(&[
            "compare",
            "-a",
            "row-major",
            "-b",
            "column-major",
            "--size",
            "96",
            "--machine",
            "two-socket",
            "--reps",
            "2",
        ])
        .unwrap();
        assert!(out.contains("EvSel comparison"));
        assert!(out.contains("L1-dcache-load-misses"));
    }

    #[test]
    fn memhist_renders_bins() {
        let out = run(&[
            "memhist",
            "--workload",
            "mlc-local",
            "--size",
            "2097152",
            "--machine",
            "two-socket",
        ])
        .unwrap();
        assert!(out.contains("negative bins"));
        assert!(out.contains("inf"));
    }

    #[test]
    fn balance_flags_bound_traffic() {
        let out = run(&[
            "balance",
            "--workload",
            "stream-bound",
            "--size",
            "16384",
            "--machine",
            "two-socket",
        ])
        .unwrap();
        assert!(out.contains("imbalance index"));
    }

    #[test]
    fn annotate_requires_labelled_workload() {
        let err = run(&["annotate", "--workload", "sift", "--machine", "two-socket"]).unwrap_err();
        assert!(err.contains("regions"));
    }

    #[test]
    fn objprof_names_objects() {
        let out = run(&[
            "objprof",
            "--workload",
            "stream-bound",
            "--size",
            "8192",
            "--machine",
            "two-socket",
        ])
        .unwrap();
        assert!(out.contains("mean latency"));
    }

    #[test]
    fn mlc_prints_matrix() {
        let out = run(&["mlc", "--machine", "two-socket"]).unwrap();
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn missing_workload_is_a_clear_error() {
        let err = run(&["stat"]).unwrap_err();
        assert!(err.contains("--workload"));
    }

    #[test]
    fn phasen_detects_the_chrome_trace() {
        let out = run(&["phasen", "--workload", "chrome", "--machine", "two-socket"]).unwrap();
        assert!(out.contains("phase transition at cycle"));
        assert!(out.contains("phase 1") && out.contains("phase 2"));
    }

    #[test]
    fn c2c_reports_sort_contention() {
        let out = run(&[
            "c2c",
            "--workload",
            "sort",
            "--size",
            "8192",
            "--machine",
            "two-socket",
        ])
        .unwrap();
        assert!(out.contains("total HITM"));
    }

    #[test]
    fn analyze_single_workload_shows_differential_table() {
        let out = run(&[
            "analyze",
            "--workload",
            "sort",
            "--size",
            "512",
            "--machine",
            "two-socket",
        ])
        .unwrap();
        assert!(out.contains("static min"));
        assert!(out.contains("instructions"));
        assert!(out.contains("wall cycles"));
        assert!(out.contains("differential: every observed total inside its static envelope"));
        assert!(!out.contains("OUTSIDE"));
    }

    #[test]
    fn analyze_all_workloads_sweeps_the_registry() {
        let out = run(&["analyze", "--machine", "two-socket", "--size", "64"]).unwrap();
        assert!(out.contains("row-major"));
        assert!(out.contains("bfs-interleaved"));
        assert!(!out.contains("OUTSIDE"));
        assert!(out.contains("differential: every workload's observed totals"));
    }

    #[test]
    fn audit_runs_clean_on_this_workspace() {
        let out = run(&["audit"]).unwrap();
        assert!(out.contains("audit clean"), "{out}");
        let json = run(&["audit", "--json"]).unwrap();
        assert!(json.contains("\"version\":\"np-audit/2\""), "{json}");
        assert!(json.contains("\"findings\":[]"), "{json}");
    }

    /// Each injected rule violation must fail the gate (`run` returns
    /// `Err`, which `main` maps to exit code 2) and name its rule.
    #[test]
    fn audit_fails_per_seeded_rule_violation() {
        let seeds: &[(&str, &[(&str, &str)])] = &[
            (
                "lock-order",
                &[(
                    "crates/a/src/lib.rs",
                    "fn ab(s: &S) {\n    let a = s.alpha.lock();\n    let b = s.beta.lock();\n    \
                     drop(b);\n    drop(a);\n}\nfn ba(s: &S) {\n    let b = s.beta.lock();\n    \
                     let a = s.alpha.lock();\n    drop(a);\n    drop(b);\n}\n",
                )],
            ),
            (
                "condvar-discipline",
                &[(
                    "crates/a/src/lib.rs",
                    "fn poke(cv: &std::sync::Condvar) {\n    cv.notify_one();\n}\n",
                )],
            ),
            (
                "atomics-ordering",
                &[(
                    "crates/a/src/lib.rs",
                    "use std::sync::atomic::{AtomicU64, Ordering};\nfn bump(c: &AtomicU64) {\n    \
                     c.fetch_add(1, Ordering::Relaxed);\n}\n",
                )],
            ),
            (
                "hot-path-hygiene",
                &[(
                    "crates/a/src/lib.rs",
                    "// audit:hot\nfn hot(xs: &[u32]) -> Vec<u32> {\n    \
                     xs.iter().map(|x| x + 1).collect()\n}\n",
                )],
            ),
            (
                "unsafe-safety",
                &[(
                    "crates/a/src/lib.rs",
                    "fn launder(x: u32) -> u32 {\n    \
                     unsafe { std::mem::transmute::<u32, u32>(x) }\n}\n",
                )],
            ),
            (
                "no-panic-reachable",
                &[
                    (
                        "crates/serve/src/lib.rs",
                        "pub fn handle(req: u32) -> String { render(req) }\n",
                    ),
                    (
                        "crates/util/src/lib.rs",
                        "pub fn render(req: u32) -> String {\n    \
                         checked(req).unwrap()\n}\nfn checked(req: u32) -> Option<String> {\n    \
                         Some(req.to_string())\n}\n",
                    ),
                ],
            ),
            (
                "bounded-reads",
                &[(
                    "crates/a/src/lib.rs",
                    "use std::net::TcpStream;\nfn slurp(s: &mut TcpStream, buf: &mut [u8]) {\n    \
                     let _ = s.read(buf);\n}\n",
                )],
            ),
            (
                "guarded-telemetry",
                &[(
                    "crates/a/src/lib.rs",
                    "fn observe() {\n    np_telemetry::global().counter(\"x\").inc();\n}\n",
                )],
            ),
            (
                "no-wall-clock",
                &[(
                    "crates/parallel/src/lib.rs",
                    "fn tick() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
                )],
            ),
        ];
        for (rule, files) in seeds {
            let dir =
                std::env::temp_dir().join(format!("np-audit-seed-{rule}-{}", std::process::id()));
            for (path, src) in *files {
                let full = dir.join(path);
                std::fs::create_dir_all(full.parent().unwrap()).unwrap();
                std::fs::write(&full, src).unwrap();
            }
            let err = run(&["audit", "--path", &dir.to_string_lossy()]).unwrap_err();
            assert!(err.contains(rule), "seed for {rule} produced:\n{err}");
            assert!(err.contains("audit FAILED"), "{err}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn audit_fails_on_a_panic_in_an_entry_file() {
        let dir = std::env::temp_dir().join(format!("np-audit-entry-{}", std::process::id()));
        let src = dir.join("crates/counters/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("acquisition.rs"),
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )
        .unwrap();
        let err = run(&["audit", "--path", &dir.to_string_lossy()]).unwrap_err();
        assert!(err.contains("[no-panic-reachable]"), "{err}");
        assert!(err.contains("acquisition.rs:1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_audit_still_lands_sarif_and_inventory_on_disk() {
        let dir = std::env::temp_dir().join(format!("np-audit-cli-{}", std::process::id()));
        let src = dir.join("crates/a/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "fn launder(x: u32) -> u32 {\n    unsafe { std::mem::transmute::<u32, u32>(x) }\n}\n",
        )
        .unwrap();
        let sarif = dir.join("audit.sarif");
        let inventory = dir.join("UNSAFE_INVENTORY.md");
        let err = run(&[
            "audit",
            "--path",
            &dir.to_string_lossy(),
            "--sarif",
            &sarif.to_string_lossy(),
            "--inventory",
            &inventory.to_string_lossy(),
        ])
        .unwrap_err();
        assert!(err.contains("[unsafe-safety]"), "{err}");
        assert!(err.contains("audit FAILED: 1 finding(s)"), "{err}");
        let sarif_text = std::fs::read_to_string(&sarif).unwrap();
        assert!(
            sarif_text.contains("\"ruleId\":\"unsafe-safety\""),
            "{sarif_text}"
        );
        let inv = std::fs::read_to_string(&inventory).unwrap();
        assert!(inv.contains("crates/a/src/lib.rs:2"), "{inv}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn custom_machine_file_roundtrip() {
        let json = run(&["table1", "--machine", "two-socket", "--json"]).unwrap();
        let path = std::env::temp_dir().join(format!("np-machine-{}.json", std::process::id()));
        std::fs::write(&path, &json).unwrap();
        let p = path.to_string_lossy().to_string();
        let out = run(&["table1", "--machine", &p]).unwrap();
        assert!(out.contains("Two-socket"));
        // And the custom machine actually drives a measurement.
        let out = run(&["mlc", "--machine", &p]).unwrap();
        assert!(out.lines().count() >= 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_then_diff_workflow() {
        let dir = std::env::temp_dir().join(format!("np-cli-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = dir.to_string_lossy().to_string();
        run(&[
            "stat",
            "--workload",
            "row-major",
            "--size",
            "96",
            "--machine",
            "two-socket",
            "--reps",
            "3",
            "--save",
            "rowA",
            "--session",
            &session,
        ])
        .unwrap();
        run(&[
            "stat",
            "--workload",
            "column-major",
            "--size",
            "96",
            "--machine",
            "two-socket",
            "--reps",
            "3",
            "--save",
            "colB",
            "--session",
            &session,
        ])
        .unwrap();
        let listed = run(&["archives", "--session", &session]).unwrap();
        assert!(listed.contains("rowA") && listed.contains("colB"));
        let out = run(&["diff", "-a", "rowA", "-b", "colB", "--session", &session]).unwrap();
        assert!(out.contains("EvSel comparison"));
        assert!(out.contains("L1-dcache-load-misses"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loadgen_smoke_against_in_process_server() {
        let out_path =
            std::env::temp_dir().join(format!("np-bench-serve-{}.json", std::process::id()));
        let out = run(&[
            "loadgen",
            "--clients",
            "8",
            "--frames",
            "8",
            "--seed",
            "5",
            "--smoke",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("smoke: OK"), "{out}");
        assert!(out.contains("errors                0"), "{out}");
        assert!(out.contains("consistent with direct np-models evaluation"));
        // The artifact is the unified np-bench/1 schema: one loadgen cell.
        let json = std::fs::read_to_string(&out_path).unwrap();
        let report = np_bench::harness::BenchReport::from_json(&json).unwrap();
        assert_eq!(report.bench_meta.tool, "loadgen");
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.id, "loadgen/t8");
        assert_eq!(cell.workload, "loadgen");
        assert!(cell.audit_ok, "smoke invariants map to the cell audit");
        assert!(cell.metrics["frames_per_sec"] > 0.0);
        std::fs::remove_file(&out_path).unwrap();
    }

    #[test]
    fn pool_matrix_config_smoke_audits_determinism() {
        let out_path =
            std::env::temp_dir().join(format!("np-pool-matrix-{}.json", std::process::id()));
        let config = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/bench-parallel.toml");
        let out = run(&[
            "bench",
            "--smoke",
            "--config",
            config,
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("smoke: OK"), "{out}");
        assert!(!out.contains("DIVERGED"), "{out}");
        for path in [
            "campaign",
            "memhist-ladder",
            "phasen-scan",
            "correlate-sweep",
            "analysis-sweep",
        ] {
            assert!(out.contains(path), "missing path {path} in {out}");
        }
        // One np-bench/1 cell per (path, thread count), every one
        // bit-identical to its sequential loop.
        let json = std::fs::read_to_string(&out_path).unwrap();
        let report = np_bench::harness::BenchReport::from_json(&json).unwrap();
        assert_eq!(report.machine, "two-socket");
        assert_eq!(report.cells.len(), 15);
        assert!(report.audit_ok(), "every pooled cell must audit clean");
        assert!(report.cells.iter().any(|c| c.id.starts_with("campaign/t")));
        // Pooled drivers carry the makespan model; the single-pass sweeps
        // (phasen-scan, correlate-sweep) legitimately do not.
        assert!(report
            .cells
            .iter()
            .filter(|c| c.id.starts_with("campaign/") || c.id.starts_with("analysis-sweep/"))
            .all(|c| c.metrics.contains_key("modeled_speedup")));
        std::fs::remove_file(&out_path).unwrap();
    }

    /// Builds an np-bench/1 report file with one campaign t1/t2 pair and
    /// a controlled host_threads, for the speedup-gate tests.
    fn write_speedup_report(host_threads: u64, t1_ns: f64, t2_ns: f64) -> std::path::PathBuf {
        use np_bench::harness::{BenchCell, BenchReport, BENCH_SCHEMA};
        let cell = |threads: u64, mean_ns: f64| {
            let mut metrics = std::collections::BTreeMap::new();
            metrics.insert("modeled_speedup".to_string(), 1.8);
            let mut c = BenchCell {
                id: format!("campaign/t{threads}/s48"),
                workload: "campaign".to_string(),
                threads,
                size: 48,
                samples_ns: vec![mean_ns as u64],
                mean_ns: 0.0,
                stddev_ns: 0.0,
                digest: "same".to_string(),
                audit_ok: true,
                metrics,
            };
            c.finalize();
            c
        };
        let mut meta = np_serve::BenchMeta::collect("np-bench", 1, 1);
        meta.host_threads = host_threads;
        let report = BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            bench_meta: meta,
            machine: "two-socket".to_string(),
            warmup: 1,
            repeats: 1,
            cells: vec![cell(1, t1_ns), cell(2, t2_ns)],
        };
        let path = std::env::temp_dir().join(format!(
            "np-speedup-{}-{host_threads}-{t1_ns}.json",
            std::process::id()
        ));
        std::fs::write(&path, report.to_json_pretty().unwrap()).unwrap();
        path
    }

    #[test]
    fn bench_speedup_gates_a_multicore_report() {
        // Faster at 2 threads: gate OK.
        let good = write_speedup_report(4, 10e6, 6e6);
        let out = run(&["bench", "speedup", good.to_str().unwrap()]).unwrap();
        assert!(out.contains("speedup gate: OK"), "{out}");
        assert!(out.contains("1.67x"), "{out}");
        std::fs::remove_file(&good).unwrap();

        // Slower at 2 threads on a multi-core host: exit-2 regression.
        let bad = write_speedup_report(4, 10e6, 15e6);
        let err = run(&["bench", "speedup", "--current", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("campaign/t2/s48"), "{err}");
        assert!(
            err.contains("slower than its own sequential baseline"),
            "{err}"
        );
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn bench_speedup_skips_on_single_core_hosts() {
        // Same slow pool, but recorded on a 1-thread host: the gate
        // reports and passes — measured parallel speedup is impossible.
        let single = write_speedup_report(1, 10e6, 15e6);
        let out = run(&["bench", "speedup", single.to_str().unwrap()]).unwrap();
        assert!(out.contains("speedup: SKIP"), "{out}");
        std::fs::remove_file(&single).unwrap();
    }

    #[test]
    fn serve_command_serves_bounded_connections() {
        let listener = np_serve::ExchangeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cli = super::super::Cli::parse(&[
            "serve".to_string(),
            "--conns".to_string(),
            "1".to_string(),
            "--shards".to_string(),
            "4".to_string(),
            "--cache-cap".to_string(),
            "8".to_string(),
        ])
        .unwrap();
        let server = std::thread::spawn(move || super::serve_on(&cli, listener));

        let client = np_serve::ExchangeClient::new(addr);
        let mut session = client.connect().unwrap();
        session
            .put(vec![np_core::exchange::indicator_set(
                "dl580",
                3,
                &{
                    let mut rs = np_counters::measurement::RunSet::new("stride");
                    let mut m = np_counters::measurement::Measurement::new(1);
                    m.cycles = 100;
                    m.values.insert(np_simulator::HwEvent::L1dMiss, 5.0);
                    rs.runs.push(m);
                    rs
                },
                None,
                None,
            )])
            .unwrap();
        let sets = session.query(np_serve::QueryReq::machine("dl580")).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].key.program, "stride");
        assert_eq!(sets[0].cycles, 100.0);
        drop(session);

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("served 1 connections"), "{summary}");
        assert!(summary.contains("1 sets across 4 shards"), "{summary}");
    }
}

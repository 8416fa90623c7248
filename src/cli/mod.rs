//! The `numa-perf-tools` command-line front-end.
//!
//! A perf-style driver over the tool suite: every analysis in the paper is
//! one subcommand away. Argument parsing is hand-rolled (the CLI surface
//! is small and the workspace keeps its dependency set tight).

pub mod args;
pub mod commands;
pub mod report;
pub mod top;
pub mod workloads;

pub use args::{Cli, Command};

/// Runs the CLI with the given arguments (excluding the program name);
/// returns the text to print or a usage error.
pub fn run(argv: &[String]) -> Result<String, String> {
    let cli = Cli::parse(argv)?;
    let observed = cli.telemetry.is_some() || cli.trace.is_some();
    if observed {
        np_telemetry::set_enabled(true);
    }
    if cli.trace.is_some() {
        np_telemetry::set_tracing(true);
    }
    np_telemetry::counter!("cli.commands").inc();
    let mut output = {
        let _span = np_telemetry::span!("cli.execute", "cli");
        commands::execute(&cli)?
    };
    if observed {
        if let Some(section) = np_core::report::telemetry_section() {
            output.push_str(&section);
        }
    }
    if let Some(path) = &cli.telemetry {
        let json = np_telemetry::global().snapshot().to_json();
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write telemetry snapshot '{path}': {e}"))?;
    }
    if let Some(path) = &cli.trace {
        std::fs::write(path, np_telemetry::export_chrome_trace())
            .map_err(|e| format!("cannot write trace '{path}': {e}"))?;
    }
    Ok(output)
}

/// The usage text.
pub fn usage() -> &'static str {
    "numa-perf-tools — NUMA performance assessment on a simulated machine

USAGE:
    numa-perf-tools <COMMAND> [OPTIONS]

COMMANDS:
    table1      print the simulated test-system specification (Table I)
    catalog     print the hardware event catalog (--json for EvSel's format)
    stat        measure a workload and print all counters (EvSel single set)
    compare     EvSel comparison of two workloads (-a NAME -b NAME)
    sweep       EvSel thread-count sweep with regressions (Fig. 9 style)
    memhist     load-latency histogram (Fig. 10; --costs for cost mode)
    phasen      phase detection and per-phase counters (Fig. 11)
    annotate    per-source-region event attribution (events-to-code)
    objprof     object-relative memory profile (per-allocation stats)
    balance     NUMA node balance report
    mlc         node-to-node latency matrix (Intel-mlc analogue)
    c2c         cacheline contention report (perf-c2c analogue)
    diff        compare two recorded archives (-a NAME -b NAME)
    archives    list recorded measurement archives
    analyze     static code-to-indicator analysis: barrier/deadlock check,
                data races, per-event bounds proven against a dynamic run
    audit       workspace concurrency & determinism audit (token-level,
                zero-dependency): lock-order cycles, condvar discipline,
                atomics orderings, hot-path hygiene, unsafe inventory,
                panic reachability, bounded socket reads, guarded
                telemetry, no wall clocks in deterministic code
                (--sarif FILE, --inventory FILE)
    serve       run the indicator-exchange server (put/query/predict over
                line-delimited JSON frames)
    loadgen     benchmark an exchange: seeded concurrent load, cache-hit
                speedup and cross-machine transfer audit (np-bench/1
                artifact)
    bench       matrix benchmark harness: `bench [run]` executes a
                declarative workload x threads matrix (--config FILE,
                default: the built-in smoke matrix) with warmup + repeat
                sampling; `bench diff BASELINE` gates a run against a
                committed baseline (Welch t-test inside a noise band,
                regressions exit 2); `bench trend HISTORY` renders
                a JSONL run history; `bench speedup [REPORT]` gates
                measured multi-core speedup within one report
    run         sampled measurement campaign: per-node time-series
                capture with phase attribution (needs --sample; writes
                CAPTURE.json, --timeline FILE for the pool gantt)
    top         live NUMAscope-style per-node telemetry view (plain
                ANSI redraw; --ticks N frames every --interval MS)
    report      render a capture as text or, with --html, as a
                self-contained single-file HTML report (inline SVG)
    patterns    performance-pattern identification: classify a workload
                run (or each phase of a capture) into bandwidth-bound /
                latency-bound / false-sharing / numa-imbalance /
                tlb-thrashing / load-imbalance with per-rule evidence;
                `--verify` re-proves every registry label (exit 2 on a
                mismatch; writes the np-patterns/1 document to --out)

OPTIONS:
    --machine NAME     dl580 (default) | two-socket | ring
    --workload NAME    row-major | column-major | sort | sift | sift-naive |
                       mlc-local | mlc-remote | stream-local | stream-bound |
                       stream-interleaved | chrome | bsp | matmul | bfs |
                       bfs-bound | bfs-interleaved | hashjoin-small |
                       hashjoin-large | chase-small | chase-large |
                       stencil-small | stencil-large | walk-small |
                       walk-large
    -a NAME, -b NAME   workloads for `compare`
    --size N           workload size parameter (elements / pixels / edge)
    --threads N        worker threads (default 4)
    --reps N           measurement repetitions (default 3)
    --seed N           base seed (default 1)
    --costs            memhist: weight bins by latency
    --multiplexed      acquire via timeslice multiplexing instead of
                       repeated batched runs
    --json             catalog: emit JSON
    --save NAME        stat / run: record the measurement (run: the
                       capture) as an archive
    --session DIR      archive directory (default .np-session)
    --telemetry FILE   write the tools' own metrics snapshot as JSON
                       (see `numa-perf-tools help telemetry`)
    --trace FILE       write a Chrome-trace of internal spans
                       (load in chrome://tracing or ui.perfetto.dev)
    --path DIR         audit: workspace root to scan (default .)
    --sarif FILE       audit: also write a SARIF 2.1.0 report
    --inventory FILE   audit: regenerate the unsafe-inventory markdown
    --addr HOST:PORT   serve: bind address (default 127.0.0.1:0);
                       loadgen: exchange to hammer (default: boot an
                       in-process server)
    --conns N          serve: connections to serve before exiting
                       (default 0 = forever)
    --clients N        loadgen: concurrent sessions (default 8)
    --frames N         loadgen: frames per session (default 40)
    --smoke            loadgen: fail unless the run is error-free, the
                       cache was exercised and the transfer audit passed;
                       bench: fail unless every cell audit
                       (bit-equality vs sequential) held
    --out FILE         loadgen / bench [run] / run / report --html /
                       patterns: artifact path (defaults
                       BENCH_serve.json / BENCH_matrix.json /
                       CAPTURE.json / REPORT.html / PATTERNS.json); an
                       output flag on a command or mode that never
                       writes its file exits 2
    --config FILE      bench: matrix config, TOML subset
    --baseline FILE    bench diff: baseline report (or first positional)
    --current FILE     bench diff/trend/speedup: pre-recorded report
                       (default: run the configured matrix)
    --noise PCT        bench diff: noise band in percent (default 15)
    --alpha P          bench diff: Welch significance level (default 0.01)
    --md FILE          bench [run] / diff / trend: also write the
                       markdown rendering
    --csv FILE         bench [run]: also write the CSV rendering
    --append FILE      bench trend: append the current run to this
                       JSONL history, then render it
    --shards N         serve/loadgen: store shards (default 8)
    --cache-cap N      serve/loadgen: prediction-cache entries (default 128)
    --workers N        serve/loadgen: worker threads (default 4)
    --sample           run: switch the time-series sampler on
    --capacity N       run: sampler ring capacity per series (default 256)
    --capture FILE     report: the capture JSON to render
    --timeline FILE    run: write the pool worker timeline here;
                       report: include it as a gantt lane chart
    --html             report: emit the single-file HTML report to --out
    --ticks N          top: frames to draw before exiting (default 12)
    --interval MS      top: redraw interval in milliseconds (default 100)
    --verify           patterns: run the full labeled-registry sweep
                       (both machine presets x 2/4 threads); a missed or
                       spurious pattern exits 2

EXAMPLES:
    numa-perf-tools compare -a row-major -b column-major --size 1024
    numa-perf-tools memhist --workload sift --machine dl580
    numa-perf-tools sweep --workload sort --size 65536
    numa-perf-tools balance --workload stream-bound
    numa-perf-tools bench --smoke --out current.json
    numa-perf-tools bench diff baselines/ci.json --current current.json

HELP TOPICS:
    numa-perf-tools help telemetry     observing the tools themselves
    numa-perf-tools help resilience    fault tolerance in the probe and
                                       acquisition paths
    numa-perf-tools help analyze       static code-to-indicator analysis
    numa-perf-tools help audit         the concurrency & determinism audit
    numa-perf-tools help serve         the indicator-exchange service
    numa-perf-tools help loadgen       benchmarking the exchange
    numa-perf-tools help parallel      deterministic worker-pool execution
    numa-perf-tools help bench         the matrix harness and the
                                       regression gate
    numa-perf-tools help top           the live telemetry view
    numa-perf-tools help report        captures and the HTML report
    numa-perf-tools help patterns      performance-pattern identification
"
}

/// The `help telemetry` topic: observing the tool suite itself.
pub fn telemetry_help() -> &'static str {
    "Observing the tools themselves
==============================

The suite carries its own zero-dependency metrics layer (np-telemetry).
It is off by default and costs one relaxed atomic load per
instrumentation site while off. Two global flags turn it on:

    --telemetry FILE   enable metrics; after the command finishes, write
                       a JSON snapshot of every counter, gauge and
                       latency histogram to FILE, and append a
                       `== tool telemetry ==` section to the report
    --trace FILE       additionally buffer every internal span and write
                       a Chrome-trace JSON array to FILE; open it in
                       chrome://tracing or https://ui.perfetto.dev.
                       The buffer keeps the newest 65536 spans; older
                       ones are overwritten and counted in trace.dropped

WHAT IS RECORDED:
    sim.*       simulator throughput: runs, instructions, cycles,
                per-NUMA-node memory ops, cache/coherence event totals
    acq.*       acquisition: acq.runs counts simulations (one per
                repetition), acq.batched.batch_runs the logical
                register-batch runs real hardware would need for them;
                multiplexed timeslices, PEBS threshold rotations
    runner.*    campaigns, repetitions, pool fan-out occupancy
    par.*       worker pool: tasks executed, chunks run beyond a fair
                share (par.steal), per-pop idle time (par.idle_ns)
    session.*   archive saves/loads and bytes written/read
    probe.*     Memhist TCP probe: requests, bytes on wire, per-
                connection errors, request latency
    span.*      wall-time histograms (ns) for every traced region

EXAMPLES:
    numa-perf-tools stat -w sift --telemetry tele.json
    numa-perf-tools compare -a row-major -b column-major \\
        --telemetry tele.json --trace trace.json
"
}

/// The `help resilience` topic: fault tolerance across the tool suite.
pub fn resilience_help() -> &'static str {
    "Fault tolerance in the probe and acquisition paths
==================================================

Remote measurement (the Memhist TCP probe of Fig. 6) and long
acquisition campaigns run against links and machines that fail. The
np-resilience crate supplies the policy layer; the probe client/server
and the cycling PEBS rotation are wired through it, and the exchange
server reuses its deadlines and fault injection.

RETRY:       exponential backoff with deterministic, seedable jitter
             (a schedule is a pure function of its seed) and a
             max-attempt cap.
TIMEOUTS:    every probe connection pins read/write deadlines on the
             socket and bounds the request/response frame size, so a
             hostile or wedged peer cannot hang or OOM either side.
DEGRADATION: a chunked remote fetch that loses part of the threshold
             ladder past its retry budget returns a histogram assembled
             from the surviving thresholds, flagged `degraded`, with
             the lost `[lo, hi)` intervals enumerated — partial data
             beats no data. Memhist renders a DEGRADED footer.
QUARANTINE:  a torn archive file fails its load, is renamed to
             `<name>.json.corrupt`, and stops shadowing the name.

FAULT INJECTION (tests and drills):
    Deterministic scripted faults — drop-connection, truncate-payload,
    delay, garbage-bytes, refuse-accept — can be queued per site:
        probe.accept        server accept loop
        probe.response      server response path
    The fault matrix in tests/integration_resilience.rs drives every
    fault through a live probe round-trip nightly in CI.

TELEMETRY (with --telemetry FILE):
    resilience.retries        attempts after the first, whether or not
                              the policy slept before them
    faults.injected           scripted faults consumed
    probe.fetch.*             chunks, chunks_lost, degraded fetches
    probe.faults.*            server-side injected fault outcomes
    session.quarantined       corrupt archives quarantined

CI:
    .github/workflows/ci.yml runs fmt, clippy -D warnings, a release
    build and the workspace tests offline on stable + the pinned MSRV;
    nightly.yml adds the fault matrix, the telemetry-overhead guard and
    uploads a telemetry snapshot artifact. scripts/ci-local.sh
    reproduces both locally (`--quick` skips the nightly tier).
"
}

/// The `help analyze` topic: the static half of code-to-indicator.
pub fn analyze_help() -> &'static str {
    "Static code-to-indicator analysis
=================================

The paper maps code to hardware indicators by running it and reading
counters (dynamic). `analyze` supplies the static half of that mapping:
it derives, from program structure alone, what the counters *can* say —
and proves the claim against the engine on every invocation.

    numa-perf-tools analyze --workload sort --size 4096
    numa-perf-tools analyze --machine two-socket     # all workloads

PASSES (crate np-analysis):
    CFG       per-thread basic blocks cut at barriers, branches, labels
    barriers  abstract lockstep over each thread's barrier-id sequence;
              sound and complete against the engine's release rule, so
              `analyze` reports a deadlock exactly when `run` would hang
    races     happens-before detection over barrier supersteps: two
              accesses race when different threads touch the same byte,
              at least one writes, and no barrier orders them
    bounds    a static envelope [min, max] per hardware event. Retired
              counts are exact; placement events (local/remote DRAM)
              come from AllocPolicy x thread pinning; dTLB bounds from
              per-flush-segment working sets against the TLB geometry;
              interrupt and cycle bounds from a fixed point over the
              timer-interrupt feedback loop. An unbounded max renders
              as infinity (interrupts can outpace forward progress).

DIFFERENTIAL PROOF:
    With --workload, the table's observed column is one engine run at
    --seed; any total outside its envelope fails the command. Without
    --workload, every registry workload is analyzed and run once. The
    same check runs in CI and as property tests over generated programs
    (crates/analysis/tests/proptests.rs), so the static model cannot
    drift from engine accounting unnoticed.
"
}

/// The `help audit` topic: concurrency & determinism audit.
pub fn audit_help() -> &'static str {
    "The workspace concurrency & determinism audit
=============================================

`audit` enforces the cross-crate rules a type checker cannot express
with a token-level scan (a blanking lexer, no syn, no rustc plumbing),
a per-file function index and an approximate workspace call graph.
Every finding is an error (exit code 2), so CI fails on a violation.
Comments, strings and #[cfg(test)] modules are exempt, and
`// audit:allow(rule): why` on the offending line is the one way to
waive a finding, with its reason next to the code.

    numa-perf-tools audit [--path DIR] [--json] [--sarif FILE]
                          [--inventory FILE]

RULES:
    lock-order           two lock labels acquired in opposite orders
                         anywhere in the workspace (one-hop callee
                         extension, crate-qualified labels) — a cycle
                         in the acquisition-order graph is a deadlock
                         waiting for the right interleaving
    condvar-discipline   a bare Condvar wait/wait_timeout outside a
                         predicate re-check loop (spurious wakeups),
                         and notify_one/notify_all in a fn that neither
                         acquires the guarded mutex nor takes a
                         MutexGuard parameter (missed wakeups)
    atomics-ordering     Ordering::Relaxed outside crates/telemetry,
                         and Acquire loads with no Release store (or
                         vice versa) on the same atomic field — an
                         unpaired ordering synchronizes nothing
    hot-path-hygiene     fns marked `// audit:hot` must not allocate,
                         format, lock, or do I/O
    unsafe-safety        every `unsafe` needs a `// SAFETY:` comment
                         within three lines; the full inventory is
                         committed as UNSAFE_INVENTORY.md and CI
                         regenerates and diffs it
    no-panic-reachable   .unwrap()/.expect()/panic!/unreachable!/todo!
                         on any line of the entry files (the serve
                         crate, memhist/probe.rs, resilience/io.rs,
                         counters/acquisition.rs, counters/pebs.rs) or
                         in any fn reachable from them (bounded
                         call-graph walk) — a panic there kills a
                         campaign or a connection instead of returning
                         a typed error
    bounded-reads        files touching TcpStream must not call raw
                         .read()/read_to_string()/read_to_end(); go
                         through np_resilience::io::read_line_bounded
                         so a slow or hostile peer cannot wedge the
                         client
    guarded-telemetry    np_telemetry::global() outside crates/telemetry
                         must sit under an enabled() check in the
                         enclosing fn
    no-wall-clock        Instant::now()/SystemTime::now() are forbidden
                         in the simulator, the fault plan, the worker
                         pool (crates/parallel/src), the time-series
                         sampler (captures are timestamped in simulated
                         cycles), `np top`, the bench matrix harness
                         (crates/bench/src/harness) and the np-patterns
                         classifier (its verdicts are byte-identical at
                         any thread count) — pool and harness timings
                         flow through np_telemetry::now_ns for
                         reporting only

OUTPUT:
    [rule] file.rs:LINE message        (text, one finding per line)
    --json emits the deterministic np-audit/2 report (byte-identical
    across runs); --sarif writes SARIF 2.1.0 for code-scanning UIs;
    --inventory regenerates UNSAFE_INVENTORY.md.
"
}

/// The `help serve` topic: the indicator exchange.
pub fn serve_help() -> &'static str {
    "The indicator-exchange service
==============================

The paper's two-step assessment measures indicators on one machine and
maps them to costs on another — indicators are designed to *transfer*.
`serve` gives that transfer a networked home: a long-running service
(np-serve) where measurement campaigns publish indicator sets and any
client prices them on any calibrated machine.

    numa-perf-tools serve [--addr HOST:PORT] [--conns N]
                          [--shards N] [--cache-cap N] [--workers N]

WIRE PROTOCOL (versioned, line-delimited JSON):
    One frame per line; a request frame batches any mix of requests and
    is answered positionally. Frames carry a `version` field checked by
    both sides.
    put      store an indicator set keyed (machine, program, param):
             EvSel per-event means + mean cycles, optional Memhist
             interval counts and Phasenpruefer split
    query    fetch sets by machine/program/param filters (None = any);
             all queries of a frame are answered in ONE pass per shard,
             and replies splice each set's stored JSON, encoded once by
             its first reader. A query whose sets would take the reply
             line past 4 MiB, the most the stock client reads, gets a
             per-request error instead: narrow the query
    predict  transfer a stored set onto a *different* target machine:
             the server fits the np-models TransferModel over the
             target's stored (indicators, cycles) pairs and evaluates
             the source indicators — deterministic, so clients can
             re-derive and audit the answer
    stats    store/cache/generation counters (the generation counts
             puts; the cache does not key on it)

CONCURRENCY:
    The store is N-sharded (per-shard RwLock, FNV key routing): writers
    only contend with readers of their own shard. Connections are
    handed to a fixed worker pool, so one slow client cannot starve the
    accept loop. Calibrated models go through a deterministic LRU
    prediction cache keyed by (target machine, fingerprint of the
    target's stored content, model): every source priced on a target
    shares one fit, a put that re-publishes identical content or
    writes another machine invalidates nothing, and any real change to
    the target's content yields a new key, so a stale model is
    unservable. A predict reply's `cached` flag says the model came
    from the cache.

HARDENING (np-resilience):
    bounded frame reads, a 128-level JSON nesting limit, socket
    deadlines, typed error frames instead of dropped connections, and
    scripted fault sites `serve.accept` / `serve.response` for the
    nightly fault matrix.

TELEMETRY (with --telemetry FILE):
    span.serve.{put,query,predict,stats}   per-endpoint latency
    span.serve.parse                       request decode, per frame
    span.serve.write                       reply encode + socket write,
                                           per frame
    serve.store.encodes                    sets the store serialized
    serve.replies_refused                  queries refused for reply size
    serve.inflight                         connections being served
    serve.cache.{hit,miss,evict}           prediction-cache traffic
    serve.model.fits                       model calibrations (cache misses)
    serve.faults.* / serve.errors          injected faults, IO failures
"
}

/// The `help loadgen` topic: benchmarking the exchange.
pub fn loadgen_help() -> &'static str {
    "Benchmarking the exchange
=========================

`loadgen` drives a seeded, deterministic workload against an exchange
and writes its artifact (default BENCH_serve.json) in the unified
np-bench/1 schema — one `loadgen/t<clients>` cell — so `np bench diff`
and `np bench trend` read it directly. Without --addr it boots an
in-process server first. The hammer phase starts its client sessions
behind a barrier, so the throughput window covers N genuinely
concurrent sessions rather than a spawn ramp.

    numa-perf-tools loadgen [--addr HOST:PORT] [--clients N]
                            [--frames N] [--seed N] [--smoke]
                            [--out FILE]

PHASES:
    seed     publish 48 indicator sets for each of two synthetic
             machines whose cost is an exact linear function of their
             indicators (the structure the transfer model fits)
    predict  time the same cross-machine predict cold (fit) and warm
             (cache hit) — their ratio is the reported cache speedup
    audit    refit the transfer model client-side from queried sets and
             check the server's transferred cost matches the direct
             np-models evaluation (the fit is deterministic: they must)
    hammer   N concurrent sessions send mixed batched frames (queries,
             predicts, puts); every protocol or server error counts

SMOKE GATE (--smoke, used by CI):
    errors == 0, cache hits observed, transfer audit passed. Latency
    and speedup numbers are reported, never gated — they are hardware-
    dependent and would flake in CI.

REPEAT RUNS:
    The server caches calibrated models by training content. A second
    run with the same --seed against the same long-lived --addr server
    publishes the same sets, finds their model already cached and fails
    with 'first predict reported as cached'. Pass another --seed or
    restart the server. Runs without --addr boot a fresh server and
    are unaffected.
"
}

/// The `help parallel` topic: deterministic worker-pool execution.
pub fn parallel_help() -> &'static str {
    "Deterministic worker-pool execution
===================================

Campaigns, the differential-envelope analysis sweep (`analyze`) and
the labelled-registry verification sweep (`patterns --verify`) fan out
across the np-parallel pool: a zero-dependency, std::thread-based
fork-join layer. (The Memhist threshold ladder reads every threshold
off one run, so it has nothing to fan out. The Phasenprüfer pivot scan
and the correlation sweep run serially: each takes under 2 ms, and
each ran slower fanned across two workers than on one.)

DETERMINISM CONTRACT:
    Results merge in submission order (by chunk index, not completion
    order), so every pooled path is bit-identical to its sequential
    loop at ANY thread count. `--threads` is purely a throughput knob;
    it can never change a measured value. The pool itself is in the
    audit's no-wall-clock scope, so nothing in it can branch on
    timing.

FAILURE SEMANTICS:
    A worker panic propagates to the caller (earliest item wins,
    deterministically); `try_run` surfaces it as a typed error instead.
    Pools hold no long-lived state, so nothing is poisoned: the same
    pool value keeps working after a panic.

BENCHMARK:
    numa-perf-tools bench --smoke --config baselines/bench-parallel.toml
    runs the pooled paths (and the serial ladder, pivot scan and
    correlation sweep) at 1/2/4 threads through the `np bench` matrix
    harness and writes the unified np-bench/1 artifact: per
    cell, wall-time samples, a modeled speedup (greedy makespan of the
    sequential chunk costs — meaningful even on a single-core CI host),
    and a bit-equality audit. --smoke gates ONLY the audit; speedups
    are reported, never gated.

TELEMETRY (with --telemetry FILE):
    par.tasks      chunks executed
    par.steal      chunks executed beyond a worker's fair share
    par.idle_ns    per-pop idle time histogram
"
}

/// The `help bench` topic: the matrix harness and the regression gate.
pub fn bench_help() -> &'static str {
    "The matrix benchmark harness
============================

`bench` runs a declarative matrix of workload x threads x params cells
with warmup + repeat sampling and writes one versioned np-bench/1 JSON
report. One schema for every benchmark artifact: the matrix harness
and `loadgen` both emit it, and the diff/trend tooling reads them all.

    numa-perf-tools bench [run] [--config FILE] [--threads N]
                          [--out FILE] [--md FILE] [--csv FILE] [--smoke]
    numa-perf-tools bench diff BASELINE [--current FILE] [--config FILE]
                          [--noise PCT] [--alpha P] [--md FILE]
    numa-perf-tools bench trend HISTORY.jsonl | --append HISTORY.jsonl
    numa-perf-tools bench speedup [REPORT.json] [--current FILE]

CONFIG (TOML subset):
    machine = \"two-socket\"        # dl580 | two-socket | ring | file.json
    warmup  = 1                   # unrecorded runs per cell
    repeats = 3                   # recorded samples per cell
    seed    = 1
    threads = [1, 2, 4]           # global thread axis

    [[cell]]
    workload = \"campaign\"         # campaign | memhist-ladder |
    size     = 48                 # phasen-scan | correlate-sweep |
    reps     = 6                  # analysis-sweep | loadgen |
                                  # sim-throughput | json-roundtrip |
                                  # serve-frame

    Any numeric key becomes a cell param; a per-cell `threads = [...]`
    overrides the global axis. A cell's id is workload/tN[/sSIZE], and
    a config whose cells share an id is rejected. Without --config, the
    built-in smoke matrix runs every driver at small sizes (the CI gate
    shape).

DETERMINISM CONTRACT:
    Everything except the wall-time samples is a pure function of
    (config, seed, machine): cell identity, result digests, audits and
    det_-prefixed metrics. --threads is outer parallelism across cells
    (cells merge in matrix order); it can change wall times, never the
    report structure. Worker threads inside a cell start behind a
    barrier so samples never fold spawn skew into the measured wall.

THE DIFF GATE (CI):
    Deterministic fields hard-fail on any change: a missing cell, a
    digest change, a failed audit, a drifted det_ metric. Wall time is
    judged statistically: a cell regresses only when its mean moved
    outside the noise band (--noise, percent) AND Welch's t-test calls
    the shift significant at --alpha. Single-sample baselines (one-shot
    loadgen artifacts) gate on the band alone. Regressions exit 2;
    improvements and new cells pass. Committed baselines live under
    baselines/ (see EXPERIMENTS.md for the recording procedure).

THE SPEEDUP GATE (multi-core CI):
    `bench speedup` compares every multi-threaded cell of one report to
    its own single-thread cell: measured speedup = mean(t1)/mean(tk).
    Cells that publish a modeled_speedup metric (campaign,
    analysis-sweep — the pooled simulator paths) are gated: measured
    must exceed 1.0x or the command exits 2. Self-contained within one
    run, so cross-host clock noise can neither fake nor mask a result;
    on hosts with < 2 hardware threads it prints SKIP and passes, which
    keeps the gate meaningful exactly where parallelism exists.

TREND:
    `bench trend --append HISTORY.jsonl` appends the current run as one
    compact JSON line and renders a per-cell mean-ms table across runs
    with an oldest->newest drift column — the nightly workflow keeps
    this file as its bench-history artifact.
"
}

/// The `help top` topic: the live telemetry view.
pub fn top_help() -> &'static str {
    "The live telemetry view
=======================

`top` is NUMAscope for the simulated machine: a producer thread runs
the selected workload in a loop under the capture observer of
`run --sample`, and the foreground redraws a plain ANSI frame (no TUI
dependency) with per-node event rates and the newest bin's phase.
Other simulations in the process never show up.

    numa-perf-tools top [--workload NAME] [--machine NAME]
                        [--ticks N] [--interval MS]

COLUMNS:
    series     node<N>.<event> — one row per NUMA node per event:
               local_dram, remote_dram, qpi, hitm, l3_miss, dtlb_miss,
               instructions, cycles, mem_stall, load, store, imc_read,
               imc_write (the capture's series without `rep<R>.`)
    rate/s     events per second: the growth of `total` since the
               previous frame, scaled by --interval
    total      the sum of the per-timeslice deltas since `top` started;
               the first slice of every run after the first counts 0
               (the counters restart and the delta clamps at zero)
    bins       bins held for the series (at most 512, then merged)

DETERMINISM:
    The series timestamps are simulated cycles, never wall clock —
    `top` itself sits in the audit's no-wall-clock scope; pacing comes
    from thread::sleep and the tick counter only. Frames update at
    every timeslice, so one run of the default workload (row-major at
    size 4096) outlasts the default 12 frames.

EXAMPLES:
    numa-perf-tools top
    numa-perf-tools top --workload column-major --ticks 30 --interval 250
"
}

/// The `help report` topic: captures and the HTML report.
pub fn report_help() -> &'static str {
    "Captures and the HTML report
============================

`run --sample` records a campaign as a *capture*: every per-node
hardware-event series, delta-encoded into ring-buffer bins with phase
attribution, timestamped in simulated cycles. The capture is
deterministic — the same plan produces a byte-identical JSON file at
ANY --threads, because each repetition samples into its own local
sampler and the results merge in repetition order.

    numa-perf-tools run --sample --workload sort --size 4096 \\
        --out CAPTURE.json [--timeline TIMELINE.json] [--save NAME]
    numa-perf-tools report --capture CAPTURE.json
    numa-perf-tools report --capture CAPTURE.json --html --out REPORT.html

CAPTURE (schema np-capture/1):
    series   rep<R>.node<N>.<event> — per-repetition, per-node series
             with per-bin count/sum/min/max and a phase index
    phases   the phase-name table the series index into
    --save   archives the capture in the --session directory next to
             the measurement run sets (`archives` lists both)

TIMELINE (schema np-timeline/1):
    --timeline on `run` writes the pool's worker-chunk profile: which
    worker ran which chunk, queue wait and duration. Wall-clock based,
    so it lives in a separate file and never contaminates the capture.

HTML REPORT (--html):
    a single self-contained file — inline CSS + SVG, no JavaScript, no
    external assets: phase-banded sparklines per series, a per-bin
    intensity heatmap, and (when --timeline is given) the worker gantt.
    Safe to park in a CI artifact store and open anywhere.
"
}

/// The `help patterns` topic: performance-pattern identification.
pub fn patterns_help() -> &'static str {
    "Performance-pattern identification
==================================

The paper's indicators say *what* the counters measured; `patterns`
says what the numbers *mean*. The np-patterns crate maps an indicator
vector to six named performance patterns through a declarative
signature table — each pattern is a conjunction of threshold rules over
derived per-mille metrics — and proves the mapping against the labeled
workload registry on every CI run.

    numa-perf-tools patterns --workload stream-bound --machine two-socket
    numa-perf-tools patterns --capture CAPTURE.json
    numa-perf-tools patterns --verify [--threads N] [--out PATTERNS.json]

PATTERNS (badge / name / canonical symptom):
    BW   bandwidth-bound   DRAM request rate at the machine's saturated
                           ceiling with deep memory stalls
    LAT  latency-bound     deep stalls at a *low* request rate —
                           dependent loads waiting out the latency
    SHR  false-sharing     HITM cache-to-cache transfers per retired
                           memory op (threads ping-ponging dirty lines)
    RMT  numa-imbalance    a high remote share of DRAM requests with
                           the traffic concentrated on one controller
    TLB  tlb-thrashing     dTLB misses per retired k-instruction beyond
                           what any sequential walk produces
    SKW  load-imbalance    per-node retired-instruction skew over the
                           active nodes

METRICS (integer per-mille, deterministic at any thread count):
    remote_ratio, dram_per_kcycle, mem_stall_frac, hitm_per_kop,
    dtlb_mpki, imc_skew (count-normalised concentration), work_skew.
    A metric whose denominator is absent is *unavailable*: its rules
    cannot fire and the evidence says why.

CONFIDENCE:
    the weakest rule's margin beyond (or short of) its threshold sets a
    base score; with `--workload`, the np-analysis static envelope of
    the pattern's primary event blends in as a prior — a verdict backed
    by a tight envelope outranks one the static pass can barely bound.
    Capture slices carry no program, so phase verdicts skip the prior.

MODES:
    --workload NAME    one registry run on --machine: full metric table,
                       all six verdicts with evidence, fired vs expected
    --capture FILE     per-phase attribution over an np-capture/1
                       timeline (from `run --sample`) — the same rules
                       applied to each phase slice; `report --html`
                       renders the verdicts as a chip band and `top`
                       shows live per-node badges on these thresholds
    --verify           the calibration proof: all 24 registry workloads
                       x {two-socket, ring} x {2, 4} threads on the
                       quiet simulator must recover their labels
                       *exactly* — a missed pattern and a spurious one
                       both exit 2. Runs as a tier-1 CI stage.

ARTIFACT (np-patterns/1, written to --out):
    cases[] with per-metric values, per-rule evidence, fired/expected/
    matched; phases[] in capture mode. Integers only, fixed ordering:
    byte-identical at any --threads for the same inputs.
"
}

#[cfg(test)]
mod tests {
    #[test]
    fn help_topics_cover_analysis() {
        assert!(super::usage().contains("help analyze"));
        assert!(super::usage().contains("help audit"));
        assert!(super::analyze_help().contains("DIFFERENTIAL PROOF"));
        for rule in [
            "lock-order",
            "condvar-discipline",
            "atomics-ordering",
            "hot-path-hygiene",
            "unsafe-safety",
            "no-panic-reachable",
            "bounded-reads",
            "guarded-telemetry",
            "no-wall-clock",
        ] {
            assert!(super::audit_help().contains(rule), "missing rule {rule}");
        }
    }

    #[test]
    fn help_topics_cover_resilience() {
        assert!(super::usage().contains("help resilience"));
        assert!(super::usage().contains("help telemetry"));
        assert!(super::resilience_help().contains("probe.accept"));
        assert!(super::resilience_help().contains("degraded"));
    }

    #[test]
    fn help_topics_cover_the_exchange() {
        assert!(super::usage().contains("help serve"));
        assert!(super::usage().contains("help loadgen"));
        for term in [
            "put",
            "query",
            "predict",
            "serve.accept",
            "serve.cache",
            "span.serve.parse",
            "span.serve.write",
            "serve.store.encodes",
            "narrow the query",
        ] {
            assert!(super::serve_help().contains(term), "missing term {term}");
        }
        for term in [
            "--smoke",
            "BENCH_serve.json",
            "audit",
            "cache speedup",
            "first predict reported as cached",
        ] {
            assert!(super::loadgen_help().contains(term), "missing term {term}");
        }
    }

    #[test]
    fn help_topics_cover_the_worker_pool() {
        assert!(super::usage().contains("help parallel"));
        for term in [
            "bit-identical",
            "submission order",
            "baselines/bench-parallel.toml",
            "par.steal",
            "no-wall-clock",
        ] {
            assert!(super::parallel_help().contains(term), "missing term {term}");
        }
        // The telemetry topic names the pool's metric family.
        assert!(super::telemetry_help().contains("par."));
    }

    #[test]
    fn help_topics_cover_the_bench_harness() {
        assert!(super::usage().contains("help bench"));
        assert!(super::usage().contains("BENCH_matrix.json"));
        assert!(super::usage().contains("--noise"));
        for term in [
            "np-bench/1",
            "[[cell]]",
            "Welch",
            "--alpha",
            "baselines/",
            "--append",
            "DETERMINISM CONTRACT",
        ] {
            assert!(super::bench_help().contains(term), "missing term {term}");
        }
        // The sibling topics point at the unified schema too.
        assert!(super::loadgen_help().contains("np-bench/1"));
        assert!(super::parallel_help().contains("np-bench/1"));
    }

    #[test]
    fn help_topics_cover_pattern_identification() {
        assert!(super::usage().contains("help patterns"));
        assert!(super::usage().contains("--verify"));
        for term in [
            "bandwidth-bound",
            "latency-bound",
            "false-sharing",
            "numa-imbalance",
            "tlb-thrashing",
            "load-imbalance",
            "np-patterns/1",
            "imc_skew",
            "exit 2",
        ] {
            assert!(super::patterns_help().contains(term), "missing term {term}");
        }
    }

    #[test]
    fn help_topics_cover_the_timeseries_layer() {
        assert!(super::usage().contains("help top"));
        assert!(super::usage().contains("help report"));
        for term in ["rate/s", "no-wall-clock", "node<N>.<event>"] {
            assert!(super::top_help().contains(term), "missing term {term}");
        }
        for term in [
            "np-capture/1",
            "np-timeline/1",
            "byte-identical",
            "--html",
            "no JavaScript",
        ] {
            assert!(super::report_help().contains(term), "missing term {term}");
        }
    }
}

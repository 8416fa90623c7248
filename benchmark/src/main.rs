//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, never overlapped with another. An
//! untraced run (`--trace 0`) measures the end-to-end metrics; a traced
//! run (`--trace 1`) measures the per-layer metrics of every layer, each
//! on the workload that exercises it, and the tracing overhead of the
//! named workload. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod evsel;
mod exchange;
mod layers;
mod measure;
mod memhist;
mod sweep;

use layers::Layers;
use measure::{median, peak_rss_mb, percentile, tail_pct, Log};
use std::fmt::Write as _;
use std::time::Instant;

/// Pool workers, client sessions and server workers: at most `nproc` on
/// the two-core reference host, and the simulated thread count of the
/// parallel kernels.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Fewest timed passes per run.
const MIN_PASSES: usize = 2;

/// Untimed passes before the timed ones: the first pooled pass allocates
/// each worker's simulator state and the server's connection buffers.
const WARMUP_PASSES: usize = 1;

/// The workloads, in the order a traced run visits them.
const WORKLOADS: [&str; 4] = [
    "evsel-campaign",
    "memhist-profile",
    "pattern-sweep",
    "exchange",
];

/// The default workload seed; seed 7 is held out for confirming claims.
const DEFAULT_SEED: u64 = 1;

/// One workload's fixture, after set-up.
pub trait Bench {
    /// Planning figure: roughly the host seconds one pass takes on the
    /// two-core reference host under load. A run makes `--seconds`
    /// divided by it passes, so it measures the same work on any commit.
    fn nominal_pass_s(&self) -> f64;

    /// Host ns set-up spent in `Workload::build`.
    fn build_ns(&self) -> u64 {
        0
    }

    /// Computes, untimed, what every pass must reproduce: the outputs of
    /// the sequential reference paths. A traced run also times layers here.
    fn prepare(&mut self, trace: Option<&mut Layers>) -> Result<(), String>;

    /// One pass of the workload's fixed work: every frame timed and its
    /// output checked. With `trace`, each layer call is also timed from
    /// outside and program-emitted telemetry is read.
    fn pass(&mut self, log: &mut Log, trace: Option<&mut Layers>);

    /// Untimed layer probes after a traced pass.
    fn probe(&mut self, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "evsel-campaign" => Box::new(evsel::EvselCampaign::setup(seed)?),
        "memhist-profile" => Box::new(memhist::MemhistProfile::setup(seed)?),
        "pattern-sweep" => Box::new(sweep::PatternSweep::setup(seed)?),
        "exchange" => Box::new(exchange::Exchange::setup(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: np-benchmark --workload <evsel-campaign|memhist-profile|pattern-sweep|exchange> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]\n  default seed 1, held-out seed 7";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// A run's result: correctness tally plus `(name, unit, value)` metrics.
struct Outcome {
    log: Log,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// An untraced run: repeated set-up, the untimed reference, then a fixed
/// number of timed passes.
fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let fixture = setup(&args.workload, args.seed)?;
        setups.push(started.elapsed().as_secs_f64());
        bench = Some(fixture);
    }
    let mut bench = bench.ok_or("no set-up ran")?;
    bench.prepare(None)?;
    let mut log = Log::default();
    for _ in 0..WARMUP_PASSES {
        bench.pass(&mut log, None);
    }
    let warmup_frames = log.frame_us.len();

    let passes = ((args.seconds / bench.nominal_pass_s()).round() as usize).max(MIN_PASSES);
    let mut walls = Vec::with_capacity(passes);
    let run_started = Instant::now();
    for _ in 0..passes {
        // A host far slower than the reference host stops early rather
        // than overrun the run's time budget.
        if walls.len() >= MIN_PASSES && run_started.elapsed().as_secs_f64() > 2.0 * args.seconds {
            break;
        }
        let started = Instant::now();
        bench.pass(&mut log, None);
        walls.push(started.elapsed().as_secs_f64());
    }
    let rss = peak_rss_mb()?;
    drop(bench);
    // Warm-up frames count toward correctness, not toward timing.
    log.frame_us.drain(..warmup_frames);

    // The tail percentile follows from the planned frame count, so a run
    // cut short still reports the same percentile.
    let pct = tail_pct(warmup_frames / WARMUP_PASSES * passes);
    println!(
        "# {} set-ups, {} of {passes} passes, {} frames; frame_p99_us is p{pct}",
        setups.len(),
        walls.len(),
        log.frame_us.len(),
    );
    let walls_text: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("# pass walls (s): {}", walls_text.join(" "));
    // Printed, not a result metric: on the two-speed reference host the
    // median frame jumps between the speeds' levels from run to run (see
    // README.md), further than a regression bound can allow.
    println!("{:<34} {:>16.6} us", "frame_p50_us", median(&log.frame_us));
    let metrics = vec![
        ("setup_s", "s", median(&setups)),
        ("wall_s", "s", median(&walls)),
        ("peak_rss_mb", "MB", rss),
        (
            "frames_per_s",
            "1/s",
            log.frame_us.len() as f64 / walls.iter().sum::<f64>(),
        ),
        ("frame_p99_us", "us", percentile(&log.frame_us, pct)),
    ];
    Ok(Outcome { log, metrics })
}

/// A traced run: every workload's traced pass, each layer timed on the
/// workload that exercises it; the named workload also runs an untraced
/// pass for the overhead ratio.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut log = Log::default();
    for name in WORKLOADS {
        let mut bench = setup(name, args.seed)?;
        layers.build_ns += bench.build_ns();
        np_telemetry::set_enabled(true);
        bench.prepare(Some(&mut layers))?;
        np_telemetry::set_enabled(false);
        let untraced = if name == args.workload {
            let started = Instant::now();
            bench.pass(&mut log, None);
            Some(started.elapsed().as_secs_f64())
        } else {
            None
        };
        np_telemetry::set_enabled(true);
        let started = Instant::now();
        bench.pass(&mut log, Some(&mut layers));
        let traced = started.elapsed().as_secs_f64();
        bench.probe(&mut layers)?;
        np_telemetry::set_enabled(false);
        if let Some(untraced) = untraced {
            layers.trace_overhead = traced / untraced;
        }
        println!("# traced {name}: pass {traced:.3} s");
    }
    Ok(Outcome {
        metrics: layers.metrics(),
        log,
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(outcome: &Outcome) -> String {
    let finite = outcome.metrics.iter().all(|(_, _, v)| v.is_finite());
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.log.failed == 0 && outcome.log.attempted > 0 && finite,
        outcome.log.attempted,
        outcome.log.failed,
    );
    for (i, (name, unit, value)) in outcome.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    json
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("np-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let meta = np_serve::BenchMeta::collect("np-benchmark", THREADS, args.seed);
    println!(
        "# workload={} seed={} seconds={} trace={} host={} nproc={} commit={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        meta.host,
        meta.host_threads,
        meta.commit,
        THREADS
    );
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("np-benchmark: {e}");
            std::process::exit(1);
        }
    };
    for (name, unit, value) in &outcome.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "{:<34} {:>16.6} ({} of {} operations failed)",
        "error_rate",
        outcome.log.error_rate(),
        outcome.log.failed,
        outcome.log.attempted
    );
    println!(
        "verdict: {}",
        if outcome.log.failed == 0 {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    println!("{}", result_json(&outcome));
}

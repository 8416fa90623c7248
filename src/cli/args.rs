//! Argument parsing for the CLI.

use np_simulator::MachineConfig;

/// The subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Print Table I.
    Table1,
    /// Print the event catalog.
    Catalog,
    /// Measure one workload, print all counters.
    Stat,
    /// Compare two workloads.
    Compare,
    /// Thread-count sweep with regressions.
    Sweep,
    /// Latency histogram.
    Memhist,
    /// Phase detection.
    Phasen,
    /// Per-region attribution.
    Annotate,
    /// Object-relative profile.
    Objprof,
    /// NUMA balance.
    Balance,
    /// Latency matrix.
    Mlc,
    /// Compare two recorded measurement archives.
    Diff,
    /// List recorded measurement archives.
    Archives,
    /// Cacheline contention analysis (perf c2c analogue).
    C2c,
    /// Static code-to-indicator analysis (bounds, barriers, races).
    Analyze,
    /// Workspace concurrency & determinism audit.
    Audit,
    /// Run the indicator-exchange server.
    Serve,
    /// Benchmark a running (or in-process) exchange.
    Loadgen,
    /// Matrix benchmark harness: run / diff / trend / speedup.
    Bench,
    /// Sampled measurement campaign: deterministic time-series capture.
    Run,
    /// Live per-node telemetry view (ANSI redraw loop).
    Top,
    /// Render a capture as a text summary or self-contained HTML report.
    Report,
    /// Performance-pattern identification: classify a run, a capture's
    /// phases, or verify the whole labeled registry.
    Patterns,
}

impl Command {
    fn parse(s: &str) -> Option<Command> {
        Some(match s {
            "table1" => Command::Table1,
            "catalog" => Command::Catalog,
            "stat" => Command::Stat,
            "compare" => Command::Compare,
            "sweep" => Command::Sweep,
            "memhist" => Command::Memhist,
            "phasen" => Command::Phasen,
            "annotate" => Command::Annotate,
            "objprof" => Command::Objprof,
            "balance" => Command::Balance,
            "mlc" => Command::Mlc,
            "diff" => Command::Diff,
            "archives" => Command::Archives,
            "c2c" => Command::C2c,
            "analyze" => Command::Analyze,
            "audit" => Command::Audit,
            "serve" => Command::Serve,
            "loadgen" => Command::Loadgen,
            "bench" => Command::Bench,
            "run" => Command::Run,
            "top" => Command::Top,
            "report" => Command::Report,
            "patterns" => Command::Patterns,
            _ => return None,
        })
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Machine preset name.
    pub machine: String,
    /// Workload name (`--workload`).
    pub workload: Option<String>,
    /// `compare`'s first workload.
    pub workload_a: Option<String>,
    /// `compare`'s second workload.
    pub workload_b: Option<String>,
    /// Size parameter.
    pub size: Option<usize>,
    /// Thread count.
    pub threads: usize,
    /// Repetitions.
    pub reps: usize,
    /// Base seed.
    pub seed: u64,
    /// Memhist cost mode.
    pub costs: bool,
    /// Multiplexed acquisition.
    pub multiplexed: bool,
    /// JSON output where supported.
    pub json: bool,
    /// Session directory for measurement archives.
    pub session: String,
    /// Save the measurement under this archive name (`stat`).
    pub save: Option<String>,
    /// Write the tool suite's own metrics snapshot to this JSON file.
    pub telemetry: Option<String>,
    /// Write a Chrome-trace file of internal spans to this path.
    pub trace: Option<String>,
    /// Workspace root for `audit` (`--path`).
    pub path: String,
    /// Exchange address: bind address for `serve`, target for `loadgen`
    /// (`loadgen` boots an in-process server when absent).
    pub addr: Option<String>,
    /// `serve`: connections to serve before exiting (0 = forever).
    pub conns: usize,
    /// `loadgen`: concurrent client sessions.
    pub clients: usize,
    /// `loadgen`: frames each session sends.
    pub frames: usize,
    /// `loadgen`/`bench`: fail unless the run passes its smoke
    /// invariants.
    pub smoke: bool,
    /// `loadgen`/`bench`/`run`/`report`/`patterns`: output path.
    pub out: String,
    /// `serve`/`loadgen`: store shard count.
    pub shards: usize,
    /// `serve`/`loadgen`: prediction-cache capacity.
    pub cache_cap: usize,
    /// `serve`/`loadgen`: worker-thread pool size.
    pub workers: usize,
    /// `run`: record the per-node time-series capture (`--sample`).
    pub sample: bool,
    /// `report`: emit the self-contained HTML report instead of text.
    pub html: bool,
    /// `report`: capture file to render (`--capture FILE`).
    pub capture: Option<String>,
    /// `run`: write the pool worker timeline here; `report`: read it.
    pub timeline: Option<String>,
    /// `top`: redraw frames before exiting (bounded; never forever).
    pub ticks: usize,
    /// `top`: milliseconds between redraws.
    pub interval_ms: u64,
    /// `run`: sampler ring capacity, bins per series.
    pub capacity: usize,
    /// `bench`: positional words after the command (`diff <baseline>`,
    /// `trend <history>`, ...). Only `bench` accepts positionals.
    pub positional: Vec<String>,
    /// `bench`: matrix config file (TOML subset).
    pub config: Option<String>,
    /// `bench diff`: baseline report (also the first positional).
    pub baseline: Option<String>,
    /// `bench diff`: pre-recorded current report (else run `--config`).
    pub current: Option<String>,
    /// `bench diff`: noise band, percent.
    pub noise_pct: f64,
    /// `bench diff`: Welch significance level.
    pub alpha: f64,
    /// `bench`: also write the markdown rendering here.
    pub md: Option<String>,
    /// `bench`: also write the CSV rendering here.
    pub csv: Option<String>,
    /// `bench trend`: append the run at `--current` to this history.
    pub append: Option<String>,
    /// `audit`: also write a SARIF 2.1.0 report here.
    pub sarif: Option<String>,
    /// `audit`: also write the unsafe-inventory markdown here.
    pub inventory: Option<String>,
    /// `patterns`: run the full registry verification sweep.
    pub verify: bool,
}

/// The output-file flags, each with the commands that write its file.
/// `bench` is named with its mode (`bench run` is also `bench` with no
/// positional) and `report` writes a file only with `--html`. Any other
/// command or mode rejects the flag instead of ignoring it, so a
/// mistyped invocation cannot pass while writing nothing.
const OUTPUT_FLAGS: &[(&str, &[&str])] = &[
    (
        "--out",
        &["bench run", "report --html", "run", "patterns", "loadgen"],
    ),
    ("--save", &["stat", "run"]),
    ("--sarif", &["audit"]),
    ("--inventory", &["audit"]),
    ("--md", &["bench run", "bench diff", "bench trend"]),
    ("--csv", &["bench run"]),
    ("--append", &["bench trend"]),
];

impl Cli {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        let mut it = argv.iter();
        // The observability flags are global: accept them before the
        // subcommand (`--telemetry t.json stat ...`) as well as after.
        let mut pre_telemetry = None;
        let mut pre_trace = None;
        let cmd = loop {
            match it.next() {
                None => return Err("missing command".to_string()),
                Some(a) if a == "--telemetry" => {
                    pre_telemetry = Some(it.next().cloned().ok_or("--telemetry needs a value")?)
                }
                Some(a) if a == "--trace" => {
                    pre_trace = Some(it.next().cloned().ok_or("--trace needs a value")?)
                }
                Some(a) => break a,
            }
        };
        let command = Command::parse(cmd).ok_or_else(|| format!("unknown command '{cmd}'"))?;

        let mut cli = Cli {
            command,
            machine: "dl580".into(),
            workload: None,
            workload_a: None,
            workload_b: None,
            size: None,
            threads: 4,
            reps: 3,
            seed: 1,
            costs: false,
            multiplexed: false,
            json: false,
            session: ".np-session".into(),
            save: None,
            telemetry: pre_telemetry,
            trace: pre_trace,
            path: ".".into(),
            addr: None,
            conns: 0,
            clients: 8,
            frames: 40,
            smoke: false,
            // `--out` default tracks the command's artifact.
            out: match command {
                Command::Bench => "BENCH_matrix.json",
                Command::Run => "CAPTURE.json",
                Command::Report => "REPORT.html",
                Command::Patterns => "PATTERNS.json",
                _ => "BENCH_serve.json",
            }
            .into(),
            shards: 8,
            cache_cap: 128,
            workers: 4,
            sample: false,
            html: false,
            capture: None,
            timeline: None,
            ticks: 12,
            interval_ms: 100,
            capacity: 256,
            positional: Vec::new(),
            config: None,
            baseline: None,
            current: None,
            noise_pct: 15.0,
            alpha: 0.01,
            md: None,
            csv: None,
            append: None,
            sarif: None,
            inventory: None,
            verify: false,
        };

        let take_value =
            |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };

        let mut outputs = Vec::new();
        while let Some(arg) = it.next() {
            outputs.extend(OUTPUT_FLAGS.iter().find(|(flag, _)| flag == arg));
            match arg.as_str() {
                "--machine" => cli.machine = take_value("--machine", &mut it)?,
                "--workload" | "-w" => cli.workload = Some(take_value("--workload", &mut it)?),
                "-a" => cli.workload_a = Some(take_value("-a", &mut it)?),
                "-b" => cli.workload_b = Some(take_value("-b", &mut it)?),
                "--size" => {
                    cli.size = Some(
                        take_value("--size", &mut it)?
                            .parse()
                            .map_err(|_| "--size must be an integer".to_string())?,
                    )
                }
                "--threads" => {
                    cli.threads = take_value("--threads", &mut it)?
                        .parse()
                        .map_err(|_| "--threads must be an integer".to_string())?
                }
                "--reps" => {
                    cli.reps = take_value("--reps", &mut it)?
                        .parse()
                        .map_err(|_| "--reps must be an integer".to_string())?
                }
                "--seed" => {
                    cli.seed = take_value("--seed", &mut it)?
                        .parse()
                        .map_err(|_| "--seed must be an integer".to_string())?
                }
                "--costs" => cli.costs = true,
                "--multiplexed" => cli.multiplexed = true,
                "--json" => cli.json = true,
                "--session" => cli.session = take_value("--session", &mut it)?,
                "--save" => cli.save = Some(take_value("--save", &mut it)?),
                "--telemetry" => cli.telemetry = Some(take_value("--telemetry", &mut it)?),
                "--trace" => cli.trace = Some(take_value("--trace", &mut it)?),
                "--path" => cli.path = take_value("--path", &mut it)?,
                "--addr" => cli.addr = Some(take_value("--addr", &mut it)?),
                "--conns" => {
                    cli.conns = take_value("--conns", &mut it)?
                        .parse()
                        .map_err(|_| "--conns must be an integer".to_string())?
                }
                "--clients" => {
                    cli.clients = take_value("--clients", &mut it)?
                        .parse()
                        .map_err(|_| "--clients must be an integer".to_string())?
                }
                "--frames" => {
                    cli.frames = take_value("--frames", &mut it)?
                        .parse()
                        .map_err(|_| "--frames must be an integer".to_string())?
                }
                "--smoke" => cli.smoke = true,
                "--out" => cli.out = take_value("--out", &mut it)?,
                "--shards" => {
                    cli.shards = take_value("--shards", &mut it)?
                        .parse()
                        .map_err(|_| "--shards must be an integer".to_string())?
                }
                "--cache-cap" => {
                    cli.cache_cap = take_value("--cache-cap", &mut it)?
                        .parse()
                        .map_err(|_| "--cache-cap must be an integer".to_string())?
                }
                "--workers" => {
                    cli.workers = take_value("--workers", &mut it)?
                        .parse()
                        .map_err(|_| "--workers must be an integer".to_string())?
                }
                "--sample" => cli.sample = true,
                "--html" => cli.html = true,
                "--capture" => cli.capture = Some(take_value("--capture", &mut it)?),
                "--timeline" => cli.timeline = Some(take_value("--timeline", &mut it)?),
                "--ticks" => {
                    cli.ticks = take_value("--ticks", &mut it)?
                        .parse()
                        .map_err(|_| "--ticks must be an integer".to_string())?
                }
                "--interval" => {
                    cli.interval_ms = take_value("--interval", &mut it)?
                        .parse()
                        .map_err(|_| "--interval must be milliseconds".to_string())?
                }
                "--capacity" => {
                    cli.capacity = take_value("--capacity", &mut it)?
                        .parse()
                        .map_err(|_| "--capacity must be an integer".to_string())?
                }
                "--config" => cli.config = Some(take_value("--config", &mut it)?),
                "--baseline" => cli.baseline = Some(take_value("--baseline", &mut it)?),
                "--current" => cli.current = Some(take_value("--current", &mut it)?),
                "--noise" => {
                    cli.noise_pct = take_value("--noise", &mut it)?
                        .parse()
                        .map_err(|_| "--noise must be a percentage".to_string())?
                }
                "--alpha" => {
                    cli.alpha = take_value("--alpha", &mut it)?
                        .parse()
                        .map_err(|_| "--alpha must be a probability".to_string())?
                }
                "--md" => cli.md = Some(take_value("--md", &mut it)?),
                "--csv" => cli.csv = Some(take_value("--csv", &mut it)?),
                "--append" => cli.append = Some(take_value("--append", &mut it)?),
                "--sarif" => cli.sarif = Some(take_value("--sarif", &mut it)?),
                "--inventory" => cli.inventory = Some(take_value("--inventory", &mut it)?),
                "--verify" => cli.verify = true,
                // `bench` takes positional words (`diff <baseline>`,
                // `trend <history>`); every other command rejects them.
                other if command == Command::Bench && !other.starts_with('-') => {
                    cli.positional.push(other.to_string())
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        // Checked after the loop: the `bench` mode or `--html` may follow
        // the flag.
        let mode = match (command, cli.positional.first()) {
            (Command::Bench, mode) => format!("bench {}", mode.map_or("run", String::as_str)),
            (Command::Report, _) if cli.html => "report --html".to_string(),
            _ => cmd.clone(),
        };
        if let Some((flag, _)) = outputs
            .into_iter()
            .find(|(_, w)| !w.contains(&mode.as_str()))
        {
            return Err(format!("`{mode}` writes no {flag} file; drop {flag}"));
        }
        Ok(cli)
    }

    /// Resolves the machine preset, or loads a config from a `.json` file
    /// (the §VI outlook: "simulating and incorporating different
    /// topologies should be investigated further").
    pub fn machine_config(&self) -> Result<MachineConfig, String> {
        // One resolver for the CLI and the bench harness, so presets
        // and machine-file validation can't drift apart.
        np_bench::harness::runner::resolve_machine(&self.machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Cli::parse(&v)
    }

    #[test]
    fn parses_a_full_command_line() {
        let cli = parse(&[
            "compare",
            "-a",
            "row-major",
            "-b",
            "column-major",
            "--size",
            "1024",
            "--reps",
            "5",
            "--machine",
            "ring",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Compare);
        assert_eq!(cli.workload_a.as_deref(), Some("row-major"));
        assert_eq!(cli.workload_b.as_deref(), Some("column-major"));
        assert_eq!(cli.size, Some(1024));
        assert_eq!(cli.reps, 5);
        assert_eq!(cli.seed, 9);
        assert_eq!(cli.machine, "ring");
        assert!(cli.machine_config().is_ok());
    }

    #[test]
    fn defaults_applied() {
        let cli = parse(&["stat", "--workload", "sift"]).unwrap();
        assert_eq!(cli.machine, "dl580");
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.reps, 3);
        assert!(!cli.costs && !cli.multiplexed && !cli.json);
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["lint"]).is_err(), "lint's rules live in `audit`");
        assert!(
            parse(&["bench-parallel"]).is_err(),
            "the pool matrix is a `bench --config` file"
        );
        assert!(parse(&["stat", "--bogus"]).is_err());
        assert!(parse(&["stat", "--size"]).is_err());
        assert!(parse(&["stat", "--size", "abc"]).is_err());
    }

    #[test]
    fn flags_toggle() {
        let cli = parse(&["memhist", "-w", "mlc-remote", "--costs", "--multiplexed"]).unwrap();
        assert!(cli.costs && cli.multiplexed);
    }

    #[test]
    fn telemetry_flags_parse() {
        let cli = parse(&[
            "stat",
            "-w",
            "sift",
            "--telemetry",
            "m.json",
            "--trace",
            "t.trace.json",
        ])
        .unwrap();
        assert_eq!(cli.telemetry.as_deref(), Some("m.json"));
        assert_eq!(cli.trace.as_deref(), Some("t.trace.json"));
        // Global flags also parse before the subcommand.
        let pre = parse(&[
            "--telemetry",
            "m.json",
            "--trace",
            "t.trace.json",
            "stat",
            "-w",
            "sift",
        ])
        .unwrap();
        assert_eq!(pre.command, Command::Stat);
        assert_eq!(pre.telemetry.as_deref(), Some("m.json"));
        assert_eq!(pre.trace.as_deref(), Some("t.trace.json"));
        // Off by default: parsing must not enable the global registry.
        let plain = parse(&["stat", "-w", "sift"]).unwrap();
        assert!(plain.telemetry.is_none() && plain.trace.is_none());
    }

    #[test]
    fn analyze_parses() {
        let cli = parse(&["analyze", "-w", "sort", "--machine", "two-socket"]).unwrap();
        assert_eq!(cli.command, Command::Analyze);
        assert_eq!(cli.workload.as_deref(), Some("sort"));
    }

    #[test]
    fn audit_parses() {
        let cli = parse(&[
            "audit",
            "--path",
            "/tmp/ws",
            "--sarif",
            "audit.sarif",
            "--inventory",
            "UNSAFE_INVENTORY.md",
            "--json",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Audit);
        assert_eq!(cli.path, "/tmp/ws");
        assert_eq!(cli.sarif.as_deref(), Some("audit.sarif"));
        assert_eq!(cli.inventory.as_deref(), Some("UNSAFE_INVENTORY.md"));
        assert!(cli.json);
        // Defaults: audit the current tree, no side outputs.
        let cli = parse(&["audit"]).unwrap();
        assert_eq!(cli.path, ".");
        assert!(cli.sarif.is_none() && cli.inventory.is_none());
    }

    #[test]
    fn serve_and_loadgen_parse() {
        let cli = parse(&[
            "serve",
            "--addr",
            "127.0.0.1:7070",
            "--conns",
            "5",
            "--shards",
            "16",
            "--cache-cap",
            "64",
            "--workers",
            "2",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.addr.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(cli.conns, 5);
        assert_eq!(cli.shards, 16);
        assert_eq!(cli.cache_cap, 64);
        assert_eq!(cli.workers, 2);

        let cli = parse(&[
            "loadgen",
            "--clients",
            "12",
            "--frames",
            "20",
            "--smoke",
            "--out",
            "b.json",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Loadgen);
        assert_eq!(cli.clients, 12);
        assert_eq!(cli.frames, 20);
        assert!(cli.smoke);
        assert_eq!(cli.out, "b.json");
        assert!(cli.addr.is_none(), "no --addr means in-process server");

        // Defaults: a forever server, an 8-way loadgen, tracked baseline.
        let cli = parse(&["serve"]).unwrap();
        assert_eq!(cli.conns, 0);
        let cli = parse(&["loadgen"]).unwrap();
        assert_eq!(cli.clients, 8);
        assert_eq!(cli.frames, 40);
        assert_eq!(cli.out, "BENCH_serve.json");
        assert!(!cli.smoke);
    }

    #[test]
    fn run_top_report_parse() {
        let cli = parse(&[
            "run",
            "-w",
            "row-major",
            "--sample",
            "--capacity",
            "64",
            "--timeline",
            "tl.json",
            "--save",
            "trace1",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Run);
        assert!(cli.sample);
        assert_eq!(cli.capacity, 64);
        assert_eq!(cli.timeline.as_deref(), Some("tl.json"));
        assert_eq!(cli.save.as_deref(), Some("trace1"));
        assert_eq!(cli.out, "CAPTURE.json");

        let cli = parse(&["top", "--ticks", "3", "--interval", "10"]).unwrap();
        assert_eq!(cli.command, Command::Top);
        assert_eq!(cli.ticks, 3);
        assert_eq!(cli.interval_ms, 10);
        // Bounded by default: a forgotten --ticks still terminates.
        assert_eq!(parse(&["top"]).unwrap().ticks, 12);

        let cli = parse(&["report", "--capture", "c.json", "--html"]).unwrap();
        assert_eq!(cli.command, Command::Report);
        assert_eq!(cli.capture.as_deref(), Some("c.json"));
        assert!(cli.html);
        assert_eq!(cli.out, "REPORT.html");
    }

    #[test]
    fn bench_parses_modes_and_gate_flags() {
        let cli = parse(&[
            "bench",
            "--config",
            "matrix.toml",
            "--md",
            "b.md",
            "--csv",
            "b.csv",
        ])
        .unwrap();
        assert_eq!(cli.command, Command::Bench);
        assert_eq!(cli.config.as_deref(), Some("matrix.toml"));
        assert_eq!(cli.md.as_deref(), Some("b.md"));
        assert_eq!(cli.csv.as_deref(), Some("b.csv"));
        assert!(cli.positional.is_empty());
        assert_eq!(cli.out, "BENCH_matrix.json");
        assert_eq!(cli.noise_pct, 15.0);
        assert_eq!(cli.alpha, 0.01);
        assert!(cli.baseline.is_none());

        let cli = parse(&[
            "bench",
            "diff",
            "baselines/ci.json",
            "--current",
            "cur.json",
            "--noise",
            "50",
            "--alpha",
            "0.05",
        ])
        .unwrap();
        assert_eq!(cli.positional, vec!["diff", "baselines/ci.json"]);
        assert_eq!(cli.current.as_deref(), Some("cur.json"));
        assert_eq!(cli.noise_pct, 50.0);
        assert_eq!(cli.alpha, 0.05);

        // The flag form of the same baseline.
        let cli = parse(&["bench", "diff", "--baseline", "baselines/ci.json"]).unwrap();
        assert_eq!(cli.positional, vec!["diff"]);
        assert_eq!(cli.baseline.as_deref(), Some("baselines/ci.json"));

        let cli = parse(&["bench", "trend", "--append", "history.jsonl"]).unwrap();
        assert_eq!(cli.positional, vec!["trend"]);
        assert_eq!(cli.append.as_deref(), Some("history.jsonl"));

        // Positionals stay a bench-only affordance.
        assert!(parse(&["stat", "positional"]).is_err());
        assert!(parse(&["bench", "--noise", "abc"]).is_err());
    }

    #[test]
    fn patterns_parses() {
        let cli = parse(&["patterns", "--verify", "--json", "--out", "p.json"]).unwrap();
        assert_eq!(cli.command, Command::Patterns);
        assert!(cli.verify && cli.json);
        assert_eq!(cli.out, "p.json");

        let cli = parse(&["patterns", "-w", "stream-bound", "--threads", "2"]).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("stream-bound"));
        assert_eq!(cli.threads, 2);
        assert!(!cli.verify);
        assert_eq!(cli.out, "PATTERNS.json");

        let cli = parse(&["patterns", "--capture", "c.json"]).unwrap();
        assert_eq!(cli.capture.as_deref(), Some("c.json"));
    }

    #[test]
    fn output_flags_are_rejected_where_no_file_is_written() {
        // One accepted use per flag and writing mode.
        let accepted: &[&[&str]] = &[
            &["loadgen", "--out", "b.json"],
            &["stat", "-w", "sift", "--save", "before"],
            &["audit", "--sarif", "a.sarif"],
            &["audit", "--inventory", "inv.md"],
            &["bench", "--md", "b.md"],
            &["bench", "--csv", "b.csv"],
            &["bench", "--out", "b.json", "run"],
            &["bench", "diff", "base.json", "--md", "d.md"],
            &["bench", "trend", "h.jsonl", "--md", "t.md"],
            &["bench", "trend", "--append", "h.jsonl"],
            &["report", "--capture", "c.json", "--out", "r.html", "--html"],
        ];
        for argv in accepted {
            assert!(parse(argv).is_ok(), "{argv:?} must parse");
        }
        // (command line, the command or mode the error names, the flag)
        let rejected = [
            ("stat -w row-major --sarif x.sarif", "stat", "--sarif"),
            ("stat --out s.json", "stat", "--out"),
            ("audit --save name", "audit", "--save"),
            ("stat --inventory inv.md", "stat", "--inventory"),
            ("loadgen --md l.md", "loadgen", "--md"),
            ("patterns --csv p.csv", "patterns", "--csv"),
            ("compare --append h.jsonl", "compare", "--append"),
            (
                "bench diff b.json --current c.json --csv d.csv",
                "bench diff",
                "--csv",
            ),
            (
                "bench diff b.json --current c.json --out x.json",
                "bench diff",
                "--out",
            ),
            (
                "bench speedup --current c.json --md s.md",
                "bench speedup",
                "--md",
            ),
            ("bench trend h.jsonl --csv t.csv", "bench trend", "--csv"),
            ("bench --append h.jsonl", "bench run", "--append"),
            ("bench --csv d.csv diff b.json", "bench diff", "--csv"),
            ("report --capture c.json --out r.html", "report", "--out"),
        ];
        for (line, mode, flag) in rejected {
            let argv: Vec<&str> = line.split(' ').collect();
            let err = parse(&argv).expect_err(&format!("`{line}` writes nothing"));
            assert!(
                err.contains(&format!("`{mode}`")) && err.contains(flag),
                "`{line}`: '{err}' must name `{mode}` and {flag}"
            );
        }
    }

    #[test]
    fn unknown_machine_rejected_at_resolution() {
        let cli = parse(&["table1", "--machine", "cray"]).unwrap();
        assert!(cli.machine_config().is_err());
    }
}

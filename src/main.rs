//! The `numa-perf-tools` binary: a perf-style CLI over the tool suite.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help" {
        match args.get(1).map(String::as_str) {
            Some("telemetry") => print!("{}", numa_perf_tools::cli::telemetry_help()),
            Some("resilience") => print!("{}", numa_perf_tools::cli::resilience_help()),
            Some("analyze") => print!("{}", numa_perf_tools::cli::analyze_help()),
            Some("audit") => print!("{}", numa_perf_tools::cli::audit_help()),
            Some("serve") => print!("{}", numa_perf_tools::cli::serve_help()),
            Some("loadgen") => print!("{}", numa_perf_tools::cli::loadgen_help()),
            Some("parallel") => print!("{}", numa_perf_tools::cli::parallel_help()),
            Some("bench") => print!("{}", numa_perf_tools::cli::bench_help()),
            Some("top") => print!("{}", numa_perf_tools::cli::top_help()),
            Some("report") => print!("{}", numa_perf_tools::cli::report_help()),
            Some("patterns") => print!("{}", numa_perf_tools::cli::patterns_help()),
            _ => print!("{}", numa_perf_tools::cli::usage()),
        }
        return;
    }
    match numa_perf_tools::cli::run(&args) {
        Ok(output) => print!("{output}"),
        Err(err) => {
            eprintln!("error: {err}");
            // Only a command line we failed to parse earns the usage dump;
            // a parseable command that failed (audit findings, an envelope
            // violation) already printed its own diagnosis.
            if numa_perf_tools::cli::Cli::parse(&args).is_err() {
                eprintln!();
                eprint!("{}", numa_perf_tools::cli::usage());
            }
            std::process::exit(2);
        }
    }
}

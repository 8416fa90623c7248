//! Measurement helpers shared by every workload: the frame log and its
//! correctness tally, the percentile rule, content digests, the
//! program-emitted telemetry a traced run reads, and peak memory.

use np_simulator::{HwEvent, RunResult};
use std::fmt::Debug;
use std::time::Instant;

/// Per-frame latencies and the correctness tally of one run.
///
/// A *frame* is the unit a workload's user waits for: one request/response
/// round trip on the exchange, one tool call on one program on the tool
/// workloads.
#[derive(Debug, Default)]
pub struct Log {
    /// Latency of every timed frame, microseconds.
    pub frame_us: Vec<f64>,
    /// Operations attempted: every frame plus every end-of-pass check.
    pub attempted: u64,
    /// Attempted operations whose output was wrong or that failed.
    pub failed: u64,
}

impl Log {
    /// Records one frame that started at `started` and whose output was
    /// (`ok`) or was not correct.
    pub fn frame(&mut self, started: Instant, ok: bool) {
        self.record(started.elapsed().as_secs_f64() * 1e6, ok);
    }

    /// Records one frame timed elsewhere (on a pool worker).
    pub fn record(&mut self, us: f64, ok: bool) {
        self.frame_us.push(us);
        self.check(ok);
    }

    /// Counts a check that is not a frame, such as the store size after a
    /// pass.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed operations divided by attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Content digest of any output: FNV-1a over its `Debug` rendering, which
/// covers every field and every bit of every float.
pub fn digest(value: &impl Debug) -> u64 {
    np_serve::proto::fnv1a64(format!("{value:?}").as_bytes())
}

/// Simulated loads and stores of one run.
pub fn accesses(run: &RunResult) -> u64 {
    run.total(HwEvent::LoadRetired) + run.total(HwEvent::StoreRetired)
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of the `pct`-th percentile among `n` samples (1-based).
fn rank(pct: u32, n: usize) -> usize {
    (pct as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// The percentile rule: the highest whole percentile, at most the 99th,
/// with at least [`MIN_BEYOND`] of `n` samples beyond its nearest-rank
/// position. With ten samples or fewer none qualifies, and the 100th (the
/// maximum) is used.
pub fn tail_pct(n: usize) -> u32 {
    (1..=99)
        .rev()
        .find(|&p| n >= MIN_BEYOND + rank(p, n))
        .unwrap_or(100)
}

/// The nearest-rank `pct`-th percentile of `samples` (0 when empty).
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[rank(pct, n) - 1],
    }
}

/// A layer's self time: its call's duration minus the time of the child
/// layer calls it contains, never below zero (clock granularity and
/// children measured on other threads can make the difference negative).
pub fn self_ns(total_ns: u64, children_ns: u64) -> u64 {
    total_ns.saturating_sub(children_ns)
}

/// Nanoseconds elapsed since `started`.
pub fn ns_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Cumulative telemetry the program already emits, read between two
/// points of a traced run. Everything is zero while telemetry is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Host ns inside `MachineSim::run`/`run_observed` (span `sim.run`).
    pub sim_ns: u64,
    /// Simulated runs (span `sim.run` count).
    pub sim_runs: u64,
    /// Host ns inside Runner repetitions (span `runner.repetition`).
    pub rep_ns: u64,
    /// Pool worker queue wait, ns (histogram `par.idle_ns`).
    pub idle_ns: u64,
    /// Pool chunks executed (counter `par.tasks`).
    pub tasks: u64,
}

impl Telemetry {
    /// The current totals.
    pub fn now() -> Telemetry {
        let g = np_telemetry::global();
        let sim = g.histogram("span.sim.run");
        Telemetry {
            sim_ns: sim.sum(),
            sim_runs: sim.count(),
            rep_ns: g.histogram("span.runner.repetition").sum(),
            idle_ns: g.histogram("par.idle_ns").sum(),
            tasks: g.counter("par.tasks").get(),
        }
    }

    /// What accrued since `earlier`.
    pub fn since(self, earlier: Telemetry) -> Telemetry {
        Telemetry {
            sim_ns: self.sim_ns.saturating_sub(earlier.sim_ns),
            sim_runs: self.sim_runs.saturating_sub(earlier.sim_runs),
            rep_ns: self.rep_ns.saturating_sub(earlier.rep_ns),
            idle_ns: self.idle_ns.saturating_sub(earlier.idle_ns),
            tasks: self.tasks.saturating_sub(earlier.tasks),
        }
    }
}

/// Host memory high-water mark of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_once_ten_samples_lie_beyond_it() {
        assert_eq!(tail_pct(1000), 99);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99), 990.0);
    }

    #[test]
    fn fewer_samples_take_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 sits at rank 90 with exactly 10 beyond it.
        assert_eq!(tail_pct(100), 90);
        // 999 samples: p99 would leave only 9 beyond.
        assert_eq!(tail_pct(999), 98);
        for n in 11..2000usize {
            let pct = tail_pct(n);
            assert!(n - rank(pct, n) >= MIN_BEYOND, "n={n}");
            assert!(pct == 99 || n - rank(pct + 1, n) < MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn ten_samples_or_fewer_report_the_maximum() {
        assert_eq!(tail_pct(10), 100);
        assert_eq!(tail_pct(0), 100);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100), 3.0);
        assert_eq!(percentile(&[], 100), 0.0);
    }

    #[test]
    fn self_time_never_goes_negative() {
        assert_eq!(self_ns(10, 4), 6);
        assert_eq!(self_ns(4, 10), 0);
        assert_eq!(self_ns(0, u64::MAX), 0);
        for total in [0u64, 1, 999, u64::MAX] {
            for children in [0u64, 1, 1000, u64::MAX] {
                assert!(self_ns(total, children) <= total);
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

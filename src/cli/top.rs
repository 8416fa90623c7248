//! `np top`: a live, NUMAscope-style per-node telemetry view.
//!
//! A producer thread runs the selected workload in a loop on the
//! simulated machine under one [`NodeSeriesObserver`] — the same
//! per-node producer `np run --sample` uses — shared with the redraw
//! loop. The foreground loop redraws a plain ANSI frame
//! (`ESC[2J ESC[H` — no TUI dependency) every `--interval` ms for
//! `--ticks` frames from a copy of the observer's sampler, showing
//! per-node event rates and the phase of the newest bin. Only this
//! machine's runs reach the observer, so other simulations in the
//! process never show up here.
//!
//! This file sits in the audit's `no-wall-clock` scope: pacing comes
//! from `thread::sleep` and the tick counter, rates are deltas of the
//! sampler's simulated-cycle series between redraws — nothing here
//! branches on `Instant::now`.

use super::args::Cli;
use super::workloads;
use np_core::capture::NodeSeriesObserver;
use np_patterns::indicators::split_series_name;
use np_simulator::{Counters, MachineSim, SimObserver};
use np_telemetry::timeseries::{Sampler, IDLE_PHASE};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};

/// Bins per series the live view keeps before downsampling.
const CAPACITY: usize = 512;

/// Per-series cumulative sums of the previous frame, for rate deltas.
type Totals = BTreeMap<String, u64>;

/// The observer the producer thread records into and the redraw loop
/// copies from.
#[derive(Clone)]
struct SharedObserver(Arc<Mutex<NodeSeriesObserver>>);

impl SharedObserver {
    /// A poisoned lock only means the other thread panicked mid-slice;
    /// the sampler stays structurally valid, so keep using it.
    fn lock(&self) -> MutexGuard<'_, NodeSeriesObserver> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl SimObserver for SharedObserver {
    fn on_timeslice(&mut self, now: u64, counters: &Counters, footprint_bytes: u64) {
        self.lock().on_timeslice(now, counters, footprint_bytes);
    }
}

/// Per-node pattern badges from the snapshot's cumulative
/// `node<N>.<event>` totals: each node's vector goes through the
/// np-patterns node-local signature subset, so a `BW` here and a
/// bandwidth-bound verdict in `np patterns` sit on the same thresholds.
fn badge_rows(sampler: &Sampler) -> Vec<(usize, String)> {
    let mut nodes: Vec<np_patterns::NodeVector> = Vec::new();
    for (name, series) in sampler.iter() {
        let Some((id, short)) = split_series_name(name) else {
            continue;
        };
        if nodes.len() <= id {
            nodes.resize(id + 1, np_patterns::NodeVector::default());
        }
        nodes[id].add(short, series.total_sum());
    }
    nodes
        .iter()
        .enumerate()
        .map(|(id, n)| (id, np_patterns::node_badges(n)))
        .collect()
}

/// The phase label of the newest bin in `sampler` (`-` when empty).
fn newest_phase(sampler: &Sampler) -> &str {
    sampler
        .iter()
        .filter_map(|(_, series)| series.bins.last())
        .max_by_key(|bin| bin.t)
        .and_then(|bin| sampler.phases().get(bin.phase as usize))
        .map_or(IDLE_PHASE, String::as_str)
}

/// Renders one frame (without ANSI control codes — the caller prepends
/// the clear sequence). Pure, so tests can pin the layout.
pub fn render_frame(
    sampler: &Sampler,
    prev: &Totals,
    tick: usize,
    ticks: usize,
    interval_ms: u64,
) -> (String, Totals) {
    let mut out = format!(
        "np top — live NUMA telemetry   tick {}/{}   phase: {}\n\n",
        tick,
        ticks,
        newest_phase(sampler)
    );
    out.push_str(&format!(
        "{:<32} {:>14} {:>14} {:>6}\n",
        "series", "rate/s", "total", "bins"
    ));
    // events per second = per-tick delta scaled by the redraw interval.
    let per_sec = 1e3 / interval_ms.max(1) as f64;
    let mut next = Totals::new();
    if sampler.is_empty() {
        out.push_str("  (no samples yet)\n");
    }
    for (name, series) in sampler.iter() {
        let total = series.total_sum();
        let delta = total.saturating_sub(prev.get(name).copied().unwrap_or(0));
        next.insert(name.to_string(), total);
        out.push_str(&format!(
            "{:<32} {:>14.0} {:>14} {:>6}\n",
            name,
            delta as f64 * per_sec,
            total,
            series.bins.len()
        ));
    }
    let badges = badge_rows(sampler);
    if !badges.is_empty() {
        out.push_str(&format!("\n{:<6} patterns\n", "node"));
        for (id, badge) in badges {
            out.push_str(&format!("{id:<6} {badge}\n"));
        }
    }
    (out, next)
}

/// `np top` entry point: bounded redraw loop over a background workload.
pub fn run_top(cli: &Cli) -> Result<String, String> {
    let machine = cli.machine_config()?;
    // `top` is a live view, not a measurement: default to a workload
    // with visible NUMA traffic instead of demanding --workload.
    let name = cli.workload.as_deref().unwrap_or("row-major");
    let size = cli.size.or(Some(4096));
    let w = workloads::build(name, size, cli.threads, &machine)?;
    let program = w.build(&machine);

    let observer = NodeSeriesObserver::new(machine.topology.clone(), CAPACITY);
    let shared = SharedObserver(Arc::new(Mutex::new(observer)));
    let mut observer = shared.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let seed = cli.seed;
    let sim = MachineSim::new(machine);
    let producer = std::thread::spawn(move || {
        let _phase = np_telemetry::phase("simulate");
        let mut rep = 0u64;
        while !stop2.load(SeqCst) {
            let _ = sim.run_observed(&program, seed + rep, &mut observer);
            rep += 1;
        }
        rep
    });

    let ticks = cli.ticks.clamp(1, 10_000);
    let mut prev = Totals::new();
    let mut last_frame = String::new();
    for tick in 1..=ticks {
        std::thread::sleep(std::time::Duration::from_millis(cli.interval_ms.max(1)));
        let snapshot = shared.lock().sampler().clone();
        let (frame, next) = render_frame(&snapshot, &prev, tick, ticks, cli.interval_ms);
        prev = next;
        // Clear screen + home, then the frame — classic watch(1) redraw.
        print!("\x1b[2J\x1b[H{frame}");
        last_frame = frame;
    }
    stop.store(true, SeqCst);
    let reps = producer
        .join()
        .map_err(|_| "top: producer thread panicked")?;

    Ok(format!(
        "np top: {} tick(s) over {} simulated run(s) of {} — final frame:\n\n{last_frame}",
        ticks, reps, name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_frame_shows_rates_and_phase() {
        let mut s = Sampler::new(16);
        s.record_cumulative("node0.qpi", 1_000, 40);
        s.record_cumulative("node0.qpi", 2_000, 100);
        let (frame, totals) = render_frame(&s, &Totals::new(), 1, 4, 100);
        assert!(frame.contains("tick 1/4"));
        assert!(frame.contains("phase: -"), "{frame}");
        assert!(frame.contains("node0.qpi"));
        assert_eq!(totals.get("node0.qpi"), Some(&100));
        // Second frame rates against the remembered totals; the header
        // shows the phase of the newest bin.
        {
            let _phase = np_telemetry::phase("simulate");
            s.record_cumulative("node0.qpi", 3_000, 130);
        }
        let (frame, _) = render_frame(&s, &totals, 2, 4, 100);
        assert!(frame.contains("tick 2/4"));
        assert!(frame.contains("phase: simulate"), "{frame}");
        assert!(frame.contains("30"), "{frame}");
    }

    #[test]
    fn empty_sampler_renders_a_placeholder() {
        let (frame, _) = render_frame(&Sampler::new(4), &Totals::new(), 1, 1, 50);
        assert!(frame.contains("no samples yet"));
    }

    #[test]
    fn badge_column_flags_a_remote_heavy_node() {
        let mut s = Sampler::new(16);
        // Node 0: almost everything it loads is remote -> RMT badge.
        s.record_cumulative("node0.instructions", 1_000, 100_000);
        s.record_cumulative("node0.cycles", 1_000, 200_000);
        s.record_cumulative("node0.mem_stall", 1_000, 20_000);
        s.record_cumulative("node0.load", 1_000, 50_000);
        s.record_cumulative("node0.local_dram", 1_000, 100);
        s.record_cumulative("node0.remote_dram", 1_000, 900);
        // Node 1: healthy local traffic -> dash.
        s.record_cumulative("node1.instructions", 1_000, 100_000);
        s.record_cumulative("node1.cycles", 1_000, 200_000);
        s.record_cumulative("node1.load", 1_000, 50_000);
        s.record_cumulative("node1.local_dram", 1_000, 900);
        let (frame, _) = render_frame(&s, &Totals::new(), 1, 1, 100);
        assert!(frame.contains("node   patterns"), "{frame}");
        assert!(frame.contains("0      RMT"), "{frame}");
        assert!(frame.contains("1      -"), "{frame}");
        // Non-node series never grow a badge row.
        assert!(!frame.contains("2      "), "{frame}");
    }
}

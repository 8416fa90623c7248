//! Guard: recording per-node time series must not meaningfully slow
//! the simulator.
//!
//! The capture observer ([`NodeSeriesObserver`], the one producer of
//! per-node series behind `np run --sample` and `np top`) runs once per
//! *timeslice*, never per op. This test is the tripwire for someone
//! moving series recording into the per-op hot loop: it compares wall
//! time for identical runs through `run` and through `run_observed`
//! under the observer. The threshold is deliberately loose (2.5×,
//! min-of-3) so a loaded CI host never trips it — a real per-op
//! regression is orders of magnitude bigger than scheduler noise on a
//! 100k-op program, while the per-slice cost is a few percent.

use np_bench::dl580_sim;
use np_core::capture::NodeSeriesObserver;
use np_simulator::{AllocPolicy, ProgramBuilder};
use std::hint::black_box;
use std::time::Instant;

#[test]
fn series_observer_does_not_gut_sim_throughput() {
    let sim = dl580_sim();
    let topo = sim.config().topology.clone();
    let ops = 100_000u64;
    let mut b = ProgramBuilder::new(&topo, 4096);
    let buf = b.alloc(8 << 20, AllocPolicy::Bind(0));
    let t = b.add_thread(0);
    for i in 0..ops {
        b.load(t, buf + (i * 8) % (8 << 20));
    }
    let program = b.build();

    // Min-of-N: the minimum is the least noisy wall-time estimator on a
    // shared host.
    let mut observer = NodeSeriesObserver::new(topo, 512);
    let mut time = |observed: bool, runs: u64| {
        (0..runs)
            .map(|seed| {
                let start = Instant::now();
                let run = if observed {
                    sim.run_observed(&program, seed, &mut observer)
                } else {
                    sim.run(&program, seed)
                };
                black_box(run.expect("valid program"));
                start.elapsed()
            })
            .min()
            .expect("at least one run")
    };

    // Warm up caches/allocator, then measure both paths.
    let _ = time(false, 1);
    let plain = time(false, 3);
    let observed = time(true, 3);
    println!(
        "plain={plain:?} observed={observed:?} ratio={:.2}",
        observed.as_secs_f64() / plain.as_secs_f64()
    );

    // The runs must actually have fed the observer, or this guard
    // measures nothing.
    let bins: usize = observer.sampler().iter().map(|(_, s)| s.bins.len()).sum();
    assert!(bins > 0, "the observed runs recorded no bins");
    assert!(
        observed < plain * 5 / 2,
        "observed sim run is >2.5x slower: plain={plain:?} observed={observed:?}"
    );
}

//! Memhist latency histograms (§V-B / Fig. 10): the NUMA-optimised SIFT
//! workload (occurrences mode, Fig. 10a) and the mlc remote-latency
//! injection (costs mode, Fig. 10b), including the remote TCP probe.
//!
//! ```text
//! cargo run --release --example memhist_sift
//! ```

use np_core::memhist::probe::{FetchPolicy, ProbeServer, RemoteMemhist};
use np_workloads::mlc;
use numa_perf_tools::prelude::*;

fn main() {
    let machine = MachineConfig::dl580_gen9();
    let sim = MachineSim::new(machine.clone());
    let memhist = Memhist::with_defaults();

    // --- Fig. 10a: NUMA-optimised SIFT, event occurrences ---
    println!("Fig. 10a — NUMA-optimised SIFT, event occurrences");
    println!("==================================================");
    // 4096² × 4 B = 64 MiB per plane: larger than the 45 MiB L3, so the
    // working set genuinely reaches local DRAM like the paper's images.
    let sift = SiftKernel::optimized(4096, 8).build(&machine);
    let result = memhist.measure(&sim, &sift, 3);
    println!("{}", result.render(HistogramMode::Occurrences));
    println!(
        "negative bins from threshold cycling: {} (the unavoidable §IV-B error)",
        result.negative_bins()
    );

    // Verify the peaks against mlc ground truth, like §V-B does.
    println!("\nVerifying peaks against the simulated mlc latency matrix ...");
    let matrix = mlc::measure_matrix(&sim, 8 << 20, 600, 11);
    let local = matrix[0][0];
    let l2 = machine.latency.l2_hit as f64;
    let l3 = machine.latency.l3_hit as f64;
    let v = memhist.verify_peaks(&result, HistogramMode::Occurrences, &[l2, l3, local]);
    println!("  expected peaks (L2, L3, local DRAM): [{l2:.0}, {l3:.0}, {local:.0}] cycles");
    println!("  matched: {:?}   unmatched: {:?}", v.matched, v.unmatched);

    // --- Fig. 10b: mlc-induced remote accesses, event costs ---
    println!("\nFig. 10b — induced remote accesses (mlc), event costs");
    println!("=====================================================");
    let injector = LatencyChecker::remote_injector(16 << 20, 20_000).build(&machine);
    let remote = memhist.measure(&sim, &injector, 5);
    println!("{}", remote.render(HistogramMode::Costs));
    let remote_latency = matrix[0][1];
    let v = memhist.verify_peaks(&remote, HistogramMode::Costs, &[remote_latency]);
    println!(
        "  expected remote peak: {remote_latency:.0} cycles; matched: {:?}",
        v.matched
    );

    // --- The remote probe of Fig. 6 ---
    println!("\nRemote probing (Fig. 6): fetching the same histogram over TCP ...");
    let listener = ProbeServer::bind().expect("bind probe");
    let addr = listener.local_addr().unwrap();
    let server = ProbeServer::new(MachineSim::new(machine.clone()), injector);
    let handle = std::thread::spawn(move || server.serve(&listener, 1));
    let (config, policy) = (MemhistConfig::default(), FetchPolicy::default());
    let fetched = RemoteMemhist::fetch_resilient(addr, &config, 5, &policy).expect("fetch");
    handle.join().unwrap().expect("probe served");
    println!(
        "  probe returned {} bins over TCP; total sampled loads: {}",
        fetched.histogram.bins.len(),
        fetched.histogram.total_count()
    );
}

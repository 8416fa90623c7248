//! Differential proof that the engine's output is pinned:
//!
//! * Scratch-state recycling is invisible: for every workload in the
//!   registry `MachineSim::run` (which reuses pooled per-core caches,
//!   TLBs, predictors and the coherence directory via epoch-validated
//!   resets) produces results byte-identical to `MachineSim::run_fresh`
//!   (which allocates everything from scratch). Each sim instance runs
//!   every program more than once, so later runs execute on *recycled*
//!   state that a previous run dirtied; a reset that forgets to clear any
//!   structure (cache line, TLB entry, predictor counter, prefetch
//!   stream, directory line, RNG, timer phase) shows up as a counter diff.
//! * The simulated counts themselves are pinned: every run's digest
//!   (counters, cycles, footprint, regions) and, on the observed leg, the
//!   digest of every `LoadSample` and timeslice callback must equal the
//!   line in `tests/golden/sim/run_digests.txt`. `run` ≡ `run_fresh`
//!   cannot catch a change to the engine's model, because both sides run
//!   the same engine; the goldens can. An intended model change rewrites
//!   them in the same commit: run this file's tests with
//!   `NP_BLESS_SIM_DIGESTS=1` (add `--include-ignored` for every leg).

use np_simulator::{
    Counters, LoadSample, MachineConfig, MachineSim, RunResult, ServedBy, SimObserver,
};
use np_workloads::registry;
use std::path::PathBuf;
use std::sync::Mutex;

fn quiet(mut cfg: MachineConfig) -> MachineConfig {
    cfg.noise.timer_interval = 0;
    cfg.noise.dram_jitter = 0.0;
    cfg
}

/// Bounded sizes: each run happens several times per preset, so the
/// sweep shrinks every workload well below its characteristic footprint.
/// The differential property needs the structures *exercised* (L1/L2/L3
/// overflow, TLB thrash, directory traffic), not paper-scale runtimes.
fn size_for(name: &str) -> Option<usize> {
    match name {
        "row-major" | "column-major" => Some(256),
        "sort" => Some(8 * 1024),
        "sift" | "sift-naive" => Some(512),
        "mlc-local" | "mlc-remote" => Some(1 << 20),
        "stream-local" | "stream-bound" | "stream-interleaved" => Some(16 * 1024),
        "matmul" => Some(48),
        "bfs" | "bfs-bound" | "bfs-interleaved" => Some(4 * 1024),
        "hashjoin-small" => Some(2 * 1024),
        "hashjoin-large" => Some(8 * 1024),
        "chase-small" => Some(1 << 20),
        "chase-large" => Some(2 << 20),
        "stencil-small" => Some(96),
        "stencil-large" => Some(128),
        "walk-small" => Some(4 * 1024),
        "walk-large" => Some(16 * 1024),
        _ => None,
    }
}

/// 64-bit FNV-1a, fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn counters(&mut self, c: &Counters) {
        for core in 0..c.cores() {
            for v in c.core_array(core) {
                self.u64(v);
            }
        }
    }
}

/// Digest of everything a run returns.
fn run_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.counters(&r.counters);
    h.u64(r.cycles);
    h.u64(r.footprint.len() as u64);
    for &(t, bytes) in &r.footprint {
        h.u64(t);
        h.u64(bytes);
    }
    h.u64(r.regions.len() as u64);
    for (id, totals) in &r.regions {
        h.u64(*id as u64);
        for &v in totals {
            h.u64(v);
        }
    }
    h.0
}

/// Digests every callback in arrival order: each load sample in full and
/// each timeslice with the whole counter state it was shown.
struct Recorder {
    h: Fnv,
    samples: u64,
    slices: u64,
}

impl SimObserver for Recorder {
    fn on_load_sample(&mut self, s: &LoadSample) {
        let served = match s.served {
            ServedBy::L1 => 1,
            ServedBy::L2 => 2,
            ServedBy::L3 => 3,
            ServedBy::LocalDram => 4,
            ServedBy::RemoteDram { hops } => 0x100 | hops as u64,
            ServedBy::Hitm { remote } => 0x200 | remote as u64,
        };
        for v in [0, s.core as u64, s.addr, s.latency, served, s.time] {
            self.h.u64(v);
        }
        self.samples += 1;
    }

    fn on_timeslice(&mut self, now: u64, counters: &Counters, footprint_bytes: u64) {
        self.h.u64(1);
        self.h.u64(now);
        self.h.counters(counters);
        self.h.u64(footprint_bytes);
        self.slices += 1;
    }
}

fn assert_same(name: &str, what: &str, fresh: &RunResult, got: &RunResult) {
    assert_eq!(
        fresh.counters, got.counters,
        "{name}: {what} diverged from run_fresh in event counters"
    );
    assert_eq!(fresh.cycles, got.cycles, "{name}: {what} cycles diverged");
    assert_eq!(
        fresh.footprint, got.footprint,
        "{name}: {what} footprint series diverged"
    );
    assert_eq!(
        fresh.regions, got.regions,
        "{name}: {what} region totals diverged"
    );
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim/run_digests.txt")
}

/// Serialises blessing: every leg rewrites its own lines of one file.
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

/// Compares one leg's `<leg> <workload> <kind> <digest>` lines with the golden
/// file's lines for that leg, or rewrites them under
/// `NP_BLESS_SIM_DIGESTS=1`.
fn check_golden(leg: &str, lines: &[String]) {
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let prefix = format!("{leg} ");
    if std::env::var_os("NP_BLESS_SIM_DIGESTS").is_some() {
        let mut all: Vec<String> = text
            .lines()
            .filter(|l| !l.starts_with(&prefix))
            .map(str::to_string)
            .chain(lines.iter().cloned())
            .collect();
        all.sort();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, all.join("\n") + "\n").unwrap();
        return;
    }
    let pinned: Vec<&str> = text.lines().filter(|l| l.starts_with(&prefix)).collect();
    assert!(
        !pinned.is_empty(),
        "{}: no golden lines for leg {leg}",
        path.display()
    );
    let diffs: Vec<String> = lines
        .iter()
        .filter(|l| !pinned.contains(&l.as_str()))
        .cloned()
        .collect();
    assert!(
        diffs.is_empty() && pinned.len() == lines.len(),
        "{leg}: {} of {} run digests differ from the golden: {diffs:?}",
        diffs.len(),
        lines.len()
    );
}

fn programs(
    cfg: &MachineConfig,
) -> impl Iterator<Item = (usize, &'static str, np_simulator::Program)> + '_ {
    registry::NAMES.iter().enumerate().map(move |(i, name)| {
        let workload = registry::build(name, size_for(name), 2, cfg).expect("registry build");
        (i, *name, workload.build(cfg))
    })
}

fn seed_of(i: usize) -> u64 {
    0x9E37 ^ (i as u64) << 8
}

/// `run_fresh`, a pooled run and a recycled run agree, and the result's
/// digest equals the golden's.
fn differential_sweep(leg: &str, cfg: MachineConfig) {
    // One sim for the whole registry: every run after the first executes
    // on scratch state dirtied by a *different* workload.
    let sim = MachineSim::new(cfg.clone());
    let mut lines = Vec::new();
    for (i, name, program) in programs(&cfg) {
        let seed = seed_of(i);
        let fresh = sim.run_fresh(&program, seed).expect("run_fresh");
        let first = sim.run(&program, seed).expect("run (cold scratch)");
        let second = sim.run(&program, seed).expect("run (recycled scratch)");
        assert_same(name, "pooled run", &fresh, &first);
        assert_same(name, "recycled run", &fresh, &second);
        lines.push(format!("{leg} {name} run {:016x}", run_digest(&fresh)));
    }
    check_golden(leg, &lines);
}

/// `run_fresh` and an observed run on recycled state agree; the run and
/// the observer's callback stream each match their golden digest.
fn observed_sweep(leg: &str, cfg: MachineConfig) {
    let sim = MachineSim::new(cfg.clone());
    let mut lines = Vec::new();
    for (i, name, program) in programs(&cfg) {
        let seed = seed_of(i);
        let fresh = sim.run_fresh(&program, seed).expect("run_fresh");
        let mut rec = Recorder {
            h: Fnv::new(),
            samples: 0,
            slices: 0,
        };
        let observed = sim
            .run_observed(&program, seed, &mut rec)
            .expect("run_observed");
        assert_same(name, "observed run", &fresh, &observed);
        assert!(rec.samples > 0, "{name}: no load samples observed");
        lines.push(format!("{leg} {name} run {:016x}", run_digest(&fresh)));
        lines.push(format!(
            "{leg} {name} callbacks {:016x} samples={} slices={}",
            rec.h.0, rec.samples, rec.slices
        ));
    }
    check_golden(leg, &lines);
}

#[test]
fn registry_is_bit_identical_on_two_socket_quiet() {
    differential_sweep("two-socket-quiet", quiet(MachineConfig::two_socket_small()));
}

#[test]
fn registry_is_bit_identical_on_ring_quiet() {
    differential_sweep("ring-quiet", quiet(MachineConfig::eight_socket_ring()));
}

/// The benchmark's machine: two sockets with timer interrupts and DRAM
/// jitter on. Also pins every load sample and timeslice callback.
#[test]
fn registry_and_callbacks_are_pinned_on_two_socket_noisy() {
    observed_sweep("two-socket-noisy", MachineConfig::two_socket_small());
}

/// The paper's machine and the noisy ring. Heavier, so the per-PR CI
/// check job runs it in release
/// (`cargo test --release --test differential_engine -- --ignored`).
#[test]
#[ignore = "minutes in debug; CI runs the dl580 and noisy ring legs in release"]
fn registry_and_callbacks_are_pinned_on_dl580_and_noisy_ring() {
    differential_sweep("dl580-quiet", quiet(MachineConfig::dl580_gen9()));
    observed_sweep("dl580-noisy", MachineConfig::dl580_gen9());
    observed_sweep("ring-noisy", MachineConfig::eight_socket_ring());
}

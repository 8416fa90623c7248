//! Time-series sampling: the NUMAscope-style capture layer.
//!
//! A [`Sampler`] holds a set of named series, each a fixed-capacity buffer
//! of [`Bin`]s. Producers push `(t, value)` points at whatever cadence
//! their layer defines — **simulated cycles** inside the simulator (via
//! the engine's timeslice hook), [`crate::now_ns`] everywhere else. The
//! sampler itself never reads a clock: `t` is always supplied by the
//! caller, which is what keeps the audit's `no-wall-clock` rule green
//! for this file (it is inside that rule's scope on purpose).
//!
//! When a series fills its capacity it **downsamples in place**: adjacent
//! bins merge pairwise and the series' `stride` doubles, so the buffer
//! covers the whole run at halved resolution instead of dropping the
//! tail. Merging folds `count`/`sum` by addition and `min`/`max` by
//! min/max, so the per-series totals are invariant under downsampling —
//! the property the proptest suite pins down.
//!
//! Every bin carries the **phase** active on the recording thread when
//! the point landed: phases are RAII regions ([`phase`]) stacked
//! per-thread, interned per-sampler into a small string table. This is
//! the Röhl-style phase attribution from the ISSUE: a spike in
//! `node1.remote_dram` is only actionable when you can see it happened
//! during `measure`, not `seed`.
//!
//! Two ways to use it:
//!
//! * **Local samplers** (`Sampler::new`) for deterministic captures: the
//!   campaign runner gives every repetition its own sampler keyed by
//!   simulated time, then merges them in submission order — byte-stable
//!   output regardless of thread count.
//! * **The global sampler** ([`sample`], [`sample_cumulative`]) for live
//!   feeds (`np top`, loadgen): gated by [`sampling_enabled`] exactly
//!   like metrics are gated by [`crate::enabled`], one relaxed load when
//!   off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One aggregated sample bucket: `stride` raw points folded together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bin {
    /// Timestamp of the earliest point in the bin (caller-defined unit:
    /// simulated cycles in sim paths, monotonic ns elsewhere).
    pub t: u64,
    /// Index into the sampler's phase table for the phase active when the
    /// earliest point landed.
    pub phase: u16,
    /// Raw points folded into this bin.
    pub count: u64,
    /// Sum of the folded values.
    pub sum: u64,
    /// Minimum folded value.
    pub min: u64,
    /// Maximum folded value.
    pub max: u64,
}

impl Bin {
    fn point(t: u64, phase: u16, v: u64) -> Bin {
        Bin {
            t,
            phase,
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    fn absorb(&mut self, other: &Bin) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One named series inside a [`Sampler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Raw points per bin; doubles on every downsample pass.
    pub stride: u64,
    /// The aggregated buckets, in recording order.
    pub bins: Vec<Bin>,
    /// Last cumulative value seen by [`Sampler::record_cumulative`].
    last_cum: u64,
}

/// An empty series starts at stride 1 (every bin is one raw point).
impl Default for Series {
    fn default() -> Series {
        Series {
            stride: 1,
            bins: Vec::new(),
            last_cum: 0,
        }
    }
}

impl Series {
    /// Total raw points folded into the series.
    pub fn total_count(&self) -> u64 {
        self.bins.iter().map(|b| b.count).sum()
    }

    /// Sum of every raw value recorded.
    pub fn total_sum(&self) -> u64 {
        self.bins.iter().map(|b| b.sum).sum()
    }

    /// Minimum raw value recorded (`None` when empty).
    pub fn total_min(&self) -> Option<u64> {
        self.bins.iter().map(|b| b.min).min()
    }

    /// Maximum raw value recorded (`None` when empty).
    pub fn total_max(&self) -> Option<u64> {
        self.bins.iter().map(|b| b.max).max()
    }

    /// Pairwise-merges adjacent bins, halving resolution.
    fn downsample(&mut self) {
        let mut merged = Vec::with_capacity(self.bins.len().div_ceil(2));
        let mut iter = self.bins.chunks(2);
        for pair in &mut iter {
            let mut bin = pair[0];
            if let Some(second) = pair.get(1) {
                bin.absorb(second);
            }
            merged.push(bin);
        }
        self.bins = merged;
        self.stride = self.stride.saturating_mul(2);
    }
}

/// A fixed-capacity, multi-series sample store. See the module docs.
#[derive(Debug, Clone)]
pub struct Sampler {
    capacity: usize,
    phases: Vec<String>,
    series: BTreeMap<String, Series>,
}

impl Sampler {
    /// A sampler whose series each hold at most `capacity` bins
    /// (clamped to at least 2 so downsampling always has a pair).
    pub fn new(capacity: usize) -> Sampler {
        Sampler {
            capacity: capacity.max(2),
            phases: vec![IDLE_PHASE.to_string()],
            series: BTreeMap::new(),
        }
    }

    /// Bin capacity per series.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The interned phase table; index 0 is always the idle phase `-`.
    pub fn phases(&self) -> &[String] {
        &self.phases
    }

    /// Named series, in sorted name order (BTreeMap iteration).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// A series by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn intern(&mut self, label: &str) -> u16 {
        if let Some(i) = self.phases.iter().position(|p| p == label) {
            return i as u16;
        }
        self.phases.push(label.to_string());
        (self.phases.len() - 1) as u16
    }

    fn push(&mut self, name: &str, t: u64, v: u64, phase: u16) {
        let series = self.series.entry(name.to_string()).or_default();
        series.bins.push(Bin::point(t, phase, v));
        if series.bins.len() >= self.capacity.max(2) {
            series.downsample();
        }
    }

    /// Records a point under the recording thread's active phase.
    pub fn record(&mut self, name: &str, t: u64, v: u64) {
        let phase = self.intern(&current_phase());
        self.push(name, t, v, phase);
    }

    /// Records a point under an explicit phase label.
    pub fn record_with_phase(&mut self, name: &str, t: u64, v: u64, phase: &str) {
        let id = self.intern(phase);
        self.push(name, t, v, id);
    }

    /// Records the **delta** of a monotonically increasing total: the
    /// first call establishes the baseline against zero, every later call
    /// records `cum - previous` (clamped at zero if the total regressed,
    /// e.g. after a counter reset).
    pub fn record_cumulative(&mut self, name: &str, t: u64, cum: u64) {
        let phase = self.intern(&current_phase());
        let last = self.series.entry(name.to_string()).or_default().last_cum;
        let delta = cum.saturating_sub(last);
        if let Some(series) = self.series.get_mut(name) {
            series.last_cum = cum;
        }
        self.push(name, t, delta, phase);
    }

    /// Copies every series of `other` into `self` under a name prefix,
    /// remapping phase ids into this sampler's table. Used by the runner
    /// to fold per-repetition samplers into one capture in submission
    /// order — the merge is a pure function of the inputs, so the result
    /// is identical no matter how many pool workers produced them.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Sampler) {
        let remap: Vec<u16> = other.phases.iter().map(|p| self.intern(p)).collect();
        for (name, series) in &other.series {
            let target = self.series.entry(format!("{prefix}{name}")).or_default();
            target.stride = series.stride;
            target.last_cum = series.last_cum;
            for bin in &series.bins {
                let mut bin = *bin;
                bin.phase = remap.get(bin.phase as usize).copied().unwrap_or(0);
                target.bins.push(bin);
            }
            while target.bins.len() >= self.capacity.max(2) {
                target.downsample();
            }
        }
    }

    /// Deterministic JSON export: phases table plus per-series
    /// delta-encoded parallel arrays (`t0` + `dt[i] = t[i] - t[i-1]`).
    /// Same shape the `np run` capture embeds; byte-stable for equal
    /// recorded content.
    pub fn to_json(&self) -> String {
        use crate::snapshot::json_escape;
        use std::fmt::Write;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_escape(&mut out, p);
        }
        out.push_str("],\n  \"series\": [");
        for (i, (name, series)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let t0 = series.bins.first().map_or(0, |b| b.t);
            out.push_str("\n    {\"name\": ");
            json_escape(&mut out, name);
            let _ = write!(out, ", \"stride\": {}, \"t0\": {}", series.stride, t0);
            let mut field = |label: &str, values: Vec<u64>| {
                let _ = write!(out, ", \"{label}\": [");
                for (j, v) in values.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            };
            let mut prev = t0;
            field(
                "dt",
                series
                    .bins
                    .iter()
                    .map(|b| {
                        let dt = b.t.saturating_sub(prev);
                        prev = b.t;
                        dt
                    })
                    .collect(),
            );
            field(
                "phase",
                series.bins.iter().map(|b| b.phase as u64).collect(),
            );
            field("count", series.bins.iter().map(|b| b.count).collect());
            field("sum", series.bins.iter().map(|b| b.sum).collect());
            field("min", series.bins.iter().map(|b| b.min).collect());
            field("max", series.bins.iter().map(|b| b.max).collect());
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Phase label reported while no [`phase`] guard is live.
pub const IDLE_PHASE: &str = "-";

thread_local! {
    static PHASE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide "most recently entered phase", for live consumers
/// (`np top`) that render from a different thread than the producer.
fn active_phase_cell() -> &'static Mutex<&'static str> {
    static CELL: OnceLock<Mutex<&'static str>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(IDLE_PHASE))
}

/// RAII phase region: see [`phase`].
pub struct PhaseGuard {
    _priv: (),
}

/// Enters a named phase on this thread until the guard drops. Nested
/// phases stack; samples record the innermost label. Also publishes the
/// label as the process-wide active phase so `np top` can display it.
pub fn phase(label: &'static str) -> PhaseGuard {
    PHASE_STACK.with(|stack| stack.borrow_mut().push(label));
    *lock_recover(active_phase_cell()) = label;
    PhaseGuard { _priv: () }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let outer = PHASE_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.pop();
            stack.last().copied()
        });
        *lock_recover(active_phase_cell()) = outer.unwrap_or(IDLE_PHASE);
    }
}

/// The innermost phase label on this thread (`-` outside any guard).
pub fn current_phase() -> String {
    PHASE_STACK.with(|stack| {
        stack
            .borrow()
            .last()
            .copied()
            .unwrap_or(IDLE_PHASE)
            .to_string()
    })
}

/// The most recently entered phase across all threads (`-` initially).
pub fn active_phase() -> String {
    lock_recover(active_phase_cell()).to_string()
}

static SAMPLING: AtomicBool = AtomicBool::new(false);

/// Whether the global sampler records. One relaxed load when off — same
/// cost model as [`crate::enabled`].
#[inline(always)]
pub fn sampling_enabled() -> bool {
    SAMPLING.load(Relaxed)
}

/// Turns global-sampler recording on or off at runtime.
pub fn set_sampling(on: bool) {
    SAMPLING.store(on, Relaxed);
}

/// Default bin capacity of the global sampler.
pub const GLOBAL_CAPACITY: usize = 512;

fn global_cell() -> &'static Mutex<Sampler> {
    static CELL: OnceLock<Mutex<Sampler>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(Sampler::new(GLOBAL_CAPACITY)))
}

/// A poisoned sampler mutex only means another thread panicked mid-push;
/// bins stay structurally valid, so recover the data instead of
/// cascading the panic into no-panic-scoped callers.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` against the global sampler (locked). No gating: callers that
/// want the cheap-when-off path go through [`sample`]/[`sample_cumulative`].
pub fn with_global_sampler<R>(f: impl FnOnce(&mut Sampler) -> R) -> R {
    f(&mut lock_recover(global_cell()))
}

/// Records into the global sampler when [`sampling_enabled`]; no-op (one
/// relaxed load) otherwise.
pub fn sample(name: &str, t: u64, v: u64) {
    if sampling_enabled() {
        with_global_sampler(|s| s.record(name, t, v));
    }
}

/// Cumulative-total variant of [`sample`] (delta encoding, see
/// [`Sampler::record_cumulative`]).
pub fn sample_cumulative(name: &str, t: u64, cum: u64) {
    if sampling_enabled() {
        with_global_sampler(|s| s.record_cumulative(name, t, cum));
    }
}

/// A point-in-time copy of the global sampler (for `np top` redraws).
pub fn global_sampler_snapshot() -> Sampler {
    with_global_sampler(|s| s.clone())
}

/// Resets the global sampler to an empty store with `capacity` bins.
pub fn reset_global_sampler(capacity: usize) {
    with_global_sampler(|s| *s = Sampler::new(capacity));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_land_with_phase_attribution() {
        let mut s = Sampler::new(64);
        s.record("a", 10, 5);
        {
            let _p = phase("measure");
            s.record("a", 20, 7);
            {
                let _inner = phase("inner");
                s.record("a", 30, 1);
            }
            s.record("a", 40, 2);
        }
        s.record("a", 50, 3);
        let series = s.get("a").unwrap();
        let labels: Vec<&str> = series
            .bins
            .iter()
            .map(|b| s.phases()[b.phase as usize].as_str())
            .collect();
        assert_eq!(labels, ["-", "measure", "inner", "measure", "-"]);
        assert_eq!(series.total_sum(), 18);
        assert_eq!(series.total_count(), 5);
    }

    #[test]
    fn downsampling_preserves_totals() {
        let mut s = Sampler::new(8);
        for i in 0..100u64 {
            s.record("x", i * 10, i);
        }
        let series = s.get("x").unwrap();
        assert!(series.bins.len() < 8, "stayed within capacity");
        assert!(series.stride > 1, "downsampling happened");
        assert_eq!(series.total_count(), 100);
        assert_eq!(series.total_sum(), (0..100).sum::<u64>());
        assert_eq!(series.total_min(), Some(0));
        assert_eq!(series.total_max(), Some(99));
        // Bin timestamps stay monotonic through merging.
        let ts: Vec<u64> = series.bins.iter().map(|b| b.t).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn cumulative_records_deltas() {
        let mut s = Sampler::new(16);
        s.record_cumulative("ops", 1, 100);
        s.record_cumulative("ops", 2, 150);
        s.record_cumulative("ops", 3, 150);
        s.record_cumulative("ops", 4, 130); // regression clamps to 0
        let sums: Vec<u64> = s.get("ops").unwrap().bins.iter().map(|b| b.sum).collect();
        assert_eq!(sums, [100, 50, 0, 0]);
    }

    #[test]
    fn to_json_is_deterministic_and_delta_encoded() {
        let build = || {
            let mut s = Sampler::new(16);
            s.record_with_phase("b", 100, 4, "p2");
            s.record_with_phase("a", 5, 1, "p1");
            s.record_with_phase("a", 25, 2, "p1");
            s
        };
        let a = build().to_json();
        let b = build().to_json();
        assert_eq!(a, b);
        // Series come out name-sorted; time is delta-encoded from t0.
        assert!(a.find("\"a\"").unwrap() < a.find("\"b\"").unwrap(), "{a}");
        assert!(a.contains("\"t0\": 5"), "{a}");
        assert!(a.contains("\"dt\": [0,20]"), "{a}");
    }

    #[test]
    fn merge_prefixed_remaps_phases_and_is_order_stable() {
        let mut rep0 = Sampler::new(16);
        rep0.record_with_phase("n", 1, 10, "alpha");
        let mut rep1 = Sampler::new(16);
        rep1.record_with_phase("n", 2, 20, "beta");

        let mut merged = Sampler::new(16);
        merged.merge_prefixed("rep0.", &rep0);
        merged.merge_prefixed("rep1.", &rep1);
        assert_eq!(merged.len(), 2);
        let b0 = merged.get("rep0.n").unwrap().bins[0];
        let b1 = merged.get("rep1.n").unwrap().bins[0];
        assert_eq!(merged.phases()[b0.phase as usize], "alpha");
        assert_eq!(merged.phases()[b1.phase as usize], "beta");
        assert_eq!(b0.sum, 10);
        assert_eq!(b1.sum, 20);
    }

    #[test]
    fn global_sampler_is_gated() {
        set_sampling(false);
        reset_global_sampler(32);
        sample("gated", 1, 1);
        assert!(global_sampler_snapshot().is_empty());
        set_sampling(true);
        sample("gated", 2, 2);
        sample_cumulative("gated.cum", 3, 9);
        set_sampling(false);
        let snap = global_sampler_snapshot();
        assert_eq!(snap.get("gated").unwrap().total_sum(), 2);
        assert_eq!(snap.get("gated.cum").unwrap().total_sum(), 9);
        reset_global_sampler(GLOBAL_CAPACITY);
    }
}

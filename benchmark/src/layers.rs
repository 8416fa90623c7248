//! The traced run's per-layer accumulators and the metrics derived from
//! them. Every number comes from timing a layer's public call from the
//! benchmark's own code, or from telemetry the program already emits;
//! the benchmark adds no tracing inside the program.

/// A sum of host nanoseconds over a number of calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    /// Total host ns.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Mean {
    /// Adds one timed call.
    pub fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    /// Mean per call, in `1/scale` ns units (1e3 gives µs, 1e6 ms).
    pub fn per_call(&self, scale: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / scale
        }
    }
}

/// Raw per-layer sums collected over one traced pass of every workload.
#[derive(Debug, Default)]
pub struct Layers {
    /// Host ns in unobserved `MachineSim::run` (evsel-campaign, pattern-sweep).
    pub sim_ns: u64,
    /// Simulated loads and stores of those runs.
    pub sim_accesses: u64,
    /// Host ns in `run_observed` under the Memhist and Phasenprüfer observers.
    pub observed_ns: u64,
    /// Simulated loads and stores of those runs.
    pub observed_accesses: u64,
    /// Simulated runs of every timed pass.
    pub runs: u64,
    /// Simulated cycles of every timed pass.
    pub sim_cycles: u64,
    /// Batch runs per EvSel repetition.
    pub runs_per_repetition: u64,
    /// `measure_batched` host ns minus the `MachineSim::run` ns inside it.
    pub counters_self_ns: u64,
    /// Host ns of the pooled tasks, summed over tasks.
    pub task_ns: u64,
    /// Pooled wall ns multiplied by the pool's worker count.
    pub pool_capacity_ns: u64,
    /// Pool worker queue wait, ns.
    pub idle_ns: u64,
    /// Pool chunks executed.
    pub tasks: u64,
    /// Memhist calls minus their simulation time, ns.
    pub memhist_self_ns: u64,
    /// `Phasenpruefer::detect` on recorded footprints, ns.
    pub segmented_fit_ns: u64,
    /// `Workload::build` of every tool-workload program, ns.
    pub build_ns: u64,
    /// `np_analysis::priors`, ns.
    pub priors_ns: u64,
    /// Program ops `priors` analysed.
    pub priors_ops: u64,
    /// `Indicators::from_run` + `derive` + `classify`.
    pub classify: Mean,
    /// Sweep cases whose fired set equals the registry label.
    pub labels_recovered: u64,
    /// `serde_json::from_str::<RequestFrame>`.
    pub decode: Mean,
    /// `serde_json::to_string(&ResponseFrame)`.
    pub encode: Mean,
    /// `IndicatorSet::digest`.
    pub digest: Mean,
    /// `ShardedStore::query_batch`.
    pub store_query: Mean,
    /// `ShardedStore::put`.
    pub store_put: Mean,
    /// `TransferModel::fit` on the target's training pairs.
    pub fit: Mean,
    /// Client round trip minus in-process decode, handle and encode.
    pub transport: Mean,
    /// Prediction-cache hits during the traced exchange pass.
    pub cache_hits: u64,
    /// Prediction-cache lookups during the traced exchange pass.
    pub cache_lookups: u64,
    /// Traced pass wall divided by untraced pass wall, for the run's workload.
    pub trace_overhead: f64,
}

/// Divides, reading 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Every per-layer metric as `(name, unit, value)`, in the order
    /// `BENCHMARK.json` lists them.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            (
                "numa-sim.ns_per_access",
                "ns",
                ratio(self.sim_ns as f64, self.sim_accesses as f64),
            ),
            (
                "numa-sim.observed_ns_per_access",
                "ns",
                ratio(self.observed_ns as f64, self.observed_accesses as f64),
            ),
            (
                "numa-sim.accesses",
                "count",
                (self.sim_accesses + self.observed_accesses) as f64,
            ),
            ("numa-sim.runs", "count", self.runs as f64),
            ("numa-sim.sim_cycles", "count", self.sim_cycles as f64),
            (
                "counters.runs_per_repetition",
                "count",
                self.runs_per_repetition as f64,
            ),
            ("counters.self_ms", "ms", self.counters_self_ns as f64 / 1e6),
            (
                "parallel.efficiency",
                "ratio",
                ratio(self.task_ns as f64, self.pool_capacity_ns as f64),
            ),
            ("parallel.idle_ms", "ms", self.idle_ns as f64 / 1e6),
            ("parallel.tasks", "count", self.tasks as f64),
            ("core.memhist_ms", "ms", self.memhist_self_ns as f64 / 1e6),
            (
                "stats.segmented_fit_ms",
                "ms",
                self.segmented_fit_ns as f64 / 1e6,
            ),
            ("workloads.build_ms", "ms", self.build_ns as f64 / 1e6),
            ("analysis.priors_ms", "ms", self.priors_ns as f64 / 1e6),
            (
                "analysis.priors_ns_per_op",
                "ns",
                ratio(self.priors_ns as f64, self.priors_ops as f64),
            ),
            ("patterns.classify_us", "us", self.classify.per_call(1e3)),
            (
                "patterns.labels_recovered",
                "count",
                self.labels_recovered as f64,
            ),
            ("serve.decode_us", "us", self.decode.per_call(1e3)),
            ("serve.encode_us", "us", self.encode.per_call(1e3)),
            ("serve.digest_us", "us", self.digest.per_call(1e3)),
            ("serve.store_query_us", "us", self.store_query.per_call(1e3)),
            ("serve.store_put_us", "us", self.store_put.per_call(1e3)),
            (
                "serve.cache_hit_ratio",
                "ratio",
                ratio(self.cache_hits as f64, self.cache_lookups as f64),
            ),
            ("models.fit_ms", "ms", self.fit.per_call(1e6)),
            ("serve.transport_us", "us", self.transport.per_call(1e3)),
            ("bench.trace_overhead", "ratio", self.trace_overhead),
        ]
    }
}

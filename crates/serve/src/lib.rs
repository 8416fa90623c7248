//! # np-serve — the concurrent indicator exchange
//!
//! The paper's two-step assessment splits performance analysis into
//! code-to-indicator measurement and indicator-to-cost mapping, with the
//! indicators explicitly designed to be *transferred between machines*
//! (§III). This crate gives that transfer step a networked home: a
//! long-running TCP service where measurement campaigns `put` their
//! indicator sets (EvSel event means, Memhist interval counts, phase
//! splits, keyed by machine/program/parameter), consumers `query` them
//! back, and `predict` transfers a stored set onto a *different* target
//! machine through the `np-models` calibration — the serving-layer
//! analogue of NUMAscope's long-running collector and LIKWID's daemon
//! mode.
//!
//! Throughput is the design driver:
//!
//! * [`store`] — N-sharded `RwLock` store with FNV key routing; writers
//!   only contend with readers of their own shard.
//! * Request **batching** — one frame may carry many requests; all its
//!   queries are answered in a single pass per shard.
//! * [`cache`] — a deterministic LRU of calibrated models keyed by
//!   (target machine, fingerprint of the target's stored content, model),
//!   so every transfer onto an unchanged target skips the fit, writes
//!   that change nothing invalidate nothing, and a stale model is never
//!   served.
//!
//! The wire protocol ([`proto`]) is versioned line-delimited JSON; all
//! socket IO runs through `np-resilience` (`read_line_bounded`, stream
//! deadlines, scripted fault sites) and every endpoint is measured by
//! `np-telemetry` (latency spans, in-flight gauge, cache counters). The
//! [`loadgen`] driver hammers a live server with a seeded concurrent
//! workload and writes the `BENCH_serve.json` perf baseline.

pub mod cache;
pub mod client;
pub mod loadgen;
pub mod meta;
pub mod proto;
pub mod server;
pub mod store;
pub mod window;

pub use cache::{CacheKey, Calibration, PredictionCache};
pub use client::{ClientError, ClientLimits, ClientSession, ExchangeClient};
pub use loadgen::{LoadSummary, LoadgenConfig};
pub use meta::{BenchMeta, BENCH_META_VERSION};
pub use proto::{
    CostReply, IndicatorKey, IndicatorSet, MemhistCounts, PhaseSplit, PredictReq, QueryReq,
    Request, RequestFrame, Response, ResponseFrame, StatsReply, MODEL_ID, PROTOCOL_VERSION,
};
pub use server::{ExchangeServer, ServerHandle};
pub use store::ShardedStore;
pub use window::{RateWindow, WindowSnapshot};

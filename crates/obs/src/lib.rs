#![warn(missing_docs)]

//! # dbgpt-obs — deterministic tracing + metrics for `db-gpt-rs`
//!
//! The paper's SMMF promises "a unified management perspective …
//! monitoring" (§2.3). This crate is that perspective: a dependency-light
//! observability substrate the serving path (ApiServer → resilience →
//! BatchEngine → prefix cache → RAG retrieval) threads through, in the
//! shape of Dapper-style request traces plus vLLM-style serving metrics.
//!
//! Two properties distinguish it from a wall-clock tracer:
//!
//! - **Deterministic.** Spans are timestamped by the caller — in the
//!   repository's simulated microseconds where a simulated clock exists
//!   (SMMF, the batch engine), and by a logical tick counter where it does
//!   not (RAG retrieval). Span ids come from a seeded counter, never a
//!   wall clock or RNG, so two identical runs produce **byte-identical
//!   trace dumps** and metric snapshots.
//! - **Free when off.** [`Obs::disabled`] carries no allocation — every
//!   recording call is a branch on an `Option` that is `None` — and
//!   enabling it is tested never to change a component's results.
//!
//! ## Shape
//!
//! - [`ObsConfig`] — the on/off + seed switch components accept.
//! - [`Obs`] — a cheaply cloneable handle owning one [`Tracer`] and one
//!   [`Metrics`] registry (or nothing, when disabled).
//! - [`Span`] — a handle for one unit of work: nested children, key-value
//!   attributes, point-in-time events, explicit `end(at_us)`. Every
//!   instrumented entry point takes a caller `&Span` and opens its own
//!   span with [`Span::child_or_root`].
//! - [`Metrics`] — named counters, gauges and fixed-bucket histograms
//!   with a deterministic-JSON [`Metrics::snapshot`].
//! - [`render`] — a text renderer that prints a trace tree for any
//!   request, the debugging view for "why was this request hedged /
//!   retried / batched / degraded?", plus a metrics table with
//!   p50/p90/p99 quantiles.
//! - [`Profile`] — a deterministic flamegraph profiler: folded stacks,
//!   per-name self/total-time hotspots, critical-path extraction.
//! - [`SloEngine`] — declarative latency/error objectives evaluated with
//!   multi-window burn-rate rules over metrics snapshots, emitting a
//!   byte-reproducible alert log.
//! - [`TraceContext`] + [`collect`] + [`export`] — the cluster-wide
//!   pipeline: wire-portable trace propagation, per-node dumps joined by
//!   a deterministic aggregator with tail-based sampling, and a
//!   SQL-statement exporter that materializes sampled spans, metric
//!   snapshots, histogram exemplars, and per-tenant usage rollups into
//!   `obs_spans` / `obs_metrics` / `obs_exemplars` / `obs_tenant_usage`.
//!
//! ## Quickstart
//!
//! ```
//! use dbgpt_obs::{Obs, ObsConfig};
//!
//! let obs = Obs::new(ObsConfig::enabled(42));
//! let root = obs.span("chat", 0);
//! root.attr("model", "sim-qwen");
//! let attempt = root.child("attempt", 10);
//! attempt.attr("worker", "w0");
//! attempt.event(250, "breaker half-open probe");
//! attempt.end(400);
//! root.end(500);
//! obs.counter("smmf.requests", 1);
//! obs.observe("smmf.request_latency_us", 500);
//! let dump = obs.trace_json();
//! assert!(dump.contains("\"name\":\"attempt\""));
//! println!("{}", obs.render_traces());
//! ```

pub mod collect;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod render;
pub mod slo;
pub mod trace;

pub use collect::{
    filter_by_root_attr, Collector, KeepReason, NodeDump, SamplePolicy, TaggedSpan, Telemetry,
    TenantUsage, TraceSummary, UsageLedger,
};
pub use export::{export_sql, insert_sql, schema_sql, slowest_spans_query};
pub use metrics::{Exemplar, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use profile::{CriticalHop, CriticalPath, HotSpot, Profile};
pub use slo::{Alert, BurnRule, Objective, SloDef, SloEngine};
pub use trace::{Obs, ObsConfig, Span, SpanId, SpanRecord, TraceContext};

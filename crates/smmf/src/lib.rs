#![warn(missing_docs)]

//! # dbgpt-smmf — the Service-oriented Multi-model Management Framework
//!
//! Implements SMMF as described in paper §2.3: "SMMF is underpinned by two
//! core components: the model inference layer and the model deployment
//! layer. … At its core, the model controller manages metadata, integrating
//! the deployment process, while the model worker establishes connectivity
//! with inference and infrastructure."
//!
//! Mapping to modules:
//!
//! - **Model inference layer** — any [`dbgpt_llm::LanguageModel`]; SMMF is
//!   backend-agnostic, exactly like the paper's support for multiple
//!   inference frameworks.
//! - **Model worker** ([`worker`]) — wraps one model replica with
//!   capacity limits, load/latency accounting, health state, and seeded
//!   failure injection for resilience experiments.
//! - **Model controller** ([`controller`]) — the metadata registry: which
//!   models exist, which workers serve each, worker lifecycle
//!   (register / drain / deregister).
//! - **API server + model handler** ([`server`]) — the deployment layer's
//!   entry point: routes a request to a worker under a
//!   [`router::RoutingPolicy`], retries on worker failure, and enforces the
//!   [`privacy`] mode (local-only serving, the paper's data-privacy
//!   guarantee).
//! - **Batched dispatch** ([`server::ApiServer::chat_many`]) — an optional
//!   continuous-batching mode: jobs routed to the same worker share decode
//!   steps in a per-worker [`dbgpt_llm::engine::BatchEngine`] with a radix
//!   prefix cache, compressing simulated serving time while keeping every
//!   completion byte-identical to the sequential path. Off by default
//!   ([`dbgpt_llm::engine::EngineConfig::disabled`]).
//! - **Resilience layer** ([`resilience`]) — per-worker circuit breakers,
//!   exponential backoff with seeded jitter, per-request deadline budgets
//!   in simulated µs, request hedging, load shedding, and a fallback model
//!   tier. Fully deterministic: same seed, same decisions.
//! - **Chaos harness** ([`chaos`]) — scripted fault schedules (crashes,
//!   flaky replicas, latency spikes, mass outages) driven against a live
//!   [`ApiServer`], reporting availability and goodput per scenario.
//! - **Observability** ([`server::ApiServer::with_observability`]) — the
//!   paper's "unified management perspective … monitoring": deterministic
//!   request traces (chat → attempt → hedge → engine drain) and serving
//!   metrics via [`dbgpt_obs`], timestamped on the simulated clock. Off
//!   (and free) by default; byte-identical hot path when disabled.
//!
//! ## Quickstart
//!
//! ```
//! use dbgpt_smmf::{ApiServer, DeploymentMode};
//! use dbgpt_llm::GenerationParams;
//! use dbgpt_obs::Span;
//!
//! let mut server = ApiServer::new(DeploymentMode::Local);
//! server.deploy_builtin("sim-qwen", 2).unwrap();  // two replicas
//! let params = GenerationParams::default();
//! let out = server.chat("sim-qwen", "hello data", &params, &Span::noop()).unwrap();
//! assert!(!out.text.is_empty());
//! ```

pub mod chaos;
pub mod controller;
pub mod error;
pub mod privacy;
pub mod resilience;
pub mod rng;
pub mod router;
pub mod server;
pub mod worker;

pub use chaos::{Fault, NodeFault, NodeFaultEvent, NodeSchedule, Scenario, ScenarioReport};
pub use controller::ModelController;
pub use dbgpt_llm::engine::EngineConfig;
pub use error::SmmfError;
pub use privacy::{DeploymentMode, Locality};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, HedgeConfig, ResilienceConfig, ResilienceMetrics,
    RetryConfig, ShedConfig,
};
pub use rng::SplitMix64;
pub use router::RoutingPolicy;
pub use server::ApiServer;
pub use worker::{ModelWorker, WorkerHealth, WorkerId, WorkerStats};

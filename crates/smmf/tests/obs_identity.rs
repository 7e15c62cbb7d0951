//! Byte-identity properties of the observability layer.
//!
//! Two guarantees, exercised end to end through the serving path (chat
//! with full resilience over a flaky fleet, then a batched `chat_many`
//! through the engine path):
//!
//! 1. **Off is free.** A server built with `ObsConfig::disabled()` — what
//!    every legacy constructor passes — produces byte-for-byte the same
//!    outcomes, clock advance and resilience metrics as one with
//!    observability enabled: recording must never perturb semantics.
//! 2. **On is deterministic.** Two enabled runs under the same seeds dump
//!    byte-identical trace JSON and metric snapshots.

use dbgpt_llm::catalog::builtin_model;
use dbgpt_llm::GenerationParams;
use dbgpt_obs::{ObsConfig, Span};
use dbgpt_smmf::{
    ApiServer, DeploymentMode, EngineConfig, Locality, ModelWorker, ResilienceConfig,
    RoutingPolicy,
};

fn flaky(id: &str, rate: f64, seed: u64) -> ModelWorker {
    ModelWorker::with_faults(id, builtin_model("sim-qwen").unwrap(), Locality::Local, rate, seed)
}

/// One mixed workload: 20 sequential chats against a flaky fleet under
/// full resilience (retries, breakers, hedging all live), then 6 batched
/// jobs with a shared prompt prefix through the engine path. Returns the
/// observable request semantics plus the server for trace inspection.
#[allow(clippy::type_complexity)]
fn run_workload(
    seed: u64,
    obs: ObsConfig,
) -> (Vec<Result<(String, u64), &'static str>>, u64, String, ApiServer) {
    let mut cfg = ResilienceConfig::full();
    cfg.deadline_budget_us = None; // let latencies vary instead of masking them
    let mut s = ApiServer::with_observability(
        DeploymentMode::Local,
        RoutingPolicy::Weighted,
        seed,
        cfg,
        EngineConfig::full(),
        obs,
    );
    for i in 0..3 {
        s.register_worker(flaky(&format!("w{i}"), 0.3, seed + i)).unwrap();
    }
    let mut outcomes = Vec::new();
    let params = GenerationParams::default();
    for _ in 0..20 {
        s.advance_clock(7_000);
        outcomes.push(
            s.chat("sim-qwen", "explain join ordering", &params, &Span::noop())
                .map(|c| (c.text, c.simulated_latency_us))
                .map_err(|e| e.kind()),
        );
    }
    let jobs: Vec<(String, GenerationParams)> = (0..6)
        .map(|i| {
            (
                format!("### system: data copilot\nshared prefix\nQ{i}: join ordering?"),
                GenerationParams::default(),
            )
        })
        .collect();
    for r in s.chat_many("sim-qwen", &jobs) {
        outcomes.push(
            r.map(|c| (c.text, c.simulated_latency_us)).map_err(|e| e.kind()),
        );
    }
    let now = s.now_us();
    let metrics = format!("{:?}", s.metrics());
    (outcomes, now, metrics, s)
}

#[test]
fn disabled_observability_is_byte_identical_to_enabled_semantics() {
    for seed in [1u64, 7, 23] {
        let (out_off, clock_off, metrics_off, s_off) =
            run_workload(seed, ObsConfig::disabled());
        let (out_on, clock_on, metrics_on, s_on) =
            run_workload(seed, ObsConfig::enabled(seed ^ 0x5a5a));
        assert_eq!(out_off, out_on, "seed {seed}: outcomes must match");
        assert_eq!(clock_off, clock_on, "seed {seed}: clock must match");
        assert_eq!(metrics_off, metrics_on, "seed {seed}: metrics must match");
        // The disabled handle recorded nothing; the enabled one did.
        assert_eq!(s_off.obs().span_count(), 0);
        assert!(s_on.obs().span_count() > 0);
        assert!(s_on.obs().counter_value("smmf.requests") >= 26);
    }
}

#[test]
fn legacy_constructor_and_disabled_observability_are_the_same_server() {
    let drive = |s: &mut ApiServer| {
        s.deploy_builtin("sim-qwen", 2).unwrap();
        (0..10)
            .map(|_| {
                s.advance_clock(2_500);
                s.chat("sim-qwen", "hello", &GenerationParams::default(), &Span::noop())
                    .map(|c| c.text)
                    .map_err(|e| e.kind())
            })
            .collect::<Vec<_>>()
    };
    let mut legacy = ApiServer::with_engine(
        DeploymentMode::Local,
        RoutingPolicy::RoundRobin,
        3,
        ResilienceConfig::full(),
        EngineConfig::disabled(),
    );
    let mut explicit = ApiServer::with_observability(
        DeploymentMode::Local,
        RoutingPolicy::RoundRobin,
        3,
        ResilienceConfig::full(),
        EngineConfig::disabled(),
        ObsConfig::disabled(),
    );
    assert_eq!(drive(&mut legacy), drive(&mut explicit));
    assert_eq!(legacy.now_us(), explicit.now_us());
    assert_eq!(format!("{:?}", legacy.metrics()), format!("{:?}", explicit.metrics()));
    assert!(!legacy.obs().is_enabled());
}

#[test]
fn enabled_runs_with_the_same_seeds_dump_identical_bytes() {
    let dump = || {
        let (_, _, _, s) = run_workload(11, ObsConfig::enabled(99));
        (s.obs().trace_json(), s.obs().metrics_json())
    };
    let (trace_a, metrics_a) = dump();
    let (trace_b, metrics_b) = dump();
    assert_eq!(trace_a, trace_b, "trace dumps must be byte-identical");
    assert_eq!(metrics_a, metrics_b, "metric snapshots must be byte-identical");
}

#[test]
fn observability_seed_tags_span_ids_but_not_metrics() {
    let (_, _, _, a) = run_workload(11, ObsConfig::enabled(1));
    let (_, _, _, b) = run_workload(11, ObsConfig::enabled(2));
    assert_eq!(
        a.obs().metrics_json(),
        b.obs().metrics_json(),
        "metrics reflect the workload, not the obs seed"
    );
    assert_ne!(
        a.obs().trace_json(),
        b.obs().trace_json(),
        "span-id blocks are derived from the obs seed"
    );
    assert_eq!(a.obs().span_count(), b.obs().span_count());
}

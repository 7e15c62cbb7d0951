//! End-to-end observability benchmark + gates (E10).
//!
//! One [`dbgpt_obs::Obs`] handle is threaded through the whole stack —
//! the SMMF serving layer, the server router, the chat2data and KBQA
//! apps, and the five-stage AWEL chat2data pipeline — and the workload is
//! driven in rounds against two declared SLOs (a p90 latency objective on
//! `smmf.request_latency_us` and an error-budget objective on the server
//! status counters). Mid-run a latency spike is injected into every
//! model replica; the fast burn-rate rule must fire while the spike
//! lasts and resolve after it is lifted.
//!
//! Gates:
//!
//! 1. **Identity**: observability disabled vs enabled must produce
//!    byte-identical request semantics, and the disabled handle must
//!    record nothing (so no SLO ever evaluates).
//! 2. **Determinism**: two enabled runs dump byte-identical trace JSON,
//!    metric snapshots, folded flamegraphs, hotspot tables, critical
//!    paths, SLO reports and alert logs.
//! 3. **One request, one trace**: a single chat2data pipeline run yields
//!    one trace tree spanning the apps, AWEL, RAG, Text-to-SQL,
//!    SQL-engine, model-client and serving crates.
//! 4. **Alert lifecycle**: the latency SLO fires under the injected
//!    spike, resolves after recovery, and the error-budget SLO stays
//!    quiet throughout.
//!
//! It prints the rendered flamegraph (folded stacks), the hotspot table,
//! the critical path of the last pipeline request, the SLO report and
//! the alert log, then emits `results/BENCH_obs_e2e.json` with the
//! per-stage self-µs breakdown and the alert-log digest.
//!
//! ```text
//! cargo run -p dbgpt-bench --release --bin bench_obs_e2e            # full
//! cargo run -p dbgpt-bench --release --bin bench_obs_e2e -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use std::fs;
use std::sync::Arc;

use dbgpt_agents::LlmClient;
use dbgpt_apps::handlers::build_server;
use dbgpt_apps::{AppContext, Chat2DataPipeline};
use dbgpt_obs::{Obs, ObsConfig, Profile, SloDef, SloEngine, Span};
use dbgpt_server::Request;
use dbgpt_smmf::{ApiServer, DeploymentMode, EngineConfig, ResilienceConfig, RoutingPolicy};

/// Seed for every run.
const SEED: u64 = 42;
/// The served model behind every app.
const MODEL: &str = "sim-qwen";
/// Workload rounds; one SLO snapshot per round.
const ROUNDS: usize = 20;
/// Rounds [SPIKE_START, SPIKE_END) run with every replica slowed 50×.
const SPIKE_START: usize = 6;
const SPIKE_END: usize = 12;
/// p90 latency target for `smmf.request_latency_us` (a default bucket
/// bound, so the SLO engine counts bad events exactly).
const LATENCY_TARGET_US: u64 = 2_500_000;

/// Everything a run produces: the byte-comparable request semantics plus
/// the observability artifacts derived from the shared handle.
struct RunOutput {
    /// Debug-formatted responses and replies — what obs must not change.
    semantics: String,
    obs: Obs,
    slo: SloEngine,
    /// Trace id of the last pipeline request (zeroed when obs disabled).
    last_pipeline_trace: Option<dbgpt_obs::SpanId>,
}

/// Build the full stack on one obs handle and drive the round workload.
fn run_stack(obs_cfg: ObsConfig) -> RunOutput {
    // Serving fleet. Hedging and deadlines are resilience-bench material;
    // here they would only re-route around the very spike the SLO exists
    // to observe, so the fleet keeps retries/breakers but races nothing.
    let cfg = ResilienceConfig {
        deadline_budget_us: None,
        hedge: None,
        ..ResilienceConfig::full()
    };
    let mut api = ApiServer::with_observability(
        DeploymentMode::Local,
        RoutingPolicy::RoundRobin,
        SEED,
        cfg,
        EngineConfig::full(),
        obs_cfg,
    );
    api.deploy_builtin(MODEL, 2).unwrap();
    let api = Arc::new(api);
    let obs = api.obs().clone();

    // Application layer: same handle, model calls routed through SMMF.
    let ctx = AppContext::local_default()
        .with_sales_demo_data()
        .with_llm(LlmClient::smmf(api.clone(), MODEL))
        .with_obs(obs.clone());
    ctx.kb.write().add_text(
        "orders-doc",
        "Orders record purchases. Each order has an amount and a category.",
    );
    let server = build_server(&ctx);
    let pipeline = Chat2DataPipeline::new(ctx);

    // Two SLOs: p90 request latency on the serving histogram, and the
    // server-layer error budget. Classic fast (1/6 @ 8×) + slow (6/24 @
    // 2×) burn rules, windows measured in round snapshots.
    let mut slo = SloEngine::new(vec![
        SloDef::latency("chat_latency_p90", "smmf.request_latency_us", 0.90, LATENCY_TARGET_US),
        SloDef::error_rate("server_errors", "server.status.error", "server.requests", 0.05),
    ]);

    let questions = [
        "how many orders are there?",
        "what is the total amount per category of orders?",
        "list all orders",
    ];
    let pipeline_questions = ["how many users are there?", "how many orders are there?"];

    let mut semantics = String::new();
    let mut last_pipeline_trace = None;
    for round in 0..ROUNDS {
        if round == SPIKE_START || round == SPIKE_END {
            let factor = if round == SPIKE_START { 50.0 } else { 1.0 };
            for w in api.controller().workers(MODEL).unwrap() {
                w.set_latency_factor(factor);
            }
        }
        api.advance_clock(250_000);
        let r1 = server.handle(
            &Request::new((round * 2) as u64, "chat2data", questions[round % questions.len()]),
            &Span::noop(),
        );
        let r2 = server.handle(
            &Request::new((round * 2 + 1) as u64, "kbqa", "what do orders record?"),
            &Span::noop(),
        );
        let reply = pipeline.run(pipeline_questions[round % pipeline_questions.len()]);
        let _ = writeln!(semantics, "round {round}: {r1:?} | {r2:?} | {reply:?}");
        last_pipeline_trace = obs
            .finished_spans()
            .iter()
            .rev()
            .find(|s| s.name == "app.chat2data.pipeline")
            .map(|s| s.trace);
        slo.push_snapshot(api.now_us(), &obs.metrics_snapshot());
    }
    let _ = writeln!(semantics, "clock {}us | {:?}", api.now_us(), api.metrics());

    RunOutput {
        semantics,
        obs,
        slo,
        last_pipeline_trace,
    }
}

/// The byte artifacts the determinism gate compares.
fn artifacts(run: &RunOutput) -> (String, String, String, String, String, String, String) {
    let spans = run.obs.finished_spans();
    let profile = Profile::from_spans(&spans);
    let cp = run
        .last_pipeline_trace
        .and_then(|t| profile.critical_path(t))
        .map(|c| c.render())
        .unwrap_or_default();
    (
        run.obs.trace_json(),
        run.obs.metrics_json(),
        profile.folded(),
        profile.hotspot_table(),
        cp,
        run.slo.report(),
        run.slo.alert_log(),
    )
}

/// The sweep, callable from `main` (and reusable from harnesses).
pub fn run(smoke: bool, out_path: &str) {
    let mode = if smoke { "smoke" } else { "full" };
    println!("BENCH obs_e2e ({mode})");
    println!(
        "  {ROUNDS} rounds (spike on [{SPIKE_START}, {SPIKE_END})), seed = {SEED}, \
         simulated clock (deterministic)"
    );

    // Gate 1: observability must be invisible to request semantics.
    let off = run_stack(ObsConfig::disabled());
    let on = run_stack(ObsConfig::enabled(SEED));
    assert_eq!(off.semantics, on.semantics, "enabled observability changed the workload");
    assert_eq!(off.obs.span_count(), 0, "disabled obs must record nothing");
    assert_eq!(off.slo.alert_log(), "", "no metrics, no alerts");

    // Gate 2: enabled runs are deterministic, byte for byte.
    let on2 = run_stack(ObsConfig::enabled(SEED));
    assert_eq!(
        artifacts(&on),
        artifacts(&on2),
        "trace/metrics/flamegraph/critical-path/SLO bytes must be reproducible"
    );

    // Gate 3: one pipeline request is one trace tree spanning the stack.
    let spans = on.obs.finished_spans();
    let trace = on.last_pipeline_trace.expect("pipeline ran");
    let in_trace: Vec<_> = spans.iter().filter(|s| s.trace == trace).collect();
    assert_eq!(
        in_trace.iter().filter(|s| s.parent.is_none()).count(),
        1,
        "one request, one root"
    );
    for prefix in [
        "app.chat2data.pipeline",
        "awel.dag",
        "awel.op",
        "rag.retrieve",
        "t2s.generate",
        "sql.execute",
        "smmf.chat",
    ] {
        assert!(
            in_trace.iter().any(|s| s.name.starts_with(prefix)),
            "pipeline trace is missing a {prefix} span"
        );
    }

    // Gate 4: the latency SLO fires under the spike and resolves after;
    // the error budget stays quiet.
    let log = on.slo.alert_log();
    assert!(
        log.contains("slo=chat_latency_p90") && log.contains("FIRING"),
        "latency SLO must fire under the injected spike:\n{log}"
    );
    assert!(log.contains("resolved"), "alert must resolve after recovery:\n{log}");
    assert!(!log.contains("slo=server_errors"), "error budget must stay quiet:\n{log}");
    assert_eq!(on.slo.firing_count(), 0, "nothing still firing at the end");

    let profile = Profile::from_spans(&spans);
    println!("\n  flamegraph (folded stacks, count it with any flamegraph tool):");
    for line in profile.folded().lines() {
        println!("    {line}");
    }
    println!("\n  hotspots (self-µs):");
    for line in profile.hotspot_table().lines() {
        println!("    {line}");
    }
    println!("\n  critical path of the last chat2data pipeline request:");
    let cp = profile.critical_path(trace).expect("pipeline trace has a path");
    for line in cp.render().lines() {
        println!("    {line}");
    }
    println!("\n  SLO report (end of run):");
    for line in on.slo.report().lines() {
        println!("    {line}");
    }
    println!("\n  alert log:");
    for line in log.lines() {
        println!("    {line}");
    }

    let counters = [
        "server.requests",
        "server.status.ok",
        "app.chat2data.requests",
        "app.kbqa.requests",
        "app.pipeline.requests",
        "awel.runs",
        "awel.ops_run",
        "rag.queries",
        "t2s.requests",
        "sql.statements",
        "smmf.requests",
    ];
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"obs_e2e\",\n  \"mode\": \"{mode}\",\n  \
         \"generated_by\": \"cargo run -p dbgpt-bench --release --bin bench_obs_e2e\",\n  \
         \"seed\": {SEED},\n  \"rounds\": {ROUNDS},\n  \
         \"spike_rounds\": [{SPIKE_START}, {SPIKE_END}],\n  \
         \"latency_target_us\": {LATENCY_TARGET_US},\n  \
         \"gates\": [\"disabled == enabled semantics\", \
         \"enabled runs dump identical bytes\", \
         \"one pipeline request spans >= 4 crates in one trace\", \
         \"latency SLO fires under spike and resolves\"],\n  \
         \"spans\": {},\n  \"traces\": {},\n  \"counters\": {{\n",
        on.obs.span_count(),
        on.obs.trace_ids().len(),
    );
    for (i, name) in counters.iter().enumerate() {
        let _ = write!(json, "    \"{name}\": {}", on.obs.counter_value(name));
        json.push_str(if i + 1 < counters.len() { ",\n" } else { "\n" });
    }
    json.push_str("  },\n  \"stage_self_us\": [\n");
    let hot = profile.hotspots();
    for (i, h) in hot.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"stage\": \"{}\", \"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
            h.name, h.count, h.total_us, h.self_us
        );
        json.push_str(if i + 1 < hot.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"alerts\": [\n");
    let alerts: Vec<_> = log.lines().collect();
    for (i, line) in alerts.iter().enumerate() {
        let _ = write!(json, "    \"{line}\"");
        json.push_str(if i + 1 < alerts.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    fs::create_dir_all("results").ok();
    fs::write(out_path, json).expect("write results file");
    println!("\n  identity + determinism + trace + SLO gates passed");
    println!("  wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_override = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());
    let out_path = out_override.unwrap_or_else(|| {
        if smoke {
            "results/BENCH_obs_e2e_smoke.json".to_string()
        } else {
            "results/BENCH_obs_e2e.json".to_string()
        }
    });
    run(smoke, &out_path);
}

//! Observability-layer benchmark + gates (E9).
//!
//! Drives one mixed serving workload — sequential chats over a fleet with
//! a spiked replica (so hedging fires), a batched `chat_many` through the
//! continuous-batching engine, and RAG retrievals sharing the same
//! [`dbgpt_obs::Obs`] handle — three ways:
//!
//! 1. **Identity gate**: observability disabled vs enabled must produce
//!    byte-identical outcomes, clock advance and resilience metrics.
//! 2. **Determinism gate**: two enabled runs must dump byte-identical
//!    trace JSON and metric snapshots.
//! 3. **Overhead**: wall-clock cost per request, disabled vs enabled
//!    (printed only — the committed JSON stays deterministic).
//!
//! It also prints the rendered trace tree of a hedged request and of the
//! batched `chat_many` drain — the debugging view the obs crate exists
//! for — and emits `results/BENCH_obs.json`.
//!
//! ```text
//! cargo run -p dbgpt-bench --release --bin bench_obs            # full
//! cargo run -p dbgpt-bench --release --bin bench_obs -- --smoke # CI gate
//! ```

use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

use dbgpt_llm::GenerationParams;
use dbgpt_obs::render::render_metrics;
use dbgpt_obs::{ObsConfig, Span};
use dbgpt_rag::knowledge::KnowledgeBase;
use dbgpt_rag::retriever::RetrievalStrategy;
use dbgpt_smmf::{
    ApiServer, DeploymentMode, EngineConfig, HedgeConfig, ResilienceConfig, RoutingPolicy,
};

/// Seed for every run.
const SEED: u64 = 42;

/// What one workload run looks like from the caller's side — everything
/// observability must NOT change.
type Semantics = (Vec<Result<(String, u64), &'static str>>, u64, String);

/// Run the mixed workload; return its semantics plus the server and
/// knowledge base (for trace/metric inspection).
fn run_workload(chats: usize, batch: usize, obs: ObsConfig) -> (Semantics, ApiServer, KnowledgeBase) {
    let cfg = ResilienceConfig {
        hedge: Some(HedgeConfig { delay_us: 50_000 }),
        deadline_budget_us: None,
        ..ResilienceConfig::full()
    };
    let mut s = ApiServer::with_observability(
        DeploymentMode::Local,
        RoutingPolicy::LeastLatency,
        SEED,
        cfg,
        EngineConfig::full(),
        obs,
    );
    s.deploy_builtin("sim-qwen", 3).unwrap();
    // Spike replica w0: least-latency dispatches to it first (all cold),
    // its slow response exceeds the hedge delay, and the hedge races a
    // healthy sibling — every first chat produces a hedged trace.
    s.controller().workers("sim-qwen").unwrap()[0].set_latency_factor(100.0);

    let mut kb = KnowledgeBase::with_defaults();
    kb.set_obs(s.obs().clone());
    kb.add_text("awel", "AWEL composes agents into directed acyclic graphs.");
    kb.add_text("smmf", "SMMF keeps model serving private, local and observable.");
    kb.add_text("rag", "Retrieval augmented generation enriches prompts with context.");

    let mut outcomes = Vec::new();
    for i in 0..chats {
        s.advance_clock(5_000);
        let hits = kb.retrieve("model serving context", 2, RetrievalStrategy::Hybrid);
        let prompt = format!(
            "### context: {}\nQ{i}: explain join ordering",
            hits.first().map(|h| h.chunk.text.as_str()).unwrap_or("")
        );
        outcomes.push(
            s.chat("sim-qwen", &prompt, &GenerationParams::default(), &Span::noop())
                .map(|c| (c.text, c.simulated_latency_us))
                .map_err(|e| e.kind()),
        );
    }
    let jobs: Vec<(String, GenerationParams)> = (0..batch)
        .map(|i| {
            (
                format!("### system: data copilot\nshared prefix\nQ{i}: join ordering?"),
                GenerationParams::default(),
            )
        })
        .collect();
    for r in s.chat_many("sim-qwen", &jobs) {
        outcomes.push(r.map(|c| (c.text, c.simulated_latency_us)).map_err(|e| e.kind()));
    }
    let now = s.now_us();
    let metrics = format!("{:?}", s.metrics());
    ((outcomes, now, metrics), s, kb)
}

/// The sweep, callable from `main` (and reusable from harnesses).
pub fn run(smoke: bool, out_path: &str) {
    let (chats, batch, reps, mode) = if smoke {
        (8usize, 6usize, 20u32, "smoke")
    } else {
        (40usize, 16usize, 200u32, "full")
    };
    println!("BENCH obs ({mode})");
    println!("  {chats} chats + {batch} batched jobs, seed = {SEED}, simulated clock (deterministic)");

    // Gate 1: observability must be invisible to request semantics.
    let (sem_off, s_off, _) = run_workload(chats, batch, ObsConfig::disabled());
    let (sem_on, s_on, _) = run_workload(chats, batch, ObsConfig::enabled(SEED));
    assert_eq!(sem_off, sem_on, "enabled observability changed the workload");
    assert_eq!(s_off.obs().span_count(), 0, "disabled obs must record nothing");

    // Gate 2: enabled runs are deterministic, byte for byte — the trace
    // dump, the metrics snapshot (JSON and rendered table), and the
    // snapshot structure itself.
    let (_, s_on2, _) = run_workload(chats, batch, ObsConfig::enabled(SEED));
    assert_eq!(s_on.obs().trace_json(), s_on2.obs().trace_json(), "trace dumps must be reproducible");
    assert_eq!(s_on.obs().metrics_json(), s_on2.obs().metrics_json(), "metric snapshots must be reproducible");
    assert_eq!(s_on.obs().metrics_snapshot(), s_on2.obs().metrics_snapshot(), "snapshot structures must match");
    assert_eq!(
        render_metrics(&s_on.obs().metrics_snapshot()),
        render_metrics(&s_on2.obs().metrics_snapshot()),
        "rendered metric tables must be reproducible"
    );
    for q in ["\"p50\":", "\"p90\":", "\"p99\":"] {
        assert!(s_on.obs().metrics_json().contains(q), "snapshot JSON must carry {q} quantiles");
    }

    // Overhead: wall-clock per request, disabled vs enabled. Printed only;
    // the committed JSON stays deterministic.
    let time_per_request = |obs: ObsConfig| {
        let t = Instant::now();
        for _ in 0..reps {
            let _ = run_workload(chats, batch, obs);
        }
        t.elapsed().as_nanos() as f64 / (reps as f64 * (chats + batch) as f64)
    };
    let ns_off = time_per_request(ObsConfig::disabled());
    let ns_on = time_per_request(ObsConfig::enabled(SEED));
    println!(
        "\n  wall-clock/request: disabled {:.0} ns, enabled {:.0} ns ({:+.1}%)",
        ns_off,
        ns_on,
        100.0 * (ns_on - ns_off) / ns_off
    );

    // The debugging view: a hedged request's trace tree, then the batched
    // chat_many drain under the engine.
    let spans = s_on.obs().finished_spans();
    let hedged_trace = spans
        .iter()
        .find(|r| r.name == "smmf.hedge")
        .map(|r| r.trace)
        .expect("the spiked replica must force at least one hedge");
    println!("\n  trace: hedged chat request");
    for line in s_on.obs().render_trace(hedged_trace).lines() {
        println!("    {line}");
    }
    let batched_trace = spans
        .iter()
        .find(|r| r.name == "smmf.chat_many")
        .map(|r| r.trace)
        .expect("chat_many must open a root span");
    println!("\n  trace: batched chat_many drain");
    for line in s_on.obs().render_trace(batched_trace).lines() {
        println!("    {line}");
    }

    let obs = s_on.obs();
    let counters = [
        "smmf.requests",
        "smmf.hedges",
        "smmf.hedge_wins",
        "smmf.retries",
        "llm.engine.succeeded",
        "llm.engine.steps",
        "llm.prefix_cache.hit_tokens",
        "rag.queries",
        "rag.chunks_scanned",
    ];
    println!("\n  {:<28} {:>12}", "counter", "value");
    println!("  {}", "-".repeat(42));
    for name in counters {
        println!("  {:<28} {:>12}", name, obs.counter_value(name));
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"obs\",\n  \"mode\": \"{mode}\",\n  \
         \"generated_by\": \"cargo run -p dbgpt-bench --release --bin bench_obs\",\n  \
         \"seed\": {SEED},\n  \"chats\": {chats},\n  \"batched_jobs\": {batch},\n  \
         \"gates\": [\"disabled == enabled semantics\", \"enabled runs dump identical bytes\", \
         \"disabled handle records zero spans\"],\n  \
         \"spans\": {},\n  \"traces\": {},\n  \"counters\": {{\n",
        obs.span_count(),
        obs.trace_ids().len(),
    );
    for (i, name) in counters.iter().enumerate() {
        let _ = write!(json, "    \"{name}\": {}", obs.counter_value(name));
        json.push_str(if i + 1 < counters.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");
    fs::create_dir_all("results").ok();
    fs::write(out_path, json).expect("write results file");
    println!("\n  identity + determinism gates passed");
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
            "results/BENCH_obs_smoke.json".to_string()
        } else {
            "results/BENCH_obs.json".to_string()
        }
    });
    run(smoke, &out_path);
}

//! Byte-identity properties of cross-crate span propagation.
//!
//! The companion of `crates/smmf/tests/obs_identity.rs`, one layer up:
//! the application, AWEL, agent and SQL-engine paths instrumented by the
//! end-to-end tracing work. Three guarantees:
//!
//! 1. **Off records nothing.** With `Obs::disabled()` (what every plain
//!    constructor passes) and no-op caller spans, the entry points record
//!    no span and no metric.
//! 2. **On never perturbs.** Enabling observability changes no app
//!    semantics — replies, errors and row data are identical to a
//!    disabled run.
//! 3. **On is deterministic.** Two enabled runs under the same seeds dump
//!    byte-identical trace JSON, metric snapshots, folded flamegraphs and
//!    critical paths — and one chat2data pipeline request yields exactly
//!    one trace tree spanning the apps, AWEL, RAG, Text-to-SQL,
//!    SQL-engine and model layers.

use dbgpt_agents::{LlmClient, Orchestrator};
use dbgpt_apps::handlers::build_server;
use dbgpt_apps::{AppContext, Chat2Data, Chat2DataPipeline, KnowledgeQa};
use dbgpt_awel::{ops, DagBuilder, ExecutionMode, Scheduler};
use dbgpt_llm::catalog::builtin_model;
use dbgpt_obs::{Obs, ObsConfig, Profile, Span};
use dbgpt_server::Request;
use serde_json::json;

fn demo_ctx(obs: Obs) -> AppContext {
    let ctx = AppContext::local_default()
        .with_sales_demo_data()
        .with_obs(obs);
    ctx.kb.write().add_text(
        "orders-doc",
        "Orders record purchases. Each order has an amount and a category.",
    );
    ctx
}

/// Drive every instrumented app path once (including error paths), plus
/// a plain AWEL DAG in both modes and an agent goal, and return the
/// Debug-formatted outcomes — the byte-comparable semantics.
fn run_apps_workload(obs: Obs) -> String {
    let ctx = demo_ctx(obs.clone());
    let c2d = Chat2Data::new(ctx.clone());
    let qa = KnowledgeQa::new(ctx.clone());
    let pipe = Chat2DataPipeline::new(ctx);
    let none = Span::noop();
    let mut out = String::new();
    for q in [
        "how many orders are there?",
        "what is the total amount per category of orders?",
        "list all orders",
        "how many unicorns are there?", // Text-to-SQL error path
    ] {
        out.push_str(&format!("{:?}\n", c2d.ask(q, &none)));
    }
    out.push_str(&format!("{:?}\n", qa.ask("what do orders record?", &none)));
    out.push_str(&format!("{:?}\n", pipe.run("how many users are there?")));
    out.push_str(&format!("{:?}\n", pipe.run("   "))); // intent error path
    let dag = DagBuilder::new("wf")
        .node("a", ops::map(|v| json!(v.as_i64().unwrap_or(0) + 1)))
        .node("b", ops::map(|v| json!(v.as_i64().unwrap_or(0) * 2)))
        .edge("a", "b")
        .build()
        .unwrap();
    let scheduler = Scheduler::with_obs(obs.clone());
    for mode in [ExecutionMode::Batch, ExecutionMode::Async] {
        let r = scheduler.run(&dag, json!(20), mode, &none).unwrap();
        out.push_str(&format!("{:?} {:?}\n", r.sole_output(), r.skipped));
    }
    let goal =
        "Build sales reports and analyze user orders from at least three distinct dimensions";
    let llm = LlmClient::direct(builtin_model("sim-qwen").unwrap());
    let report = Orchestrator::new(llm).with_obs(obs).execute_goal(goal, &none);
    out.push_str(&format!("{report:?}\n"));
    out
}

#[test]
fn enabling_observability_never_perturbs_app_semantics() {
    let off = Obs::disabled();
    let on = Obs::new(ObsConfig::enabled(7));
    assert_eq!(run_apps_workload(off.clone()), run_apps_workload(on.clone()));
    assert_eq!(off.span_count(), 0, "disabled handle records nothing");
    assert!(on.span_count() > 0, "enabled handle records the same runs");
    assert!(on.counter_value("app.chat2data.requests") >= 4);
    assert!(on.counter_value("app.chat2data.errors") >= 1);
    assert!(on.counter_value("app.kbqa.requests") >= 1);
    assert!(on.counter_value("app.pipeline.requests") >= 2);
    // Two pipeline DAG runs plus the plain DAG in batch and async mode.
    assert_eq!(on.counter_value("awel.runs"), 4);
    assert_eq!(on.counter_value("agents.goals"), 1);
    assert!(on.counter_value("agents.messages") > 0);
}

#[test]
fn enabled_runs_dump_identical_bytes_across_the_stack() {
    let run = || {
        let obs = Obs::new(ObsConfig::enabled(11));
        let ctx = demo_ctx(obs.clone());
        let server = build_server(&ctx);
        for (i, q) in [
            "how many orders are there?",
            "what is the total amount per category of orders?",
        ]
        .iter()
        .enumerate()
        {
            server.handle(&Request::new(i as u64, "chat2data", *q), &Span::noop());
        }
        server.handle(&Request::new(9, "kbqa", "what do orders record?"), &Span::noop());
        Chat2DataPipeline::new(ctx)
            .run("how many users are there?")
            .unwrap();
        let spans = obs.finished_spans();
        let profile = Profile::from_spans(&spans);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap().id;
        (
            obs.trace_json(),
            obs.metrics_json(),
            profile.folded(),
            profile.critical_path(root).unwrap().render(),
        )
    };
    assert_eq!(run(), run(), "trace/metrics/flamegraph/critical-path bytes");
}

#[test]
fn one_pipeline_request_yields_one_trace_spanning_the_stack() {
    let obs = Obs::new(ObsConfig::enabled(21));
    let ctx = demo_ctx(obs.clone());
    let pipe = Chat2DataPipeline::new(ctx);
    pipe.run("how many orders are there?").unwrap();
    let spans = obs.finished_spans();
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one request, one trace tree");
    let trace = roots[0].trace;
    assert!(
        spans.iter().all(|s| s.trace == trace),
        "every span joins the request trace"
    );
    // ≥4 crates in one tree: apps, AWEL, RAG, Text-to-SQL, SQL engine,
    // and the model client.
    for prefix in [
        "app.chat2data.pipeline",
        "awel.dag",
        "awel.op",
        "rag.retrieve",
        "t2s.generate",
        "sql.execute",
        "llm.generate",
    ] {
        assert!(
            spans.iter().any(|s| s.name.starts_with(prefix)),
            "missing {prefix} span in\n{}",
            obs.render_traces()
        );
    }
    let profile = Profile::from_spans(&spans);
    let cp = profile.critical_path(trace).unwrap();
    assert!(cp.hops.len() >= 3, "critical path descends into the stack");
}

#[test]
fn server_requests_parent_app_spans_and_count_commands() {
    let obs = Obs::new(ObsConfig::enabled(31));
    let ctx = demo_ctx(obs.clone());
    let server = build_server(&ctx);
    server.handle(&Request::new(1, "chat2data", "how many orders are there?"), &Span::noop());
    server.handle(&Request::new(2, "ghost", "x"), &Span::noop());
    let spans = obs.finished_spans();
    let req = spans
        .iter()
        .find(|s| s.name == "server.request" && s.attr("app") == Some("chat2data"))
        .expect("server.request span");
    assert!(
        spans
            .iter()
            .any(|s| s.name == "app.chat2data" && s.parent == Some(req.id)),
        "app span nests under the request span"
    );
    assert_eq!(obs.counter_value("server.requests"), 2);
    assert_eq!(obs.counter_value("server.cmd.chat2data"), 1);
    assert_eq!(obs.counter_value("server.cmd.ghost"), 1);
    assert_eq!(obs.counter_value("server.status.ok"), 1);
    assert_eq!(obs.counter_value("server.status.bad_request"), 1);
}

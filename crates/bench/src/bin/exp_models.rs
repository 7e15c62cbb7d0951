//! Experiment: the model zoo's trade-offs — the demo's "visitors can also
//! choose local models such as Qwen and GLM" (§3) made quantitative.
//!
//! For every built-in model: context window, chat template, simulated
//! serving profile (TTFT / decode rate), multilinguality, whether the
//! Local privacy mode admits it, and an end-to-end KBQA sanity answer.
//!
//! ```text
//! cargo run -p dbgpt-bench --bin exp_models --release
//! ```

use dbgpt_llm::catalog::{builtin_spec, BUILTIN_MODELS};
use dbgpt_smmf::{ApiServer, DeploymentMode};
use dbgpt_apps::{AppContext, KnowledgeQa};
use dbgpt_agents::LlmClient;
use dbgpt_obs::Span;
use std::sync::Arc;

fn main() {
    println!("Experiment: the simulated model zoo");
    println!("===================================\n");
    println!(
        "{:<12} | {:>7} | {:<7} | {:>9} | {:>8} | {:>5} | {:>13}",
        "model", "window", "format", "ttft(ms)", "tok/s", "zh", "local-private"
    );
    println!("{}", "-".repeat(78));
    for name in BUILTIN_MODELS {
        let spec = builtin_spec(name).expect("builtin");
        let format = format!("{:?}", spec.prompt_format);
        // Does the Local deployment admit this model?
        let mut local = ApiServer::new(DeploymentMode::Local);
        let private_ok = local.deploy_builtin(name, 1).is_ok();
        println!(
            "{:<12} | {:>7} | {:<7} | {:>9.0} | {:>8.1} | {:>5} | {:>13}",
            name,
            spec.context_window,
            format,
            spec.latency.ttft_us(256) as f64 / 1000.0,
            spec.latency.decode_tokens_per_sec(),
            if spec.multilingual { "✓" } else { "✗" },
            if private_ok { "✓" } else { "✗ (remote)" },
        );
    }

    println!("\nEnd-to-end KBQA per deployable model (same question, same corpus):");
    for name in BUILTIN_MODELS {
        // Deploy under the least restrictive mode the model accepts.
        let mut server = ApiServer::new(DeploymentMode::Cloud);
        server.deploy_builtin(name, 1).expect("cloud admits all");
        let ctx = AppContext::local_default()
            .with_llm(LlmClient::smmf(Arc::new(server), name.to_string()));
        let qa = KnowledgeQa::new(ctx);
        qa.ingest(
            "doc",
            "The AWEL protocol layer schedules agent workflows as DAGs.",
        );
        match qa.ask("what schedules agent workflows?", &Span::noop()) {
            Ok(r) => println!("  {name:<12} → {}", r.answer.lines().next().unwrap_or("")),
            Err(e) => println!("  {name:<12} → ERROR: {e}"),
        }
    }
}

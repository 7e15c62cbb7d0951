//! Experiment **E2**: SMMF serving — routing policies, replica scaling,
//! and failover under injected faults.
//!
//! ```text
//! cargo run -p dbgpt-bench --bin exp_smmf --release
//! ```

use std::time::Instant;

use dbgpt_llm::{builtin_model, GenerationParams};
use dbgpt_obs::Span;
use dbgpt_smmf::{ApiServer, DeploymentMode, Locality, ModelWorker, RoutingPolicy};

const REQUESTS: usize = 300;

fn run_requests(server: &ApiServer, model: &str) -> (usize, u64) {
    let params = GenerationParams::default();
    let mut ok = 0usize;
    let mut simulated_us = 0u64;
    for i in 0..REQUESTS {
        let prompt = format!("summarize report number {i} about quarterly sales figures");
        if let Ok(c) = server.chat(model, &prompt, &params, &Span::noop()) {
            ok += 1;
            simulated_us += c.simulated_latency_us;
        }
    }
    (ok, simulated_us)
}

fn main() {
    println!("Experiment E2: SMMF routing, scaling and failover");
    println!("=================================================\n");

    // Part A: routing policy × replica count.
    println!("A. policy × replicas ({REQUESTS} requests each)");
    println!(
        "  {:<14} | {:>8} | {:>10} | {:>16} | {:>14}",
        "policy", "replicas", "success", "sim µs/request", "wall µs/req"
    );
    println!("  {}", "-".repeat(74));
    for &policy in RoutingPolicy::ALL {
        for replicas in [1usize, 2, 4, 8] {
            let mut server = ApiServer::with_policy(DeploymentMode::Local, policy, 7);
            server.deploy_builtin("sim-qwen", replicas).expect("deploys");
            let wall = Instant::now();
            let (ok, sim_us) = run_requests(&server, "sim-qwen");
            let wall_us = wall.elapsed().as_micros() as f64 / REQUESTS as f64;
            println!(
                "  {:<14} | {:>8} | {:>9.1}% | {:>16} | {:>14.1}",
                policy.name(),
                replicas,
                ok as f64 / REQUESTS as f64 * 100.0,
                sim_us / REQUESTS as u64,
                wall_us
            );
        }
    }

    // Part B: failover under injected faults.
    println!("\nB. failover with faulty replicas (4 workers, varying fault rate)");
    println!("  {:<12} | {:>10} | {:>12}", "fault rate", "success", "note");
    println!("  {}", "-".repeat(44));
    for fault_rate in [0.0, 0.2, 0.5, 0.9] {
        let mut server = ApiServer::with_policy(DeploymentMode::Local, RoutingPolicy::RoundRobin, 7);
        for i in 0..4 {
            let w = ModelWorker::with_faults(
                format!("w{i}"),
                builtin_model("sim-qwen").expect("builtin"),
                Locality::Local,
                fault_rate,
                i,
            );
            server.register_worker(w).expect("registers");
        }
        let (ok, _) = run_requests(&server, "sim-qwen");
        let note = if ok == REQUESTS {
            "failover hides all faults"
        } else {
            "some requests exhausted retries"
        };
        println!(
            "  {:<12.1} | {:>9.1}% | {note}",
            fault_rate,
            ok as f64 / REQUESTS as f64 * 100.0
        );
    }

    // Part C: the privacy boundary.
    println!("\nC. privacy enforcement");
    let mut local = ApiServer::new(DeploymentMode::Local);
    let remote = ModelWorker::with_faults(
        "remote-w0",
        builtin_model("proxy-gpt").expect("builtin"),
        Locality::Remote,
        0.0,
        0,
    );
    match local.register_worker(remote) {
        Err(e) => println!("  Local mode rejected a remote worker: {e}"),
        Ok(_) => println!("  UNEXPECTED: remote worker admitted in Local mode"),
    }
}

//! AWEL in all three styles: the fluent builder, the declarative DSL, and
//! the three execution modes (batch / stream / async) — paper §2.4.
//!
//! ```text
//! cargo run -p dbgpt --example awel_workflow
//! ```

use dbgpt::awel::{ops, parse_dsl, DagBuilder, ExecutionMode, OperatorRegistry, Scheduler};
use dbgpt::obs::Span;
use serde_json::json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scheduler = Scheduler::new();

    // ---- 1. Builder style: a branching ETL-ish workflow ----
    let dag = DagBuilder::new("etl")
        .node("parse", ops::map(|v| json!(v.as_str().unwrap_or("").len() as i64)))
        .node("classify", ops::branch(|v| v.as_i64().unwrap_or(0) > 10))
        .node("long_path", ops::map(|v| json!(format!("LONG:{v}"))))
        .node("short_path", ops::map(|v| json!(format!("short:{v}"))))
        .edge("parse", "classify")
        .edge_labeled("classify", "long_path", "true")
        .edge_labeled("classify", "short_path", "false")
        .build()?;
    println!("-- builder workflow ({} nodes) --", dag.node_count());
    for input in ["hi", "a considerably longer record"] {
        let run = scheduler.run_batch(&dag, json!(input))?;
        println!("  {input:?} → {:?} (skipped: {:?})", run.leaf_outputs(), run.skipped);
    }

    // ---- 2. DSL style: the Fig. 3 analysis topology in four lines ----
    let mut registry = OperatorRegistry::with_builtins();
    registry.register("plan", ops::identity());
    registry.register("chart", ops::map(|v| json!(format!("chart({v})"))));
    let dsl = "dag sales_report {\n\
        node c_category = chart;\n\
        node c_user = chart;\n\
        node c_month = chart;\n\
        plan >> [c_category, c_user, c_month] >> join;\n\
    }";
    let dag = parse_dsl(dsl, &registry)?;
    println!("\n-- DSL workflow --\n{}", dag.to_dot());
    let run = scheduler.run_batch(&dag, json!("sales-goal"))?;
    println!("  aggregate received: {}", run.outputs["join"]);

    // ---- 3. Stream + async modes ----
    let pipeline = DagBuilder::new("scores")
        .node("normalize", ops::map(|v| json!(v.as_f64().unwrap_or(0.0) / 100.0)))
        .node("grade", ops::map(|v| {
            let x = v.as_f64().unwrap_or(0.0);
            json!(if x > 0.9 { "A" } else if x > 0.7 { "B" } else { "C" })
        }))
        .edge("normalize", "grade")
        .build()?;
    println!("\n-- stream mode over 5 events --");
    let runs = scheduler.run_stream(
        &pipeline,
        [95, 72, 88, 55, 91].map(|s| json!(s)),
        &Span::noop(),
    )?;
    let grades: Vec<String> = runs
        .iter()
        .map(|r| r.sole_output().unwrap().as_str().unwrap().to_string())
        .collect();
    println!("  grades: {grades:?}");

    let batch = scheduler.run(&pipeline, json!(84), ExecutionMode::Batch, &Span::noop())?;
    let parallel = scheduler.run(&pipeline, json!(84), ExecutionMode::Async, &Span::noop())?;
    println!("\n-- async mode agrees with batch: {} --", batch.outputs == parallel.outputs);
    Ok(())
}

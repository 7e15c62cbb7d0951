//! Set-up: the system under test, built from a workload's inputs.

use std::sync::Arc;

use dbgpt_apps::handlers::build_server;
use dbgpt_apps::{AppContext, Chat2DataPipeline, KnowledgeQa};
use dbgpt_server::{AppHandler, Server, ServerError, Session};
use parking_lot::RwLock;
use serde_json::{json, Value};

use crate::gen::{own_row_id, own_row_insert, Inputs, Workload, CONNS, ORDERS, OWN_ROWS};

/// The system under test: one context behind one server.
pub struct System {
    /// The shared application context.
    pub ctx: AppContext,
    /// `build_server` over the context, plus the benchmark's two handlers.
    pub server: Arc<Server>,
}

/// Serves the AWEL `Chat2DataPipeline`, which no server app exposes.
pub struct PipelineHandler(pub Chat2DataPipeline);

impl AppHandler for PipelineHandler {
    fn app_name(&self) -> &str {
        "pipeline"
    }
    fn handle(
        &self,
        input: &str,
        _: &Value,
        _: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        let r = self
            .0
            .run(input)
            .map_err(|e| ServerError::Handler(e.to_string()))?;
        let content = json!({
            "answer": r.answer.clone(),
            "narrative": r.narrative,
            "sql": r.sql,
            "data": r.data,
            "context_chunks": r.context_chunks,
        });
        Ok((content, Some(r.answer)))
    }
}

/// Ingests the request's text as document `params.id` through
/// `KnowledgeQa::ingest`.
pub struct IngestHandler(pub KnowledgeQa);

impl AppHandler for IngestHandler {
    fn app_name(&self) -> &str {
        "ingest"
    }
    fn handle(
        &self,
        input: &str,
        params: &Value,
        _: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        let id = params["id"]
            .as_str()
            .ok_or_else(|| ServerError::BadRequest("ingest needs params.id".into()))?;
        let chunks = self.0.ingest(id, input);
        Ok((json!({ "id": id, "chunks": chunks }), None))
    }
}

/// The benchmark's own handlers over a context.
pub fn extra_handlers(ctx: &AppContext) -> [Arc<dyn AppHandler>; 2] {
    [
        Arc::new(PipelineHandler(Chat2DataPipeline::new(ctx.clone()))),
        Arc::new(IngestHandler(KnowledgeQa::new(ctx.clone()))),
    ]
}

impl System {
    /// Build the context, load the data, build the indexes and the server:
    /// everything before the first request can be served.
    pub fn build(inputs: &Inputs) -> System {
        let ctx = match inputs.workload {
            Workload::DemoMix => AppContext::local_default().with_sales_demo_data(),
            Workload::KbQa => AppContext::local_default(),
            Workload::SqlAnalytics => {
                let engine = dbgpt_bench::orders_engine(ORDERS, inputs.seed);
                let ctx = AppContext {
                    engine: Arc::new(RwLock::new(engine)),
                    ..AppContext::local_default()
                };
                let mut setup = vec!["CREATE INDEX idx_orders_id ON orders (id)".to_string()];
                for conn in 0..CONNS {
                    for k in 0..OWN_ROWS {
                        setup.push(own_row_insert(own_row_id(conn, k), k as i64));
                    }
                }
                let setup: Vec<&str> = setup.iter().map(String::as_str).collect();
                ctx.seed_sql(&setup).expect("set-up SQL is valid");
                ctx
            }
        };
        {
            let mut kb = ctx.kb.write();
            for d in &inputs.docs[..inputs.base_docs] {
                kb.add_text(&d.id, &d.text);
            }
        }
        let mut server = build_server(&ctx);
        for h in extra_handlers(&ctx) {
            server.register(h);
        }
        System {
            ctx,
            server: Arc::new(server),
        }
    }

    /// The seeded orders rows as loaded (`sql_analytics`), for the oracle.
    pub fn seeded_orders(&self) -> Vec<Vec<dbgpt_sqlengine::Value>> {
        let engine = self.ctx.engine.read();
        let table = engine.database().table("orders").expect("orders table");
        let mut rows = table.all_rows().expect("orders rows");
        rows.retain(|r| r[0].as_i64().is_some_and(|id| id < ORDERS as i64));
        rows
    }
}

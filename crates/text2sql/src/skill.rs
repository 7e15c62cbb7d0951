//! Serving Text-to-SQL models through the LLM substrate.
//!
//! DB-GPT-Hub's output is a *model*: "our SMMF framework accords users the
//! flexibility to employ their fine-tuned LLMs in a localized manner"
//! (§2.5). [`Text2SqlSkill`] wraps a [`Text2SqlModel`] as a
//! [`dbgpt_llm::PromptSkill`], and [`sql_model`] packages it into a
//! deployable [`dbgpt_llm::SimLlm`] — so the application layer can address
//! a fine-tuned SQL model exactly like any chat model, through SMMF.
//!
//! Prompt convention:
//!
//! ```text
//! ### Task: text2sql
//! ### Schema:
//! CREATE TABLE …;
//! ### Input:
//! how many orders are there?
//! ```

use std::sync::Arc;

use dbgpt_llm::skill::{PromptSkill, SkillContext, StructuredPrompt};
use dbgpt_llm::{SharedModel, SimLlm};

use crate::model::Text2SqlModel;

/// The prompt skill (see module docs).
pub struct Text2SqlSkill {
    model: Text2SqlModel,
}

impl Text2SqlSkill {
    /// Wrap a model.
    pub fn new(model: Text2SqlModel) -> Self {
        Text2SqlSkill { model }
    }
}

impl PromptSkill for Text2SqlSkill {
    fn name(&self) -> &str {
        "text2sql"
    }

    fn matches(&self, prompt: &StructuredPrompt, _raw: &str) -> bool {
        matches!(prompt.task.as_deref(), Some("text2sql") | Some("sql"))
    }

    fn complete(
        &self,
        prompt: &StructuredPrompt,
        _raw: &str,
        _ctx: &SkillContext,
    ) -> Option<String> {
        let schema = prompt.section("schema")?;
        let question = prompt.input();
        match self.model.generate_sql(schema, question) {
            Ok(sql) => Some(sql),
            // Real Text-to-SQL models emit *something*; surface failures as
            // a SQL comment so downstream parsing fails loudly but safely.
            Err(e) => Some(format!("-- error: {e}")),
        }
    }
}

/// Package a Text-to-SQL model as a deployable simulated LLM (based on the
/// `sim-coder` serving profile, with this skill at top priority).
pub fn sql_model(model: Text2SqlModel) -> SharedModel {
    let mut spec = dbgpt_llm::catalog::builtin_spec("sim-coder").expect("sim-coder exists");
    spec.id = dbgpt_llm::ModelId::new(model.name());
    let mut llm = SimLlm::with_default_skills(spec);
    llm.register_skill(Arc::new(Text2SqlSkill::new(model)));
    Arc::new(llm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgpt_llm::GenerationParams;

    const DDL: &str = "CREATE TABLE orders (id INT, user_id INT, amount FLOAT, category TEXT);";

    fn prompt(q: &str) -> String {
        format!("### Task: text2sql\n### Schema:\n{DDL}\n### Input:\n{q}")
    }

    #[test]
    fn skill_generates_sql_through_model_interface() {
        let m = sql_model(Text2SqlModel::base());
        let out = m
            .generate(&prompt("how many orders are there?"), &GenerationParams::default())
            .unwrap();
        assert_eq!(out.text, "SELECT COUNT(*) FROM orders;");
        assert_eq!(out.model, "t2s-base");
    }

    #[test]
    fn skill_reports_failures_as_sql_comment() {
        let m = sql_model(Text2SqlModel::base());
        let out = m
            .generate(&prompt("how many quasars exist?"), &GenerationParams::default())
            .unwrap();
        assert!(out.text.starts_with("-- error:"), "{}", out.text);
    }

    #[test]
    fn non_sql_prompts_fall_through_to_chat() {
        let m = sql_model(Text2SqlModel::base());
        let out = m
            .generate("tell me about databases", &GenerationParams::default())
            .unwrap();
        assert!(!out.text.starts_with("SELECT"));
    }

    #[test]
    fn deployable_via_smmf() {
        // Deployed through SMMF like any other model.
        let mut server = dbgpt_smmf::ApiServer::new(dbgpt_smmf::DeploymentMode::Local);
        server.deploy_model(sql_model(Text2SqlModel::base()), 2).unwrap();
        let out = server
            .chat(
                "t2s-base",
                &prompt("list all orders"),
                &GenerationParams::default(),
                &dbgpt_obs::Span::noop(),
            )
            .unwrap();
        assert_eq!(out.text, "SELECT * FROM orders;");
    }
}

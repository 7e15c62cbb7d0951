//! The model client agents talk through.
//!
//! Agents never hold a model directly; they hold an [`LlmClient`], which is
//! either a direct handle to one [`dbgpt_llm::LanguageModel`] or a route
//! through an SMMF [`dbgpt_smmf::ApiServer`] deployment (model name +
//! shared server). The second form is how the full system runs — agents'
//! prompts then get SMMF's routing, failover and privacy guarantees.

use std::sync::Arc;

use dbgpt_llm::{Completion, GenerationParams, SharedModel};
use dbgpt_obs::Span;
use dbgpt_smmf::ApiServer;

use crate::error::AgentError;

/// A handle agents use for inference.
#[derive(Clone)]
pub enum LlmClient {
    /// Direct model access (simple setups, tests).
    Direct(SharedModel),
    /// Routed through an SMMF deployment.
    Smmf {
        /// The serving stack.
        server: Arc<ApiServer>,
        /// Which deployed model to address.
        model: String,
    },
}

impl LlmClient {
    /// Wrap a model directly.
    pub fn direct(model: SharedModel) -> Self {
        LlmClient::Direct(model)
    }

    /// Route through SMMF.
    pub fn smmf(server: Arc<ApiServer>, model: impl Into<String>) -> Self {
        LlmClient::Smmf {
            server,
            model: model.into(),
        }
    }

    /// The model name requests will hit.
    pub fn model_name(&self) -> String {
        match self {
            LlmClient::Direct(m) => m.id().to_string(),
            LlmClient::Smmf { model, .. } => model.clone(),
        }
    }

    /// Complete a prompt.
    pub fn complete(&self, prompt: &str, params: &GenerationParams) -> Result<Completion, AgentError> {
        self.complete_under(prompt, params, &Span::noop())
    }

    /// Complete a prompt under `parent`: the SMMF route joins its
    /// `smmf.chat` span (and everything under it) to `parent`; direct
    /// access records a flat `llm.generate` child when `parent` records.
    pub fn complete_under(
        &self,
        prompt: &str,
        params: &GenerationParams,
        parent: &Span,
    ) -> Result<Completion, AgentError> {
        match self {
            LlmClient::Direct(m) => {
                let span = parent.child("llm.generate", parent.tick());
                span.attr("model", m.id());
                let res = m.generate(prompt, params);
                span.attr("outcome", if res.is_ok() { "ok" } else { "error" });
                span.end(parent.tick());
                Ok(res?)
            }
            LlmClient::Smmf { server, model } => Ok(server.chat(model, prompt, params, parent)?),
        }
    }
}

impl std::fmt::Debug for LlmClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmClient::Direct(m) => write!(f, "LlmClient::Direct({})", m.id()),
            LlmClient::Smmf { model, .. } => write!(f, "LlmClient::Smmf({model})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgpt_llm::catalog::builtin_model;
    use dbgpt_smmf::DeploymentMode;

    #[test]
    fn direct_client_completes() {
        let c = LlmClient::direct(builtin_model("sim-qwen").unwrap());
        assert_eq!(c.model_name(), "sim-qwen");
        let out = c.complete("hello data", &GenerationParams::default()).unwrap();
        assert!(!out.text.is_empty());
    }

    #[test]
    fn smmf_client_routes_through_server() {
        let mut server = ApiServer::new(DeploymentMode::Local);
        server.deploy_builtin("sim-glm", 2).unwrap();
        let c = LlmClient::smmf(Arc::new(server), "sim-glm");
        let out = c.complete("hello data", &GenerationParams::default()).unwrap();
        assert_eq!(out.model, "sim-glm");
    }

    #[test]
    fn smmf_client_surfaces_unknown_model() {
        let server = ApiServer::new(DeploymentMode::Local);
        let c = LlmClient::smmf(Arc::new(server), "ghost");
        assert!(matches!(
            c.complete("x", &GenerationParams::default()),
            Err(AgentError::Llm(_))
        ));
    }
}

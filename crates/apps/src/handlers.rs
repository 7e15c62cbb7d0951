//! Server-layer adapters: every app as a [`dbgpt_server::AppHandler`].
//!
//! This is the glue between the server layer (§2.2) and the application
//! layer (§2.1): register these handlers on a [`dbgpt_server::Server`] and
//! external requests (frames or structs) reach the same app objects local
//! callers use directly — the "optional layer" contract.

use std::sync::Arc;

use parking_lot::Mutex;
use serde_json::{json, Value};

use dbgpt_obs::Span;
use dbgpt_server::{AppHandler, Server, ServerError, Session};

use crate::analysis::GenerativeAnalyzer;
use crate::chat2data::Chat2Data;
use crate::chat2db::Chat2Db;
use crate::chat2viz::Chat2Viz;
use crate::context::AppContext;
use crate::forecast::Forecaster;
use crate::kbqa::KnowledgeQa;

/// Chat2DB handler.
pub struct Chat2DbHandler(pub Chat2Db);

impl AppHandler for Chat2DbHandler {
    fn app_name(&self) -> &str {
        "chat2db"
    }
    fn handle(
        &self,
        input: &str,
        _params: &Value,
        _session: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        let r = self.0.ask(input).map_err(|e| ServerError::Handler(e.to_string()))?;
        let rendered = r.table.clone();
        Ok((
            serde_json::to_value(r).expect("reply serializes"),
            Some(rendered),
        ))
    }
}

/// Chat2Data handler.
pub struct Chat2DataHandler(pub Chat2Data);

impl AppHandler for Chat2DataHandler {
    fn app_name(&self) -> &str {
        "chat2data"
    }
    fn handle(
        &self,
        input: &str,
        params: &Value,
        session: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        self.handle_traced(input, params, session, &Span::noop())
    }
    fn handle_traced(
        &self,
        input: &str,
        _params: &Value,
        _session: &Session,
        span: &Span,
    ) -> Result<(Value, Option<String>), ServerError> {
        let r = self
            .0
            .ask(input, span)
            .map_err(|e| ServerError::Handler(e.to_string()))?;
        let rendered = r.answer.clone();
        Ok((
            serde_json::to_value(r).expect("reply serializes"),
            Some(rendered),
        ))
    }
}

/// Chat2Viz handler (renders SVG).
pub struct Chat2VizHandler(pub Chat2Viz);

impl AppHandler for Chat2VizHandler {
    fn app_name(&self) -> &str {
        "chat2viz"
    }
    fn handle(
        &self,
        input: &str,
        _params: &Value,
        _session: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        let r = self.0.ask(input).map_err(|e| ServerError::Handler(e.to_string()))?;
        let svg = r.svg.clone();
        Ok((
            json!({"spec": r.spec, "sql": r.sql}),
            Some(svg),
        ))
    }
}

/// KBQA handler.
pub struct KbqaHandler(pub KnowledgeQa);

impl AppHandler for KbqaHandler {
    fn app_name(&self) -> &str {
        "kbqa"
    }
    fn handle(
        &self,
        input: &str,
        params: &Value,
        session: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        self.handle_traced(input, params, session, &Span::noop())
    }
    fn handle_traced(
        &self,
        input: &str,
        _params: &Value,
        _session: &Session,
        span: &Span,
    ) -> Result<(Value, Option<String>), ServerError> {
        let r = self
            .0
            .ask(input, span)
            .map_err(|e| ServerError::Handler(e.to_string()))?;
        let rendered = r.answer.clone();
        Ok((
            serde_json::to_value(r).expect("reply serializes"),
            Some(rendered),
        ))
    }
}

/// Generative-analysis handler (mutation needs a lock).
pub struct AnalysisHandler(pub Mutex<GenerativeAnalyzer>);

impl AppHandler for AnalysisHandler {
    fn app_name(&self) -> &str {
        "analysis"
    }
    fn handle(
        &self,
        input: &str,
        _params: &Value,
        _session: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        let report = self
            .0
            .lock()
            .analyze(input)
            .map_err(|e| ServerError::Handler(e.to_string()))?;
        let rendered = report.render_ascii();
        Ok((
            serde_json::to_value(&report).expect("report serializes"),
            Some(rendered),
        ))
    }
}

/// Forecast handler.
pub struct ForecastHandler(pub Forecaster);

impl AppHandler for ForecastHandler {
    fn app_name(&self) -> &str {
        "forecast"
    }
    fn handle(
        &self,
        input: &str,
        _params: &Value,
        _session: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        let r = self.0.ask(input).map_err(|e| ServerError::Handler(e.to_string()))?;
        let rendered = r.narrative.clone();
        Ok((
            serde_json::to_value(r).expect("reply serializes"),
            Some(rendered),
        ))
    }
}

/// Build a fully wired server over one context: all six apps registered.
/// The context's observability handle carries over, so `server.request`
/// spans parent the app/engine spans of instrumented apps.
pub fn build_server(ctx: &AppContext) -> Server {
    let mut server = Server::with_obs(ctx.obs.clone());
    server.register(Arc::new(Chat2DbHandler(Chat2Db::new(ctx.clone()))));
    server.register(Arc::new(Chat2DataHandler(Chat2Data::new(ctx.clone()))));
    server.register(Arc::new(Chat2VizHandler(Chat2Viz::new(ctx.clone()))));
    server.register(Arc::new(KbqaHandler(KnowledgeQa::new(ctx.clone()))));
    server.register(Arc::new(AnalysisHandler(Mutex::new(
        GenerativeAnalyzer::new(ctx.clone()),
    ))));
    server.register(Arc::new(ForecastHandler(Forecaster::new(ctx.clone()))));
    server
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgpt_server::{Request, Status};

    fn server() -> Server {
        build_server(&AppContext::local_default().with_sales_demo_data())
    }

    #[test]
    fn all_apps_registered() {
        assert_eq!(
            server().apps(),
            vec!["analysis", "chat2data", "chat2db", "chat2viz", "forecast", "kbqa"]
        );
    }

    #[test]
    fn forecast_through_server() {
        let s = server();
        let resp = s.handle(
            &Request::new(9, "forecast", "forecast sales for the next 2 months"),
            &Span::noop(),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content["predictions"].as_array().unwrap().len(), 2);
        assert!(resp.rendered.unwrap().contains("predicted"));
    }

    #[test]
    fn chat2db_through_server() {
        let s = server();
        let resp = s.handle(
            &Request::new(1, "chat2db", "how many orders are there?"),
            &Span::noop(),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content["sql"], "SELECT COUNT(*) FROM orders;");
        assert!(resp.rendered.unwrap().contains('8'));
    }

    #[test]
    fn chat2data_through_server() {
        let s = server();
        let resp = s.handle(
            &Request::new(2, "chat2data", "how many users are there?"),
            &Span::noop(),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content["answer"], "The answer is 4.");
    }

    #[test]
    fn chat2viz_through_server_renders_svg() {
        let s = server();
        let resp = s.handle(
            &Request::new(3, "chat2viz", "pie chart of total amount per category of orders"),
            &Span::noop(),
        );
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.rendered.unwrap().starts_with("<svg"));
    }

    #[test]
    fn analysis_through_server() {
        let s = server();
        let req = Request::new(
            4,
            "analysis",
            "Build sales reports and analyze user orders from at least three distinct dimensions",
        );
        let resp = s.handle(&req, &Span::noop());
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content["charts"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn handler_errors_become_error_responses() {
        let s = server();
        let resp = s.handle(&Request::new(5, "chat2db", "how many unicorns?"), &Span::noop());
        assert_eq!(resp.status, Status::Error);
    }

    #[test]
    fn sessions_work_through_full_stack() {
        let s = server();
        let sid = s.open_session("chat2data");
        let mut req = Request::new(1, "chat2data", "how many orders are there?");
        req.session = sid.clone();
        s.handle(&req, &Span::noop());
        let session = s.sessions().get(&sid).unwrap();
        assert_eq!(session.history.len(), 2);
        assert!(session.history[1].content.contains("The answer is 8."));
    }
}

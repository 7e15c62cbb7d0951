//! Request routing to application handlers.
//!
//! The server owns a [`SessionManager`] and a handler registry. A request
//! arrives (as a struct or as a binary frame), the session's history is
//! attached, the named app handles it, and both turns are appended to the
//! session — "integrating [external inputs] with domain knowledge to guide
//! lower-tier layers" (§2.2).

use std::collections::BTreeMap;
use std::sync::Arc;

use serde_json::Value;

use dbgpt_llm::ChatMessage;
use dbgpt_obs::{Obs, Span};

use crate::error::ServerError;
use crate::protocol::{decode_frame, encode_frame, Request, Response, Status};
use crate::session::{Session, SessionManager};

/// An application-layer handler the server can route to.
pub trait AppHandler: Send + Sync {
    /// App name requests address (`chat2db`, `chat2data`, …).
    fn app_name(&self) -> &str;

    /// Handle one input with the session context. Returns the
    /// machine-readable payload plus an optional rendered artifact.
    fn handle(
        &self,
        input: &str,
        params: &Value,
        session: &Session,
    ) -> Result<(Value, Option<String>), ServerError>;

    /// Handle one input under the server's per-request span. Handlers
    /// whose apps are instrumented override this to join app/engine spans
    /// to the request trace; the default ignores the span and delegates to
    /// [`AppHandler::handle`].
    fn handle_traced(
        &self,
        input: &str,
        params: &Value,
        session: &Session,
        _span: &Span,
    ) -> Result<(Value, Option<String>), ServerError> {
        self.handle(input, params, session)
    }
}

/// Shared handler.
pub type SharedHandler = Arc<dyn AppHandler>;

/// The server: session store + handler registry.
pub struct Server {
    sessions: SessionManager,
    handlers: BTreeMap<String, SharedHandler>,
    obs: Obs,
}

impl Server {
    /// Empty server.
    pub fn new() -> Self {
        Server {
            sessions: SessionManager::new(),
            handlers: BTreeMap::new(),
            obs: Obs::disabled(),
        }
    }

    /// Empty server recording `server.request` spans and per-app/status
    /// counters on `obs`.
    pub fn with_obs(obs: Obs) -> Self {
        Server {
            sessions: SessionManager::new(),
            handlers: BTreeMap::new(),
            obs,
        }
    }

    /// Replace the observability handle (e.g. after [`Server::new`] via a
    /// builder that only later learns about it).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The server's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Register a handler under its app name.
    pub fn register(&mut self, handler: SharedHandler) {
        self.handlers.insert(handler.app_name().to_string(), handler);
    }

    /// Registered app names (sorted).
    pub fn apps(&self) -> Vec<&str> {
        self.handlers.keys().map(String::as_str).collect()
    }

    /// The session store.
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// Open a session for an app.
    pub fn open_session(&self, app: &str) -> String {
        self.sessions.create(app).0
    }

    /// Handle a request struct (the non-frame path) under a caller span
    /// (e.g. a TCP connection span): records a `server.request` span with
    /// app/status attributes plus `server.requests`, `server.cmd.<app>`
    /// and `server.status.*` counters — a child of `parent` when it is
    /// recording, else a root on the server's own handle.
    pub fn handle(&self, request: &Request, parent: &Span) -> Response {
        let span = parent.child_or_root(&self.obs, "server.request", None);
        let obs = span.handle();
        span.attr("app", &request.app);
        span.attr("id", request.id);
        obs.counter("server.requests", 1);
        if span.is_recording() {
            obs.counter(&format!("server.cmd.{}", request.app), 1);
        }
        let resp = self.handle_inner(request, &span);
        if span.is_recording() {
            let status = match resp.status {
                Status::Ok => "ok",
                Status::BadRequest => "bad_request",
                Status::Error => "error",
            };
            span.attr("status", status);
            obs.counter(&format!("server.status.{status}"), 1);
        }
        span.end(span.tick());
        resp
    }

    fn handle_inner(&self, request: &Request, span: &Span) -> Response {
        let handler = match self.handlers.get(&request.app) {
            Some(h) => h.clone(),
            None => {
                return Response::error(
                    request.id,
                    Status::BadRequest,
                    ServerError::UnknownApp(request.app.clone()).to_string(),
                )
            }
        };
        // Resolve (or fabricate) the session context.
        let session = if request.session.is_empty() {
            Session {
                id: crate::session::SessionId("ephemeral".into()),
                app: request.app.clone(),
                history: Vec::new(),
            }
        } else {
            match self.sessions.get(&request.session) {
                Ok(s) => s,
                Err(e) => return Response::error(request.id, Status::BadRequest, e.to_string()),
            }
        };
        match handler.handle_traced(&request.input, &request.params, &session, span) {
            Ok((content, rendered)) => {
                // Persist the turn for real sessions.
                if !request.session.is_empty() {
                    let _ = self
                        .sessions
                        .append(&request.session, ChatMessage::user(request.input.clone()));
                    let reply_text = rendered
                        .clone()
                        .unwrap_or_else(|| content.to_string());
                    let _ = self
                        .sessions
                        .append(&request.session, ChatMessage::assistant(reply_text));
                }
                let mut resp = Response::ok(request.id, content);
                if let Some(r) = rendered {
                    resp = resp.with_rendered(r);
                }
                resp
            }
            Err(e) => Response::error(request.id, Status::Error, e.to_string()),
        }
    }

    /// Handle a binary frame and produce a response frame (the external
    /// "HTTP" path).
    pub fn handle_frame(&self, frame: &[u8]) -> bytes::Bytes {
        self.handle_frame_under(frame, &Span::noop())
    }

    /// Frame path under a caller span (see [`Server::handle`]), counting
    /// `server.frames` and `server.frame_errors`.
    pub fn handle_frame_under(&self, frame: &[u8], parent: &Span) -> bytes::Bytes {
        self.obs.counter("server.frames", 1);
        match decode_frame::<Request>(frame) {
            Ok((request, _)) => encode_frame(&self.handle(&request, parent)),
            Err(e) => {
                self.obs.counter("server.frame_errors", 1);
                encode_frame(&Response::error(0, Status::BadRequest, e.to_string()))
            }
        }
    }
}

impl Default for Server {
    fn default() -> Self {
        Server::new()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("apps", &self.apps())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// Echoes input, reporting how much history it saw.
    struct EchoApp;
    impl AppHandler for EchoApp {
        fn app_name(&self) -> &str {
            "echo"
        }
        fn handle(
            &self,
            input: &str,
            params: &Value,
            session: &Session,
        ) -> Result<(Value, Option<String>), ServerError> {
            if input == "boom" {
                return Err(ServerError::Handler("exploded".into()));
            }
            Ok((
                json!({
                    "echo": input,
                    "history_len": session.history.len(),
                    "params": params,
                }),
                Some(format!("rendered: {input}")),
            ))
        }
    }

    fn server() -> Server {
        let mut s = Server::new();
        s.register(Arc::new(EchoApp));
        s
    }

    #[test]
    fn routes_to_handler() {
        let s = server();
        let resp = s.handle(&Request::new(1, "echo", "hello"), &Span::noop());
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content["echo"], "hello");
        assert_eq!(resp.rendered.as_deref(), Some("rendered: hello"));
    }

    #[test]
    fn unknown_app_is_bad_request() {
        let s = server();
        let resp = s.handle(&Request::new(2, "ghost", "x"), &Span::noop());
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn handler_errors_reported() {
        let s = server();
        let resp = s.handle(&Request::new(3, "echo", "boom"), &Span::noop());
        assert_eq!(resp.status, Status::Error);
        assert!(resp.content.as_str().unwrap().contains("exploded"));
    }

    #[test]
    fn sessions_accumulate_history() {
        let s = server();
        let sid = s.open_session("echo");
        let mut req = Request::new(1, "echo", "first");
        req.session = sid.clone();
        let r1 = s.handle(&req, &Span::noop());
        assert_eq!(r1.content["history_len"], 0);
        let mut req = Request::new(2, "echo", "second");
        req.session = sid.clone();
        let r2 = s.handle(&req, &Span::noop());
        // The handler saw both turns of round 1.
        assert_eq!(r2.content["history_len"], 2);
        assert_eq!(s.sessions().get(&sid).unwrap().history.len(), 4);
    }

    #[test]
    fn missing_session_is_bad_request() {
        let s = server();
        let mut req = Request::new(1, "echo", "x");
        req.session = "ghost".into();
        assert_eq!(s.handle(&req, &Span::noop()).status, Status::BadRequest);
    }

    #[test]
    fn frame_path_roundtrip() {
        let s = server();
        let frame = encode_frame(&Request::new(7, "echo", "framed"));
        let out = s.handle_frame(&frame);
        let (resp, _): (Response, usize) = decode_frame(&out).unwrap();
        assert_eq!(resp.id, 7);
        assert_eq!(resp.content["echo"], "framed");
    }

    #[test]
    fn bad_frame_gets_error_response() {
        let s = server();
        let out = s.handle_frame(&[0, 0]);
        let (resp, _): (Response, usize) = decode_frame(&out).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn apps_listing() {
        assert_eq!(server().apps(), vec!["echo"]);
    }
}

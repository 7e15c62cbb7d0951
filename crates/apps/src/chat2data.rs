//! Chat2Data: direct answers to data questions.
//!
//! Where Chat2DB shows the query mechanics, Chat2Data answers the question
//! itself: single-cell results become a sentence ("The answer is 8."),
//! small result sets are summarised inline, and the machinery (SQL, row
//! data) is still available in the reply for the front-end.

use dbgpt_obs::Span;
use serde::Serialize;
use serde_json::{json, Value};

use crate::context::AppContext;
use crate::error::AppError;

/// One Chat2Data answer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Chat2DataReply {
    /// Sentence-form answer.
    pub answer: String,
    /// The SQL that produced it.
    pub sql: String,
    /// Raw result rows as JSON (label→value maps).
    pub data: Value,
}

/// The Chat2Data app.
#[derive(Debug, Clone)]
pub struct Chat2Data {
    ctx: AppContext,
}

impl Chat2Data {
    /// App over a context.
    pub fn new(ctx: AppContext) -> Self {
        Chat2Data { ctx }
    }

    /// Handle one question under a caller span: records an `app.chat2data`
    /// span (child of `parent` when it is recording, else rooted on the
    /// context's own handle) with the Text-to-SQL and SQL-engine stages as
    /// children.
    pub fn ask(&self, question: &str, parent: &Span) -> Result<Chat2DataReply, AppError> {
        let span = parent.child_or_root(&self.ctx.obs, "app.chat2data", None);
        let obs = span.handle();
        obs.counter("app.chat2data.requests", 1);
        let res = self.ask_inner(question, &span);
        match &res {
            Ok(r) => {
                span.attr("outcome", "ok");
                span.attr("rows", r.data.as_array().map(|a| a.len()).unwrap_or(0));
            }
            Err(_) => {
                span.attr("outcome", "error");
                obs.counter("app.chat2data.errors", 1);
            }
        }
        span.end(span.tick());
        res
    }

    fn ask_inner(&self, question: &str, span: &Span) -> Result<Chat2DataReply, AppError> {
        let question = question.trim();
        if question.is_empty() {
            return Err(AppError::BadInput("empty question".into()));
        }
        let ddl = self.ctx.schema_ddl();
        if ddl.is_empty() {
            return Err(AppError::BadInput("database has no tables".into()));
        }
        let sql = self.ctx.t2s.generate_sql_traced(&ddl, question, span)?;
        let result = self.ctx.engine.write().execute_traced(&sql, span)?;
        let (answer, data) = summarize_result(&result);
        Ok(Chat2DataReply { answer, sql, data })
    }
}

/// Sentence-form answer plus labelled JSON rows for a query result. Shared
/// by the direct [`Chat2Data`] path and the AWEL pipeline's execute stage,
/// so both render identical replies.
pub(crate) fn summarize_result(result: &dbgpt_sqlengine::QueryResult) -> (String, Value) {
    let cols = result.column_names().iter().map(|c| c.to_string()).collect::<Vec<_>>();
    let data: Vec<Value> = result
        .rows
        .iter()
        .map(|r| {
            let mut obj = serde_json::Map::new();
            for (c, v) in cols.iter().zip(r.values()) {
                obj.insert(c.clone(), json!(v.to_string()));
            }
            Value::Object(obj)
        })
        .collect();

    let answer = match (result.rows.len(), cols.len()) {
        (0, _) => "No matching data was found.".to_string(),
        (1, 1) => format!("The answer is {}.", result.rows[0][0]),
        (1, _) => {
            let pairs: Vec<String> = cols
                .iter()
                .zip(result.rows[0].values())
                .map(|(c, v)| format!("{c} = {v}"))
                .collect();
            format!("Found one row: {}.", pairs.join(", "))
        }
        (n, 2) if n <= 6 => {
            let pairs: Vec<String> = result
                .rows
                .iter()
                .map(|r| format!("{}: {}", r[0], r[1]))
                .collect();
            format!("Here is the breakdown — {}.", pairs.join("; "))
        }
        (n, _) => format!("Found {n} matching rows."),
    };
    (answer, Value::Array(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> Chat2Data {
        Chat2Data::new(AppContext::local_default().with_sales_demo_data())
    }

    #[test]
    fn scalar_answer_is_a_sentence() {
        let r = app().ask("how many orders are there?", &Span::noop()).unwrap();
        assert_eq!(r.answer, "The answer is 8.");
        assert_eq!(r.sql, "SELECT COUNT(*) FROM orders;");
    }

    #[test]
    fn breakdown_answer_for_grouped_results() {
        let r = app()
            .ask("what is the total amount per category of orders?", &Span::noop())
            .unwrap();
        assert!(r.answer.starts_with("Here is the breakdown"), "{}", r.answer);
        assert!(r.answer.contains("tech"));
        assert_eq!(r.data.as_array().unwrap().len(), 3);
    }

    #[test]
    fn many_rows_summarised_as_count() {
        let r = app().ask("list all orders", &Span::noop()).unwrap();
        assert_eq!(r.answer, "Found 8 matching rows.");
    }

    #[test]
    fn empty_result_says_so() {
        let r = app().ask("list orders with amount greater than 99999", &Span::noop()).unwrap();
        assert_eq!(r.answer, "No matching data was found.");
    }

    #[test]
    fn superlative_single_row() {
        let r = app().ask("which product has the highest price?", &Span::noop()).unwrap();
        assert_eq!(r.answer, "The answer is laptop.");
    }

    #[test]
    fn data_rows_are_labelled_json() {
        let r = app()
            .ask("what is the total amount per category of orders?", &Span::noop())
            .unwrap();
        let first = &r.data[0];
        assert!(first.get("category").is_some());
    }

    #[test]
    fn empty_question_rejected() {
        assert!(app().ask("", &Span::noop()).is_err());
    }
}

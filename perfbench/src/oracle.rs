//! The reply oracle: what each generated request must get back.
//!
//! Every expectation is fixed when the request is generated, from the
//! workload's own inputs (the demo database's known contents, the seeded
//! orders rows and each connection's own writes, the target document of a
//! KBQA question). Numbers are compared with a relative tolerance of 1e-9,
//! because a floating-point sum may differ in its last bits with the order
//! rows are added in.

use std::collections::BTreeSet;
use std::sync::Arc;

use dbgpt_server::{Response, Status};
use dbgpt_sqlengine::QueryResult;
use serde_json::Value;

/// One result row: (column, cell) pairs, sorted by column.
pub type Row = Vec<(String, String)>;

/// The expected reply of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Chat2Data / pipeline: the `data` rows, in any order.
    Data(Vec<Row>),
    /// Chat2DB read: the rendered table's header and rows (rows in any order).
    Table {
        /// Column names.
        header: Vec<String>,
        /// Cell texts.
        rows: Vec<Vec<String>>,
    },
    /// Chat2DB write: rows affected.
    Affected(u64),
    /// Chat2Viz: the chart's (label, value) points, in any order.
    Chart(Vec<(String, f64)>),
    /// Generative analysis: each chart's points, charts in plan order.
    Charts(Vec<Vec<(String, f64)>>),
    /// Forecast: the history in period order and the predictions.
    Forecast {
        /// (period, value) history.
        history: Vec<(String, f64)>,
        /// Predicted values.
        predictions: Vec<f64>,
    },
    /// KBQA: this document must be among the reply's sources.
    Source(String),
    /// Broad KBQA question: some source must belong to this set.
    AnySource(Arc<BTreeSet<String>>),
    /// Ingest: chunks created.
    Ingested(u64),
}

/// How one reply compares with its expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Matches.
    Ok,
    /// A KBQA reply whose sources miss the target: a retrieval-quality
    /// miss, not a malfunction.
    Missed,
    /// Contradicts an exact expected answer.
    Wrong,
    /// An error reply.
    Error,
}

fn num_eq(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn cell_eq(a: &str, b: &str) -> bool {
    a == b || matches!((a.parse::<f64>(), b.parse::<f64>()), (Ok(x), Ok(y)) if num_eq(x, y))
}

/// Multiset equality under `eq`: every expected item pairs with a distinct
/// actual item.
fn same_items<T>(got: &[T], want: &[T], eq: impl Fn(&T, &T) -> bool) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let mut used = vec![false; got.len()];
    want.iter().all(|w| {
        let hit = (0..got.len()).find(|&i| !used[i] && eq(&got[i], w));
        hit.map(|i| used[i] = true).is_some()
    })
}

fn rows_eq(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ca, va), (cb, vb))| ca == cb && cell_eq(va, vb))
}

fn cells_eq(a: &[String], b: &[String]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cell_eq(x, y))
}

fn point_eq(a: &(String, f64), b: &(String, f64)) -> bool {
    a.0 == b.0 && num_eq(a.1, b.1)
}

fn json_rows(data: &Value) -> Option<Vec<Row>> {
    data.as_array()?
        .iter()
        .map(|r| {
            let mut row: Row = r
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect::<Option<_>>()?;
            row.sort();
            Some(row)
        })
        .collect()
}

fn json_points(spec: &Value) -> Option<Vec<(String, f64)>> {
    spec["points"]
        .as_array()?
        .iter()
        .map(|p| Some((p["label"].as_str()?.to_string(), p["value"].as_f64()?)))
        .collect()
}

fn json_f64s(v: &Value) -> Option<Vec<f64>> {
    v.as_array()?.iter().map(Value::as_f64).collect()
}

/// Header and cell rows of an ASCII table rendered by
/// `QueryResult::to_table`.
pub fn parse_table(table: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut lines = table.lines().filter(|l| l.starts_with('|')).map(|l| {
        let inner = l.trim().trim_start_matches('|').trim_end_matches('|');
        inner
            .split('|')
            .map(|c| c.trim().to_string())
            .collect::<Vec<_>>()
    });
    let header = lines.next().unwrap_or_default();
    (header, lines.collect())
}

fn sources_hit(content: &Value, hit: impl Fn(&str) -> bool) -> Option<bool> {
    let sources = content["sources"].as_array()?;
    Some(sources.iter().filter_map(Value::as_str).any(hit))
}

/// Judge one reply against its expectation.
pub fn check(expect: &Expect, resp: &Response) -> Verdict {
    if resp.status != Status::Ok {
        return Verdict::Error;
    }
    let c = &resp.content;
    let hit = match expect {
        Expect::Source(doc) => sources_hit(c, |s| s == doc),
        Expect::AnySource(docs) => sources_hit(c, |s| docs.contains(s)),
        _ => None,
    };
    if let Some(hit) = hit {
        return if hit { Verdict::Ok } else { Verdict::Missed };
    }
    let ok = match expect {
        Expect::Data(want) => {
            json_rows(&c["data"]).is_some_and(|got| same_items(&got, want, rows_eq))
        }
        Expect::Table { header, rows } => c["table"].as_str().is_some_and(|t| {
            let (h, r) = parse_table(t);
            &h == header && same_items(&r, rows, |a, b| cells_eq(a, b))
        }),
        Expect::Affected(n) => c["rows"].as_u64() == Some(*n),
        Expect::Chart(want) => {
            json_points(&c["spec"]).is_some_and(|got| same_items(&got, want, point_eq))
        }
        Expect::Charts(want) => c["charts"].as_array().is_some_and(|charts| {
            charts.len() == want.len()
                && charts.iter().zip(want).all(|(chart, w)| {
                    json_points(chart).is_some_and(|got| same_items(&got, w, point_eq))
                })
        }),
        Expect::Forecast {
            history,
            predictions,
        } => {
            let got_history: Option<Vec<(String, f64)>> = c["history"].as_array().and_then(|h| {
                h.iter()
                    .map(|p| Some((p[0].as_str()?.to_string(), p[1].as_f64()?)))
                    .collect()
            });
            got_history.is_some_and(|h| {
                h.len() == history.len() && h.iter().zip(history).all(|(a, b)| point_eq(a, b))
            }) && json_f64s(&c["predictions"]).is_some_and(|p| {
                p.len() == predictions.len()
                    && p.iter().zip(predictions).all(|(a, b)| num_eq(*a, *b))
            })
        }
        Expect::Ingested(n) => c["chunks"].as_u64() == Some(*n),
        Expect::Source(_) | Expect::AnySource(_) => false,
    };
    if ok {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// Does a query result carry the expected answer? `None` when the
/// expectation is not a query result. Used to score generated SQL.
pub fn result_matches(expect: &Expect, result: &QueryResult) -> Option<bool> {
    let cols: Vec<String> = result
        .column_names()
        .iter()
        .map(|c| c.to_string())
        .collect();
    let cells: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| r.values().iter().map(|v| v.to_string()).collect())
        .collect();
    match expect {
        Expect::Data(want) => {
            let got: Vec<Row> = cells
                .iter()
                .map(|r| {
                    let mut row: Row = cols.iter().cloned().zip(r.iter().cloned()).collect();
                    row.sort();
                    row
                })
                .collect();
            Some(same_items(&got, want, rows_eq))
        }
        Expect::Table { header, rows } => {
            Some(&cols == header && same_items(&cells, rows, |a, b| cells_eq(a, b)))
        }
        Expect::Chart(want) => {
            let got: Option<Vec<(String, f64)>> = result
                .rows
                .iter()
                .map(|r| Some((r.get(0)?.to_string(), r.get(1)?.as_f64()?)))
                .collect();
            Some(got.is_some_and(|g| same_items(&g, want, point_eq)))
        }
        _ => None,
    }
}

/// A single-row expectation from (column, cell) pairs.
pub fn row(pairs: &[(&str, &str)]) -> Row {
    let mut r: Row = pairs
        .iter()
        .map(|(c, v)| (c.to_string(), v.to_string()))
        .collect();
    r.sort();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn ok(content: Value) -> Response {
        Response::ok(1, content)
    }

    #[test]
    fn data_rows_match_in_any_order_and_reject_a_wrong_cell() {
        let want = Expect::Data(vec![
            row(&[("category", "tech"), ("sum", "4500.0")]),
            row(&[("category", "books"), ("sum", "45.0")]),
        ]);
        let good = ok(json!({"data": [
            {"category": "books", "sum": "45.0"},
            {"category": "tech", "sum": "4500.0000000000001"}
        ]}));
        assert_eq!(check(&want, &good), Verdict::Ok);
        let bad = ok(json!({"data": [
            {"category": "books", "sum": "45.0"},
            {"category": "tech", "sum": "4501.0"}
        ]}));
        assert_eq!(check(&want, &bad), Verdict::Wrong);
        let short = ok(json!({"data": [{"category": "books", "sum": "45.0"}]}));
        assert_eq!(check(&want, &short), Verdict::Wrong);
    }

    #[test]
    fn table_replies_are_parsed() {
        let table =
            "+----+-------+\n| id | name  |\n+----+-------+\n| 1  | alice |\n+----+-------+\n";
        assert_eq!(
            parse_table(table),
            (
                vec!["id".to_string(), "name".to_string()],
                vec![vec!["1".to_string(), "alice".to_string()]]
            )
        );
        let want = Expect::Table {
            header: vec!["id".into(), "name".into()],
            rows: vec![vec!["1".into(), "alice".into()]],
        };
        assert_eq!(check(&want, &ok(json!({ "table": table }))), Verdict::Ok);
        let wrong = table.replace("alice", "bob  ");
        assert_eq!(check(&want, &ok(json!({ "table": wrong }))), Verdict::Wrong);
    }

    #[test]
    fn injected_wrong_replies_are_rejected() {
        assert_eq!(
            check(&Expect::Affected(1), &ok(json!({"rows": 1}))),
            Verdict::Ok
        );
        assert_eq!(
            check(&Expect::Affected(1), &ok(json!({"rows": 0}))),
            Verdict::Wrong
        );
        assert_eq!(
            check(&Expect::Ingested(1), &ok(json!({"chunks": 2}))),
            Verdict::Wrong
        );
        let chart = Expect::Chart(vec![("jan".into(), 1830.0), ("feb".into(), 2419.0)]);
        let spec = json!({"spec": {"points": [
            {"label": "feb", "value": 2419.0}, {"label": "jan", "value": 1830.0}
        ]}});
        assert_eq!(check(&chart, &ok(spec)), Verdict::Ok);
        let spec = json!({"spec": {"points": [
            {"label": "feb", "value": 2419.0}, {"label": "jan", "value": 1831.0}
        ]}});
        assert_eq!(check(&chart, &ok(spec)), Verdict::Wrong);
        let forecast = Expect::Forecast {
            history: vec![("jan".into(), 1.0), ("feb".into(), 2.0)],
            predictions: vec![3.0],
        };
        let good = json!({"history": [["jan", 1.0], ["feb", 2.0]], "predictions": [3.0]});
        assert_eq!(check(&forecast, &ok(good)), Verdict::Ok);
        let swapped = json!({"history": [["feb", 2.0], ["jan", 1.0]], "predictions": [3.0]});
        assert_eq!(check(&forecast, &ok(swapped)), Verdict::Wrong);
        // The right shape under an error status is an error, not a match.
        let err = Response::error(1, Status::Error, "boom");
        assert_eq!(check(&Expect::Affected(1), &err), Verdict::Error);
        // A reply of the wrong shape is wrong.
        assert_eq!(check(&chart, &ok(json!("text"))), Verdict::Wrong);
    }

    #[test]
    fn kbqa_sources_decide_hit_or_miss() {
        let want = Expect::Source("doc-7".into());
        let hit = ok(json!({"sources": ["doc-1", "doc-7"]}));
        let miss = ok(json!({"sources": ["doc-1", "doc-2"]}));
        assert_eq!(check(&want, &hit), Verdict::Ok);
        assert_eq!(check(&want, &miss), Verdict::Missed);
        assert_eq!(check(&want, &ok(json!({"answer": "x"}))), Verdict::Wrong);
        let topic = Expect::AnySource(Arc::new(["doc-2".to_string()].into_iter().collect()));
        assert_eq!(check(&topic, &miss), Verdict::Ok);
        assert_eq!(check(&topic, &hit), Verdict::Missed);
    }

    #[test]
    fn query_results_score_generated_sql() {
        let mut e = dbgpt_sqlengine::Engine::new();
        e.execute("CREATE TABLE t (k TEXT, v FLOAT)").unwrap();
        e.execute("INSERT INTO t VALUES ('a', 1.5), ('b', 2.0)")
            .unwrap();
        let r = e.execute("SELECT k, SUM(v) FROM t GROUP BY k").unwrap();
        let want = Expect::Data(vec![
            row(&[("k", "a"), ("sum", "1.5")]),
            row(&[("k", "b"), ("sum", "2.0")]),
        ]);
        assert_eq!(result_matches(&want, &r), Some(true));
        let chart = Expect::Chart(vec![("a".into(), 1.5), ("b".into(), 2.5)]);
        assert_eq!(result_matches(&chart, &r), Some(false));
        assert_eq!(result_matches(&Expect::Affected(1), &r), None);
    }
}

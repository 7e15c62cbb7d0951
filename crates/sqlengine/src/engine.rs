//! The top-level engine: SQL text in, rows out.

use std::sync::Arc;

use dbgpt_obs::Span;

use crate::catalog::Database;
use crate::error::SqlError;
use crate::exec::vectorized::{execute_plan_columnar_with_stats, ExecStats};
use crate::exec::{execute_plan, ExecConfig, ExecMode};
use crate::parser::{parse, Statement};
use crate::plan::logical::{LogicalPlan, Planner};
use crate::plan::optimizer::Optimizer;
use crate::row::Row;
use crate::schema::{Column, Schema, SchemaRef};
use crate::storage::{StorageConfig, TableHeap};
use crate::value::Value;

/// The result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Column names/types of the result (empty for DDL/DML).
    pub schema: SchemaRef,
    /// Result rows (empty for DDL/DML).
    pub rows: Vec<Row>,
    /// Rows affected by DML (0 for queries/DDL).
    pub rows_affected: usize,
}

impl QueryResult {
    /// An empty result with `rows_affected` set.
    fn affected(n: usize) -> QueryResult {
        QueryResult {
            schema: Arc::new(Schema::new_unchecked(vec![])),
            rows: Vec::new(),
            rows_affected: n,
        }
    }

    /// Column names of the result.
    pub fn column_names(&self) -> Vec<&str> {
        self.schema.columns().iter().map(|c| c.name.as_str()).collect()
    }

    /// Render an ASCII table (used by examples and the Chat2DB app).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        if headers.is_empty() {
            return format!("({} row(s) affected)", self.rows_affected);
        }
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let sep = |widths: &[usize]| {
            let mut s = String::from("+");
            for w in widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        let fmt_row = |cols: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cols.iter().zip(widths) {
                s.push_str(&format!(" {c:<w$} |", w = w));
            }
            s.push('\n');
            s
        };
        let mut out = sep(&widths);
        out.push_str(&fmt_row(&headers, &widths));
        out.push_str(&sep(&widths));
        for row in &cells {
            out.push_str(&fmt_row(row, &widths));
        }
        out.push_str(&sep(&widths));
        out
    }
}

/// The SQL engine: a [`Database`] plus the query pipeline.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    db: Database,
    optimizer: Optimizer,
    exec: ExecConfig,
}

impl Engine {
    /// Empty engine with the optimizer on and the row executor (default).
    pub fn new() -> Self {
        Engine {
            db: Database::new(),
            optimizer: Optimizer::new(),
            exec: ExecConfig::default(),
        }
    }

    /// Engine with a custom optimizer configuration (for ablations).
    pub fn with_optimizer(optimizer: Optimizer) -> Self {
        Engine {
            db: Database::new(),
            optimizer,
            exec: ExecConfig::default(),
        }
    }

    /// Engine with a custom executor selection.
    pub fn with_exec(exec: ExecConfig) -> Self {
        Engine {
            db: Database::new(),
            optimizer: Optimizer::new(),
            exec,
        }
    }

    /// Engine on the given storage arm (see [`StorageConfig`]); the
    /// default [`StorageConfig::InMemory`] is exactly [`Engine::new`].
    pub fn with_storage(storage: StorageConfig) -> Self {
        Engine::with_exec_and_storage(ExecConfig::default(), storage)
    }

    /// Engine with both an executor selection and a storage arm.
    pub fn with_exec_and_storage(exec: ExecConfig, storage: StorageConfig) -> Self {
        Engine {
            db: Database::with_storage(storage),
            optimizer: Optimizer::new(),
            exec,
        }
    }

    /// Switch executor at runtime (queries only; DML is unaffected).
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// The current executor selection.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// Make sure every table a plan scans has fresh read-path caches:
    /// paged tables rebuild stale B+-trees (the immutable executor cannot),
    /// and — in columnar mode — in-memory tables refresh their columnar
    /// mirror so the vectorized executor does not rebuild it per query.
    fn refresh_scan_caches(&mut self, plan: &LogicalPlan) {
        let mut tables = Vec::new();
        collect_scan_tables(plan, &mut tables);
        let columnar = self.exec.mode == ExecMode::Columnar;
        for name in tables {
            if let Ok(t) = self.db.table_mut(&name) {
                if t.is_paged() {
                    t.refresh_indexes();
                } else if columnar {
                    t.refresh_columnar();
                }
            }
        }
    }

    /// Execute an optimized SELECT plan with the configured executor.
    fn run_plan(
        &mut self,
        plan: &LogicalPlan,
        stats: &mut ExecStats,
    ) -> Result<crate::row::RowBatch, SqlError> {
        self.refresh_scan_caches(plan);
        match self.exec.mode {
            ExecMode::Row => execute_plan(plan, &self.db),
            ExecMode::Columnar => execute_plan_columnar_with_stats(plan, &self.db, stats),
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database (bulk loads).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        self.execute_traced(sql, &Span::noop())
    }

    /// Execute one SQL statement with `sql.parse` / `sql.plan` /
    /// `sql.exec` stage spans joined to `parent`'s trace, row counts as
    /// attributes. A non-recording parent records nothing.
    pub fn execute_traced(&mut self, sql: &str, parent: &Span) -> Result<QueryResult, SqlError> {
        let obs = parent.handle();
        let span = parent.child("sql.execute", parent.tick());
        obs.counter("sql.statements", 1);
        let parse_span = span.child("sql.parse", span.tick());
        let parsed = parse(sql);
        parse_span.end(span.tick());
        let stmt = match parsed {
            Ok(stmt) => stmt,
            Err(e) => {
                obs.counter("sql.errors", 1);
                span.attr("outcome", "parse_error");
                span.end(span.tick());
                return Err(e);
            }
        };
        let result = match stmt {
            // SELECT splits into plan + exec stages; everything else is
            // one exec stage around the statement runner.
            Statement::Select(sel) => {
                let plan_span = span.child("sql.plan", span.tick());
                let plan = Planner::new(&self.db)
                    .plan_select(&sel)
                    .and_then(|p| self.optimizer.optimize(p));
                plan_span.end(span.tick());
                plan.and_then(|plan| {
                    let exec_span = span.child("sql.exec", span.tick());
                    let pool_before = self.db.pager().map(|p| p.counters());
                    let mut stats = ExecStats::default();
                    let batch = self.run_plan(&plan, &mut stats);
                    if let Ok(b) = &batch {
                        exec_span.attr("rows", b.rows.len());
                    }
                    if self.exec.mode == ExecMode::Columnar {
                        exec_span.attr("chunks", stats.chunks);
                        exec_span.attr("rows_scanned", stats.rows_scanned);
                        obs.counter("sql.chunks_scanned", stats.chunks);
                        obs.counter("sql.rows_scanned", stats.rows_scanned);
                    }
                    self.record_pool_deltas(&exec_span, &obs, pool_before);
                    exec_span.end(span.tick());
                    batch.map(|batch| QueryResult {
                        schema: batch.schema,
                        rows: batch.rows,
                        rows_affected: 0,
                    })
                })
            }
            other => {
                let exec_span = span.child("sql.exec", span.tick());
                let pool_before = self.db.pager().map(|p| p.counters());
                let r = self.run_statement(other);
                if let Ok(q) = &r {
                    exec_span.attr("rows_affected", q.rows_affected);
                }
                self.record_pool_deltas(&exec_span, &obs, pool_before);
                exec_span.end(span.tick());
                r
            }
        };
        match &result {
            Ok(q) => {
                span.attr("rows", q.rows.len());
                span.attr("rows_affected", q.rows_affected);
                obs.counter("sql.rows_out", q.rows.len() as u64);
            }
            Err(_) => {
                obs.counter("sql.errors", 1);
                span.attr("outcome", "error");
            }
        }
        span.end(span.tick());
        result
    }

    /// Record buffer-pool counter deltas (hits/misses/evictions/dirty
    /// writebacks) on a `sql.exec` span and the global metrics. No-op for
    /// in-memory storage, where `before` is `None`.
    fn record_pool_deltas(
        &self,
        exec_span: &Span,
        obs: &dbgpt_obs::Obs,
        before: Option<crate::storage::PoolCounters>,
    ) {
        let (before, pager) = match (before, self.db.pager()) {
            (Some(b), Some(p)) => (b, p),
            _ => return,
        };
        let after = pager.counters();
        let deltas = [
            ("pool_hits", "sql.pool.hits", after.hits - before.hits),
            ("pool_misses", "sql.pool.misses", after.misses - before.misses),
            (
                "pool_evictions",
                "sql.pool.evictions",
                after.evictions - before.evictions,
            ),
            (
                "pool_writebacks",
                "sql.pool.writebacks",
                after.writebacks - before.writebacks,
            ),
        ];
        for (attr, counter, delta) in deltas {
            exec_span.attr(attr, delta);
            obs.counter(counter, delta);
        }
    }

    /// Run one already-parsed non-SELECT statement (SELECTs are planned
    /// and run in [`Engine::execute_traced`]'s own stages).
    fn run_statement(&mut self, stmt: Statement) -> Result<QueryResult, SqlError> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| Column::new(n, t))
                        .collect(),
                )?;
                self.db.create_table(&name, schema, if_not_exists)?;
                Ok(QueryResult::affected(0))
            }
            Statement::DropTable { name, if_exists } => {
                self.db.drop_table(&name, if_exists)?;
                Ok(QueryResult::affected(0))
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                self.db.table_mut(&table)?.create_index(&name, &column)?;
                Ok(QueryResult::affected(0))
            }
            Statement::DropIndex { name, table } => {
                self.db.table_mut(&table)?.drop_index(&name)?;
                Ok(QueryResult::affected(0))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let empty_schema = Schema::new_unchecked(vec![]);
                let empty_row = Row::default();
                // Pre-compute the value layout.
                let table_schema = self.db.table(&table)?.schema.clone();
                let positions: Vec<usize> = match &columns {
                    Some(cols) => cols
                        .iter()
                        .map(|c| table_schema.index_of(c))
                        .collect::<Result<_, _>>()?,
                    None => (0..table_schema.len()).collect(),
                };
                let mut inserted = 0usize;
                for row_exprs in rows {
                    if row_exprs.len() != positions.len() {
                        return Err(SqlError::Execution(format!(
                            "INSERT expects {} values per row, got {}",
                            positions.len(),
                            row_exprs.len()
                        )));
                    }
                    let mut vals = vec![Value::Null; table_schema.len()];
                    for (expr, &pos) in row_exprs.iter().zip(&positions) {
                        vals[pos] = expr.eval(&empty_row, &empty_schema)?;
                    }
                    self.db.table_mut(&table)?.insert_row(vals)?;
                    inserted += 1;
                }
                Ok(QueryResult::affected(inserted))
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                let t = self.db.table_mut(&table)?;
                let schema = t.schema.clone();
                let targets: Vec<(usize, &crate::expr::Expr)> = assignments
                    .iter()
                    .map(|(col, e)| Ok((schema.index_of(col)?, e)))
                    .collect::<Result<_, SqlError>>()?;
                if t.is_paged() {
                    // Streaming heap rewrite. Semantics mirror the in-memory
                    // arm exactly: rows updated before the first error keep
                    // their new values, later rows are copied unchanged, and
                    // the error path leaves index staleness untouched.
                    let pager = Arc::clone(t.pager().expect("paged table"));
                    let heap = t.heap().expect("paged table").clone();
                    let mut new_heap = TableHeap::new();
                    let mut updated = 0usize;
                    let mut first_err: Option<SqlError> = None;
                    for i in 0..heap.page_count() {
                        let page_rows = heap.read_page(&mut pager.pool(), i)?;
                        for vals in page_rows {
                            let mut row = Row::new(vals);
                            if first_err.is_none() {
                                let step = (|| {
                                    let hit = match &filter {
                                        Some(f) => f.eval(&row, &schema)?.is_truthy(),
                                        None => true,
                                    };
                                    if !hit {
                                        return Ok(None);
                                    }
                                    let mut new_vals = Vec::with_capacity(targets.len());
                                    for (idx, e) in &targets {
                                        let v = e.eval(&row, &schema)?;
                                        let ty = schema.columns()[*idx].data_type;
                                        new_vals.push((*idx, v.coerce_to(ty)?));
                                    }
                                    Ok(Some(new_vals))
                                })();
                                match step {
                                    Ok(Some(new_vals)) => {
                                        for (idx, v) in new_vals {
                                            row.values_mut()[idx] = v;
                                        }
                                        updated += 1;
                                    }
                                    Ok(None) => {}
                                    Err(e) => first_err = Some(e),
                                }
                            }
                            new_heap.append_row(&mut pager.pool(), row.values())?;
                        }
                    }
                    let t = self.db.table_mut(&table)?;
                    t.replace_heap(new_heap)?;
                    if let Some(e) = first_err {
                        return Err(e);
                    }
                    if updated > 0 {
                        t.mark_indexes_stale();
                    }
                    return Ok(QueryResult::affected(updated));
                }
                let mut updated = 0usize;
                for row in t.rows.iter_mut() {
                    let hit = match &filter {
                        Some(f) => f.eval(row, &schema)?.is_truthy(),
                        None => true,
                    };
                    if !hit {
                        continue;
                    }
                    // Evaluate all assignments against the *old* row.
                    let mut new_vals = Vec::with_capacity(targets.len());
                    for (idx, e) in &targets {
                        let v = e.eval(row, &schema)?;
                        let ty = schema.columns()[*idx].data_type;
                        new_vals.push((*idx, v.coerce_to(ty)?));
                    }
                    for (idx, v) in new_vals {
                        row.values_mut()[idx] = v;
                    }
                    updated += 1;
                }
                if updated > 0 {
                    self.db.table_mut(&table)?.mark_indexes_stale();
                }
                Ok(QueryResult::affected(updated))
            }
            Statement::Delete { table, filter } => {
                let t = self.db.table_mut(&table)?;
                let schema = t.schema.clone();
                if t.is_paged() {
                    // Streaming heap rewrite mirroring the in-memory arm:
                    // rows whose filter errors are kept, the full pass
                    // completes, and the first error is returned at the end
                    // (without marking indexes stale — same as in-memory).
                    let pager = Arc::clone(t.pager().expect("paged table"));
                    let heap = t.heap().expect("paged table").clone();
                    let before = heap.len();
                    let mut new_heap = TableHeap::new();
                    let mut err: Option<SqlError> = None;
                    if let Some(f) = &filter {
                        for i in 0..heap.page_count() {
                            let page_rows = heap.read_page(&mut pager.pool(), i)?;
                            for vals in page_rows {
                                let row = Row::new(vals);
                                let keep = match f.eval(&row, &schema) {
                                    Ok(v) => !v.is_truthy(),
                                    Err(e) => {
                                        err.get_or_insert(e);
                                        true
                                    }
                                };
                                if keep {
                                    new_heap.append_row(&mut pager.pool(), row.values())?;
                                }
                            }
                        }
                    }
                    let after = new_heap.len();
                    let t = self.db.table_mut(&table)?;
                    t.replace_heap(new_heap)?;
                    if let Some(e) = err {
                        return Err(e);
                    }
                    let removed = before - after;
                    if removed > 0 {
                        t.mark_indexes_stale();
                    }
                    return Ok(QueryResult::affected(removed));
                }
                let before = t.rows.len();
                match filter {
                    Some(f) => {
                        let mut err = None;
                        t.rows.retain(|row| match f.eval(row, &schema) {
                            Ok(v) => !v.is_truthy(),
                            Err(e) => {
                                err.get_or_insert(e);
                                true
                            }
                        });
                        if let Some(e) = err {
                            return Err(e);
                        }
                    }
                    None => t.rows.clear(),
                }
                let removed = before - t.rows.len();
                if removed > 0 {
                    t.mark_indexes_stale();
                }
                Ok(QueryResult::affected(removed))
            }
            Statement::Select(_) => unreachable!("execute_traced runs SELECT itself"),
        }
    }

    /// Execute a query and pretty-print it (convenience for demos).
    pub fn query_table(&mut self, sql: &str) -> Result<String, SqlError> {
        Ok(self.execute(sql)?.to_table())
    }

    /// Render an `EXPLAIN`-style plan for a SELECT.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        match parse(sql)? {
            Statement::Select(sel) => {
                let plan = Planner::new(&self.db).plan_select(&sel)?;
                let plan = self.optimizer.optimize(plan)?;
                Ok(plan.display_indent())
            }
            other => Err(SqlError::Plan(format!(
                "EXPLAIN supports SELECT only, got {other:?}"
            ))),
        }
    }
}

/// Names of the tables a plan's scans touch.
fn collect_scan_tables(plan: &LogicalPlan, out: &mut Vec<String>) {
    match plan {
        LogicalPlan::Scan { table, .. } => out.push(table.clone()),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Strip { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. } => collect_scan_tables(input, out),
        LogicalPlan::Join { left, right, .. } => {
            collect_scan_tables(left, out);
            collect_scan_tables(right, out);
        }
        LogicalPlan::Union { inputs, .. } => {
            for i in inputs {
                collect_scan_tables(i, out);
            }
        }
        LogicalPlan::Values { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (id INT, name TEXT, score FLOAT)")
            .unwrap();
        e.execute(
            "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'c', 3.5)",
        )
        .unwrap();
        e
    }

    #[test]
    fn end_to_end_select() {
        let mut e = engine();
        let r = e.execute("SELECT name FROM t WHERE id >= 2 ORDER BY id DESC").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0].to_string(), "c");
        assert_eq!(r.column_names(), vec!["name"]);
    }

    #[test]
    fn insert_reports_count() {
        let mut e = engine();
        let r = e.execute("INSERT INTO t VALUES (4, 'd', 4.5)").unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = e.execute("INSERT INTO t VALUES (5, 'e', 0.0), (6, 'f', 0.0)").unwrap();
        assert_eq!(r.rows_affected, 2);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut e = engine();
        e.execute("INSERT INTO t (id) VALUES (9)").unwrap();
        let r = e.execute("SELECT name FROM t WHERE id = 9").unwrap();
        assert!(r.rows[0][0].is_null());
    }

    #[test]
    fn insert_arity_mismatch_rejected() {
        let mut e = engine();
        assert!(e.execute("INSERT INTO t (id, name) VALUES (1)").is_err());
    }

    #[test]
    fn update_with_filter() {
        let mut e = engine();
        let r = e.execute("UPDATE t SET score = score * 2 WHERE id > 1").unwrap();
        assert_eq!(r.rows_affected, 2);
        let r = e.execute("SELECT score FROM t ORDER BY id").unwrap();
        assert_eq!(r.rows[0][0].to_string(), "1.5");
        assert_eq!(r.rows[1][0].to_string(), "5.0");
    }

    #[test]
    fn update_swap_uses_old_values() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE p (a INT, b INT)").unwrap();
        e.execute("INSERT INTO p VALUES (1, 2)").unwrap();
        e.execute("UPDATE p SET a = b, b = a").unwrap();
        let r = e.execute("SELECT a, b FROM p").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert_eq!(r.rows[0][1], Value::Int(1));
    }

    #[test]
    fn delete_with_and_without_filter() {
        let mut e = engine();
        let r = e.execute("DELETE FROM t WHERE id = 1").unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = e.execute("DELETE FROM t").unwrap();
        assert_eq!(r.rows_affected, 2);
        let r = e.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn ddl_lifecycle() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE x (a INT)").unwrap();
        assert!(e.execute("CREATE TABLE x (a INT)").is_err());
        e.execute("CREATE TABLE IF NOT EXISTS x (a INT)").unwrap();
        e.execute("DROP TABLE x").unwrap();
        assert!(e.execute("DROP TABLE x").is_err());
        e.execute("DROP TABLE IF EXISTS x").unwrap();
    }

    #[test]
    fn to_table_renders_grid() {
        let mut e = engine();
        let r = e.execute("SELECT id, name FROM t WHERE id = 1").unwrap();
        let table = r.to_table();
        assert!(table.contains("| id | name |"), "{table}");
        assert!(table.contains("| 1  | a    |"), "{table}");
    }

    #[test]
    fn to_table_for_dml() {
        let mut e = engine();
        let r = e.execute("DELETE FROM t WHERE id = 1").unwrap();
        assert_eq!(r.to_table(), "(1 row(s) affected)");
    }

    #[test]
    fn explain_shows_plan() {
        let e = engine();
        let txt = e.explain("SELECT id FROM t WHERE score > 2").unwrap();
        assert!(txt.contains("Scan: t"), "{txt}");
        assert!(e.explain("DELETE FROM t").is_err());
    }

    #[test]
    fn error_propagates_from_parser() {
        let mut e = engine();
        assert!(matches!(e.execute("SELEC 1"), Err(SqlError::Parse(_))));
    }

    #[test]
    fn query_table_convenience() {
        let mut e = engine();
        let t = e.query_table("SELECT COUNT(*) AS n FROM t").unwrap();
        assert!(t.contains('n'));
        assert!(t.contains('3'));
    }
}

#[cfg(test)]
mod union_tests {
    use super::*;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE a (x INT, label TEXT)").unwrap();
        e.execute("CREATE TABLE b (x INT, label TEXT)").unwrap();
        e.execute("INSERT INTO a VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
        e.execute("INSERT INTO b VALUES (2, 'two'), (4, 'four')").unwrap();
        e
    }

    #[test]
    fn union_dedupes() {
        let mut e = engine();
        let r = e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY 1")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(xs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let mut e = engine();
        let r = e
            .execute("SELECT x FROM a UNION ALL SELECT x FROM b ORDER BY 1")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(xs, vec![1, 2, 2, 3, 4]);
    }

    #[test]
    fn three_arm_chain_with_filters() {
        let mut e = engine();
        let r = e
            .execute(
                "SELECT x FROM a WHERE x > 1 UNION SELECT x FROM b UNION ALL SELECT 99 ORDER BY 1",
            )
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        // A plain UNION anywhere in the chain dedupes the whole result.
        assert_eq!(xs, vec![2, 3, 4, 99]);
    }

    #[test]
    fn trailing_order_and_limit_bind_to_the_union() {
        let mut e = engine();
        let r = e
            .execute("SELECT x, label FROM a UNION ALL SELECT x, label FROM b ORDER BY x DESC LIMIT 2")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(xs, vec![4, 3]);
        // Ordering by output column name also works.
        let r = e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY x DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.rows[0][0].as_i64(), Some(4));
    }

    #[test]
    fn union_with_aggregates_per_arm() {
        let mut e = engine();
        let r = e
            .execute("SELECT COUNT(*) FROM a UNION ALL SELECT COUNT(*) FROM b ORDER BY 1")
            .unwrap();
        let xs: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(xs, vec![2, 3]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut e = engine();
        let err = e
            .execute("SELECT x FROM a UNION SELECT x, label FROM b")
            .unwrap_err();
        assert!(err.to_string().contains("column count"), "{err}");
    }

    #[test]
    fn bad_union_order_key_rejected() {
        let mut e = engine();
        assert!(e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY x + 1")
            .is_err());
        assert!(e
            .execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY 5")
            .is_err());
    }

    #[test]
    fn union_explain_shows_arms() {
        let e = engine();
        let txt = e
            .explain("SELECT x FROM a UNION SELECT x FROM b")
            .unwrap();
        assert!(txt.contains("Union: 2 arm(s) distinct"), "{txt}");
    }

    #[test]
    fn union_optimizes_like_raw() {
        let sql = "SELECT x FROM a WHERE x > 1 UNION SELECT x FROM b WHERE label = 'four' ORDER BY 1";
        let mut opt = engine();
        let mut raw = Engine::with_optimizer(crate::plan::optimizer::Optimizer::disabled());
        raw.execute("CREATE TABLE a (x INT, label TEXT)").unwrap();
        raw.execute("CREATE TABLE b (x INT, label TEXT)").unwrap();
        raw.execute("INSERT INTO a VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
        raw.execute("INSERT INTO b VALUES (2, 'two'), (4, 'four')").unwrap();
        assert_eq!(opt.execute(sql).unwrap().rows, raw.execute(sql).unwrap().rows);
    }
}

#[cfg(test)]
mod columnar_engine_tests {
    use super::*;

    fn pair() -> (Engine, Engine) {
        let mut row = Engine::new();
        let mut col = Engine::with_exec(ExecConfig::columnar());
        for e in [&mut row, &mut col] {
            e.execute("CREATE TABLE t (id INT, grp TEXT, v FLOAT)").unwrap();
            e.execute(
                "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5), \
                 (3, 'a', 3.5), (4, NULL, NULL)",
            )
            .unwrap();
        }
        (row, col)
    }

    #[test]
    fn columnar_engine_matches_row_engine_through_dml() {
        let (mut row, mut col) = pair();
        let check = |row: &mut Engine, col: &mut Engine, sql: &str| {
            let a = row.execute(sql).unwrap();
            let b = col.execute(sql).unwrap();
            assert_eq!(a.rows, b.rows, "{sql}");
        };
        check(&mut row, &mut col, "SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp ORDER BY grp");
        // DML through both engines, cache invalidation included.
        for e in [&mut row, &mut col] {
            e.execute("UPDATE t SET v = v * 2 WHERE id > 2").unwrap();
            e.execute("DELETE FROM t WHERE id = 1").unwrap();
            e.execute("INSERT INTO t VALUES (5, 'c', 9.0)").unwrap();
        }
        check(&mut row, &mut col, "SELECT id, grp, v FROM t ORDER BY id");
        check(&mut row, &mut col, "SELECT grp FROM t WHERE v > 4 ORDER BY id");
    }

    #[test]
    fn exec_config_is_switchable() {
        let (_, mut col) = pair();
        assert_eq!(col.exec_config(), ExecConfig::columnar());
        let a = col.execute("SELECT COUNT(*) FROM t").unwrap();
        col.set_exec_config(ExecConfig::row());
        let b = col.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn traced_columnar_exec_reports_scan_counters() {
        use dbgpt_obs::{Obs, ObsConfig};
        let (_, mut col) = pair();
        let obs = Obs::new(ObsConfig::enabled(7));
        let root = obs.span("request", obs.tick());
        let r = col
            .execute_traced("SELECT COUNT(*) FROM t", &root)
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(obs.counter_value("sql.rows_scanned"), 4);
        assert_eq!(obs.counter_value("sql.chunks_scanned"), 1);
    }

    #[test]
    fn traced_paged_exec_reports_pool_counters() {
        use dbgpt_obs::{Obs, ObsConfig};
        let mut e = Engine::with_storage(crate::StorageConfig::paged(4, 128));
        e.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        let vals: Vec<String> = (0..200).map(|i| format!("({i}, 'x{i}')")).collect();
        e.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
            .unwrap();
        let obs = Obs::new(ObsConfig::enabled(7));
        let root = obs.span("request", obs.tick());
        let r = e.execute_traced("SELECT COUNT(*) FROM t", &root).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(200));
        // A 200-row table behind a 4-frame pool cannot scan without
        // missing in the pool; the deltas must reach the metrics.
        assert!(obs.counter_value("sql.pool.misses") > 0);
        assert!(obs.counter_value("sql.pool.evictions") > 0);
    }
}

#[cfg(test)]
mod count_distinct_tests {
    use super::*;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (cat TEXT, v INT)").unwrap();
        e.execute(
            "INSERT INTO t VALUES ('a', 1), ('a', 1), ('a', 2), ('b', 1), ('b', NULL)",
        )
        .unwrap();
        e
    }

    #[test]
    fn global_count_distinct() {
        let mut e = engine();
        let r = e.execute("SELECT COUNT(DISTINCT cat) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        let r = e.execute("SELECT COUNT(DISTINCT v) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2)); // NULL not counted
    }

    #[test]
    fn grouped_count_distinct() {
        let mut e = engine();
        let r = e
            .execute("SELECT cat, COUNT(DISTINCT v) FROM t GROUP BY cat ORDER BY cat")
            .unwrap();
        assert_eq!(r.rows[0][1], Value::Int(2)); // a: {1,2}
        assert_eq!(r.rows[1][1], Value::Int(1)); // b: {1}
    }

    #[test]
    fn count_distinct_alongside_plain_count() {
        let mut e = engine();
        let r = e
            .execute("SELECT COUNT(v), COUNT(DISTINCT v), COUNT(*) FROM t")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Int(5));
    }

    #[test]
    fn count_distinct_over_empty() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE x (a INT)").unwrap();
        let r = e.execute("SELECT COUNT(DISTINCT a) FROM x").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn distinct_in_non_count_still_rejected() {
        let mut e = engine();
        assert!(e.execute("SELECT AVG(DISTINCT v) FROM t").is_err());
    }
}

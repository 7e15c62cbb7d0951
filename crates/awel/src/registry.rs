//! Operator registry: names → implementations.
//!
//! The AWEL DSL refers to operators by name; applications register their
//! agents/operators here and hand the registry to [`crate::parse_dsl`].
//! This is also the hook behind the paper's "drag and drop" workflow UI —
//! a visual editor needs exactly this name-indexed palette of operators.

use std::collections::BTreeMap;

use crate::error::AwelError;
use crate::operator::{ops, SharedOperator};

/// A name-indexed palette of operators.
#[derive(Clone, Default)]
pub struct OperatorRegistry {
    entries: BTreeMap<String, SharedOperator>,
}

impl OperatorRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        OperatorRegistry::default()
    }

    /// A registry pre-loaded with the structural built-ins every workflow
    /// wants: `identity`, `join`.
    pub fn with_builtins() -> Self {
        let mut r = OperatorRegistry::new();
        r.register("identity", ops::identity());
        r.register("join", ops::join());
        r
    }

    /// Register (or replace) an operator under a name.
    pub fn register(&mut self, name: impl Into<String>, op: SharedOperator) {
        self.entries.insert(name.into(), op);
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Result<SharedOperator, AwelError> {
        self.entries
            .get(name)
            .cloned()
            .ok_or_else(|| AwelError::UnknownOperator(name.to_string()))
    }

    /// Does the registry know this name?
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::fmt::Debug for OperatorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgpt_obs::Span;
    use serde_json::json;

    #[test]
    fn builtins_present() {
        let r = OperatorRegistry::with_builtins();
        assert!(r.contains("identity"));
        assert!(r.contains("join"));
        assert_eq!(r.names(), vec!["identity", "join"]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn register_and_get() {
        let mut r = OperatorRegistry::new();
        r.register("inc", ops::map(|v| json!(v.as_i64().unwrap() + 1)));
        let op = r.get("inc").unwrap();
        assert_eq!(
            op.run(&[json!(1)], &Span::noop()).unwrap(),
            crate::operator::OpOutput::Value(json!(2))
        );
    }

    #[test]
    fn unknown_name_errors() {
        let r = OperatorRegistry::new();
        assert!(matches!(r.get("nope"), Err(AwelError::UnknownOperator(_))));
    }

    #[test]
    fn register_replaces() {
        let mut r = OperatorRegistry::new();
        r.register("x", ops::constant(json!(1)));
        r.register("x", ops::constant(json!(2)));
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.get("x").unwrap().run(&[], &Span::noop()).unwrap(),
            crate::operator::OpOutput::Value(json!(2))
        );
    }
}

//! Query templates and parameter bindings.
//!
//! A *query template* is the paper's unit of workload specification: a query
//! with `%name` substitution parameters. The workload generator produces
//! [`Binding`]s (parameter name → RDF term) and instantiates the template
//! once per binding; the aggregate of the resulting runtimes is what the
//! benchmark reports.

use std::collections::{BTreeMap, BTreeSet};

use parambench_rdf::term::Term;

use crate::ast::{Element, Expr, SelectQuery, VarOrTerm};
use crate::error::QueryError;
use crate::parser::parse_query;

/// A full assignment of RDF terms to a template's parameters.
///
/// Ordered map so that bindings have a canonical display/compare order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Binding(pub BTreeMap<String, Term>);

impl Binding {
    /// An empty binding.
    pub fn new() -> Self {
        Binding(BTreeMap::new())
    }

    /// Builds a binding from `(name, term)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Term)>,
        S: Into<String>,
    {
        Binding(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Adds one parameter value (builder style).
    pub fn with(mut self, name: impl Into<String>, term: Term) -> Self {
        self.0.insert(name.into(), term);
        self
    }

    /// The term bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Term> {
        self.0.get(name)
    }
}

impl Default for Binding {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Display for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (k, v) in &self.0 {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "%{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

/// A parsed query template with named `%parameters`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    name: String,
    query: SelectQuery,
    params: Vec<String>,
    /// The same names as `params`, as a set — precomputed at parse so that
    /// binding validation on the instantiate hot path is pure lookups, with
    /// no per-call string formatting or quadratic scans.
    param_set: BTreeSet<String>,
}

impl QueryTemplate {
    /// Parses a template from query text. `name` labels it in reports.
    pub fn parse(name: impl Into<String>, text: &str) -> Result<Self, QueryError> {
        Ok(Self::from_query(name, parse_query(text)?))
    }

    /// Wraps an already-parsed query.
    pub fn from_query(name: impl Into<String>, query: SelectQuery) -> Self {
        let params = query.params();
        let param_set = params.iter().cloned().collect();
        QueryTemplate { name: name.into(), query, params, param_set }
    }

    /// The template's report label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter names in first-occurrence order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The underlying (parameterized) query.
    pub fn query(&self) -> &SelectQuery {
        &self.query
    }

    /// Validates that `binding` assigns exactly this template's parameters.
    ///
    /// Every template parameter must be bound; extra bindings are rejected
    /// as a likely workload-generator bug. The success path is pure set
    /// lookups; the error message (naming the template and listing its
    /// expected parameters) is only formatted once a mismatch is found.
    pub fn check_binding(&self, binding: &Binding) -> Result<(), QueryError> {
        for p in &self.params {
            if binding.get(p).is_none() {
                return Err(self.mismatch(format_args!("is missing a value for %{p}")));
            }
        }
        for k in binding.0.keys() {
            if !self.param_set.contains(k) {
                return Err(self.mismatch(format_args!("provides unknown parameter %{k}")));
            }
        }
        Ok(())
    }

    fn mismatch(&self, what: std::fmt::Arguments<'_>) -> QueryError {
        let expected = if self.params.is_empty() {
            "(none)".to_string()
        } else {
            self.params.iter().map(|p| format!("%{p}")).collect::<Vec<_>>().join(", ")
        };
        QueryError::BindingMismatch(format!(
            "binding for template '{}' {what}; expected parameters: {expected}",
            self.name
        ))
    }

    /// Substitutes `binding` into the template, producing a concrete query.
    pub fn instantiate(&self, binding: &Binding) -> Result<SelectQuery, QueryError> {
        self.check_binding(binding)?;
        let mut query = self.query.clone();
        substitute_elements(&mut query.where_clause, binding);
        debug_assert!(query.is_concrete());
        Ok(query)
    }
}

fn substitute_elements(elements: &mut [Element], binding: &Binding) {
    for el in elements {
        match el {
            Element::Triple(t) => {
                for slot in [&mut t.subject, &mut t.predicate, &mut t.object] {
                    if let VarOrTerm::Param(p) = slot {
                        let term = binding.get(p).expect("binding validated").clone();
                        *slot = VarOrTerm::Term(term);
                    }
                }
            }
            Element::Filter(e) => *e = instantiate_expr(e, binding),
            Element::Optional(inner) => substitute_elements(inner, binding),
            Element::Union(branches) => {
                for branch in branches {
                    substitute_elements(branch, binding);
                }
            }
        }
    }
}

/// `expr` with every `%param` replaced by its bound term — the one
/// substitution function: [`QueryTemplate::instantiate`] applies it to
/// each FILTER of the cloned query, the engine to each template FILTER it
/// plans or rebinds. `binding` must already be validated.
pub(crate) fn instantiate_expr(expr: &Expr, binding: &Binding) -> Expr {
    let sub = |e: &Expr| Box::new(instantiate_expr(e, binding));
    match expr {
        Expr::Param(p) => Expr::Const(binding.get(p).expect("binding validated").clone()),
        Expr::Not(inner) => Expr::Not(sub(inner)),
        Expr::Binary(op, a, b) => Expr::Binary(*op, sub(a), sub(b)),
        Expr::Var(_) | Expr::Const(_) | Expr::Bound(_) => expr.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEMPLATE: &str = "PREFIX sn: <http://sn/> \
        SELECT ?person WHERE { \
          ?person sn:firstName %name . \
          ?person sn:livesIn %country . \
          FILTER(?person != %excluded) \
        }";

    #[test]
    fn template_lists_params() {
        let t = QueryTemplate::parse("q1", TEMPLATE).unwrap();
        assert_eq!(t.params(), &["name", "country", "excluded"]);
        assert_eq!(t.name(), "q1");
    }

    #[test]
    fn instantiate_substitutes_everywhere() {
        let t = QueryTemplate::parse("q1", TEMPLATE).unwrap();
        let b = Binding::new()
            .with("name", Term::literal("Li"))
            .with("country", Term::iri("http://sn/country/China"))
            .with("excluded", Term::iri("http://sn/person/0"));
        let q = t.instantiate(&b).unwrap();
        assert!(q.is_concrete());
        let pats = q.required_patterns();
        assert_eq!(pats[0].object, VarOrTerm::Term(Term::literal("Li")));
        assert_eq!(pats[1].object, VarOrTerm::Term(Term::iri("http://sn/country/China")));
    }

    #[test]
    fn instantiate_rejects_missing_and_extra() {
        let t = QueryTemplate::parse("q1", TEMPLATE).unwrap();
        let missing = Binding::new().with("name", Term::literal("Li"));
        assert!(matches!(t.instantiate(&missing), Err(QueryError::BindingMismatch(_))));
        let extra = Binding::new()
            .with("name", Term::literal("Li"))
            .with("country", Term::iri("http://c"))
            .with("excluded", Term::iri("http://p"))
            .with("bogus", Term::literal("x"));
        assert!(matches!(t.instantiate(&extra), Err(QueryError::BindingMismatch(_))));
    }

    #[test]
    fn mismatch_messages_name_template_and_expected_params() {
        let t = QueryTemplate::parse("q1", TEMPLATE).unwrap();
        let missing = Binding::new().with("name", Term::literal("Li"));
        let Err(QueryError::BindingMismatch(msg)) = t.instantiate(&missing) else {
            panic!("expected BindingMismatch");
        };
        assert!(msg.contains("'q1'"), "{msg}");
        assert!(msg.contains("%country"), "{msg}");
        assert!(msg.contains("%name, %country, %excluded"), "{msg}");
        let extra = Binding::new()
            .with("name", Term::literal("Li"))
            .with("country", Term::iri("http://c"))
            .with("excluded", Term::iri("http://p"))
            .with("bogus", Term::literal("x"));
        let Err(QueryError::BindingMismatch(msg)) = t.instantiate(&extra) else {
            panic!("expected BindingMismatch");
        };
        assert!(msg.contains("%bogus"), "{msg}");
        assert!(msg.contains("'q1'"), "{msg}");
    }

    #[test]
    fn binding_display_is_sorted() {
        let b = Binding::new().with("z", Term::integer(1)).with("a", Term::literal("x"));
        let text = b.to_string();
        assert!(text.starts_with("%a="), "{text}");
    }

    #[test]
    fn instantiation_does_not_mutate_template() {
        let t = QueryTemplate::parse("q1", TEMPLATE).unwrap();
        let b = Binding::from_pairs([
            ("name", Term::literal("Li")),
            ("country", Term::iri("http://c")),
            ("excluded", Term::iri("http://p")),
        ]);
        let _ = t.instantiate(&b).unwrap();
        assert_eq!(t.params(), &["name", "country", "excluded"]);
        assert!(!t.query().is_concrete());
    }

    #[test]
    fn optional_params_substituted() {
        let t = QueryTemplate::parse("q", "SELECT ?s WHERE { ?s <p> ?o OPTIONAL { ?s <q> %x } }")
            .unwrap();
        assert_eq!(t.params(), &["x"]);
        let q = t.instantiate(&Binding::new().with("x", Term::integer(1))).unwrap();
        assert!(q.is_concrete());
    }
}

//! Abstract syntax for the SPARQL subset.
//!
//! The subset covers what the paper's workloads need: SELECT (optionally
//! DISTINCT) with variable or aggregate projections, basic graph patterns,
//! FILTER expressions, OPTIONAL and UNION groups, GROUP BY, ORDER BY with
//! direction, LIMIT/OFFSET — plus `%name` *substitution parameters*, the paper's core
//! object: a query with parameters is a [`template`](crate::template)
//! instantiated once per binding by the workload generator.

use parambench_rdf::term::Term;

/// Subject/predicate/object slot of a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarOrTerm {
    /// A query variable `?x`.
    Var(String),
    /// A constant RDF term.
    Term(Term),
    /// A substitution parameter `%name`; must be replaced by a term before
    /// the query can be planned.
    Param(String),
}

impl VarOrTerm {
    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            VarOrTerm::Var(v) => Some(v),
            _ => None,
        }
    }

    /// True if this slot still holds an unsubstituted parameter.
    pub fn is_param(&self) -> bool {
        matches!(self, VarOrTerm::Param(_))
    }
}

/// A triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: VarOrTerm,
    /// Predicate position.
    pub predicate: VarOrTerm,
    /// Object position.
    pub object: VarOrTerm,
}

impl TriplePattern {
    /// The three positions, in S-P-O order.
    pub fn positions(&self) -> [&VarOrTerm; 3] {
        [&self.subject, &self.predicate, &self.object]
    }

    /// Variables mentioned by the pattern, in S-P-O slot order.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.positions().into_iter().filter_map(|v| v.as_var())
    }

    /// Parameters mentioned by the pattern.
    pub fn params(&self) -> impl Iterator<Item = &str> {
        self.positions().into_iter().filter_map(|v| match v {
            VarOrTerm::Param(p) => Some(p.as_str()),
            _ => None,
        })
    }
}

/// A scalar expression in FILTER / ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference.
    Var(String),
    /// A constant term.
    Const(Term),
    /// A substitution parameter (resolved at instantiation time).
    Param(String),
    /// Unary logical negation.
    Not(Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `BOUND(?x)` — true when the variable received a binding (OPTIONAL).
    Bound(String),
}

/// Binary operators, in increasing binding strength groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical `||`.
    Or,
    /// Logical `&&`.
    And,
    /// `=`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
}

impl Expr {
    /// Collects variables referenced anywhere in the expression.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) | Expr::Bound(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) | Expr::Param(_) => {}
            Expr::Not(e) => e.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Collects unsubstituted parameters.
    pub fn collect_params(&self, out: &mut Vec<String>) {
        match self {
            Expr::Param(p) => {
                if !out.iter().any(|x| x == p) {
                    out.push(p.clone());
                }
            }
            Expr::Var(_) | Expr::Const(_) | Expr::Bound(_) => {}
            Expr::Not(e) => e.collect_params(out),
            Expr::Binary(_, a, b) => {
                a.collect_params(out);
                b.collect_params(out);
            }
        }
    }
}

/// One element of a group graph pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// A required triple pattern.
    Triple(TriplePattern),
    /// A FILTER constraint over the enclosing group.
    Filter(Expr),
    /// An OPTIONAL sub-group (left outer join).
    Optional(Vec<Element>),
    /// A `{A} UNION {B} [UNION {C} …]` alternative; each branch is a group
    /// of triples and filters (no nesting in the supported subset).
    Union(Vec<Vec<Element>>),
}

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(?x)` / `COUNT(*)`: bound values (or rows).
    Count,
    /// `SUM(?x)` over numeric values (0 when none exist).
    Sum,
    /// `AVG(?x)`: sum over the *numeric* count; unbound when none exist.
    Avg,
    /// `MIN(?x)` over numeric values; unbound when none exist.
    Min,
    /// `MAX(?x)` over numeric values; unbound when none exist.
    Max,
}

/// One projection item of the SELECT clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// A plain variable.
    Var(String),
    /// An aggregate `(FUNC(?x) AS ?alias)`; `var = None` means `COUNT(*)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Input variable (`None` = `COUNT(*)`).
        var: Option<String>,
        /// `FUNC(DISTINCT ?x)`.
        distinct: bool,
        /// Output column name (`AS ?alias`).
        alias: String,
    },
}

impl Projection {
    /// The output column name of this projection.
    pub fn output_name(&self) -> &str {
        match self {
            Projection::Var(v) => v,
            Projection::Aggregate { alias, .. } => alias,
        }
    }
}

/// What an ORDER BY key sorts on.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderTarget {
    /// A pattern variable or an aggregate alias, matched by name.
    Var(String),
    /// A computed expression, e.g. `ORDER BY (?a + ?b)`. Evaluated once
    /// per row into a precomputed sort key (the `SortAtom` path); rows on
    /// which the expression errors sort like unbound values (last).
    Expr(Expr),
}

impl OrderTarget {
    /// The variable/alias name, if this is a plain name key.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            OrderTarget::Var(v) => Some(v),
            OrderTarget::Expr(_) => None,
        }
    }
}

/// A sort key of the ORDER BY clause.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Column to sort by: a variable/alias or a computed expression.
    pub target: OrderTarget,
    /// `DESC(...)` vs `ASC(...)`.
    pub descending: bool,
}

impl OrderKey {
    /// A plain ascending/descending variable key.
    pub fn var(name: impl Into<String>, descending: bool) -> Self {
        OrderKey { target: OrderTarget::Var(name.into()), descending }
    }
}

/// A parsed SELECT query (or query template, when parameters remain).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list (`SELECT *` expands at parse time).
    pub projections: Vec<Projection>,
    /// The WHERE group: triples, filters, OPTIONAL and UNION blocks.
    pub where_clause: Vec<Element>,
    /// GROUP BY variables, in clause order.
    pub group_by: Vec<String>,
    /// ORDER BY keys, in clause order.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
    /// `OFFSET n`.
    pub offset: Option<usize>,
}

impl SelectQuery {
    /// All substitution parameters of the query, in first-occurrence order.
    pub fn params(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(elements: &[Element], out: &mut Vec<String>) {
            for el in elements {
                match el {
                    Element::Triple(t) => {
                        for p in t.params() {
                            if !out.iter().any(|x| x == p) {
                                out.push(p.to_string());
                            }
                        }
                    }
                    Element::Filter(e) => e.collect_params(out),
                    Element::Optional(inner) => walk(inner, out),
                    Element::Union(branches) => {
                        for branch in branches {
                            walk(branch, out);
                        }
                    }
                }
            }
        }
        walk(&self.where_clause, &mut out);
        out
    }

    /// True if no substitution parameters remain (the query is executable).
    pub fn is_concrete(&self) -> bool {
        self.params().is_empty()
    }

    /// True if any projection is an aggregate.
    pub fn has_aggregates(&self) -> bool {
        self.projections.iter().any(|p| matches!(p, Projection::Aggregate { .. }))
    }

    /// Required (non-optional) triple patterns, in syntactic order.
    pub fn required_patterns(&self) -> Vec<&TriplePattern> {
        self.where_clause
            .iter()
            .filter_map(|el| match el {
                Element::Triple(t) => Some(t),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(s: &str, p: &str, o: VarOrTerm) -> TriplePattern {
        TriplePattern {
            subject: VarOrTerm::Var(s.into()),
            predicate: VarOrTerm::Term(Term::iri(p)),
            object: o,
        }
    }

    #[test]
    fn pattern_vars_and_params() {
        let t = tp("s", "http://p", VarOrTerm::Param("country".into()));
        assert_eq!(t.vars().collect::<Vec<_>>(), vec!["s"]);
        assert_eq!(t.params().collect::<Vec<_>>(), vec!["country"]);
    }

    #[test]
    fn query_params_dedup_in_order() {
        let q = SelectQuery {
            distinct: false,
            projections: vec![Projection::Var("s".into())],
            where_clause: vec![
                Element::Triple(tp("s", "http://p1", VarOrTerm::Param("x".into()))),
                Element::Triple(tp("s", "http://p2", VarOrTerm::Param("y".into()))),
                Element::Optional(vec![Element::Triple(tp(
                    "s",
                    "http://p3",
                    VarOrTerm::Param("x".into()),
                ))]),
                Element::Filter(Expr::Binary(
                    BinOp::Ne,
                    Box::new(Expr::Var("s".into())),
                    Box::new(Expr::Param("z".into())),
                )),
            ],
            group_by: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        };
        assert_eq!(q.params(), vec!["x", "y", "z"]);
        assert!(!q.is_concrete());
    }

    #[test]
    fn expr_var_collection() {
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Binary(
                BinOp::Lt,
                Box::new(Expr::Var("a".into())),
                Box::new(Expr::Const(Term::integer(3))),
            )),
            Box::new(Expr::Bound("b".into())),
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec!["a", "b"]);
    }

    #[test]
    fn projection_names() {
        assert_eq!(Projection::Var("x".into()).output_name(), "x");
        let agg = Projection::Aggregate {
            func: AggFunc::Avg,
            var: Some("price".into()),
            distinct: false,
            alias: "avgPrice".into(),
        };
        assert_eq!(agg.output_name(), "avgPrice");
    }
}

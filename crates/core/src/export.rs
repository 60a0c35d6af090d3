//! Exporting curated workloads as benchmark artifacts.
//!
//! §III: "BSBM-BI Query 4 would turn into two queries, Q4a (where type
//! parameter denote a very specific product's type) and Q4b (with parameter
//! being a generic type of many products)."
//!
//! This module materializes exactly those artifacts: for each parameter
//! class, a *named sub-query* (the original template re-labelled `Q4a`,
//! `Q4b`, …) together with its member binding list in a simple
//! tab-separated format a driver can replay, plus a manifest describing the
//! classes. Everything round-trips through [`parse_workload_bindings`].

use std::fmt::Write as _;

use parambench_rdf::term::Term;
use parambench_sparql::template::{Binding, QueryTemplate};

use crate::curation::CuratedWorkload;
use crate::error::CurationError;

/// One exported class artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassArtifact {
    /// Sub-query name: `<template><suffix>` (Q4a, Q4b, …).
    pub name: String,
    /// The (still parameterized) query text of the sub-query.
    pub query_text: String,
    /// Member bindings in TSV: one line per binding, `name=term` cells.
    pub bindings_tsv: String,
}

/// Suffix for class `i`: a, b, …, z, aa, ab, …
fn class_suffix(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.insert(0, (b'a' + (i % 26) as u8) as char);
        i /= 26;
        if i == 0 {
            return s;
        }
        i -= 1;
    }
}

/// Exports every class of a curated workload.
pub fn export_workload(workload: &CuratedWorkload) -> Vec<ClassArtifact> {
    let template = workload.template();
    let query_text = template.query().to_string();
    workload
        .classes()
        .iter()
        .map(|class| {
            let mut tsv = String::new();
            for m in &class.members {
                let cells: Vec<String> =
                    m.binding.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
                writeln!(tsv, "{}", cells.join("\t")).expect("string write");
            }
            ClassArtifact {
                name: format!("{}{}", template.name(), class_suffix(class.id)),
                query_text: query_text.clone(),
                bindings_tsv: tsv,
            }
        })
        .collect()
}

/// Renders the class manifest (one line per class: name, size, cost band,
/// plan) — the index a benchmark README would embed.
pub fn manifest(workload: &CuratedWorkload) -> String {
    let mut out = String::new();
    for class in workload.classes() {
        writeln!(
            out,
            "{}{}\tmembers={}\tcout=[{:.1},{:.1}]\tplan={}",
            workload.template().name(),
            class_suffix(class.id),
            class.len(),
            class.cost_lo,
            class.cost_hi,
            class.signature
        )
        .expect("string write");
    }
    out
}

/// Parses a bindings TSV produced by [`export_workload`] back into
/// [`Binding`]s (terms in N-Triples syntax).
pub fn parse_workload_bindings(tsv: &str) -> Result<Vec<Binding>, CurationError> {
    let mut out = Vec::new();
    for (lineno, line) in tsv.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut binding = Binding::new();
        for cell in line.split('\t') {
            let (name, term_text) = cell.split_once('=').ok_or_else(|| {
                CurationError::DomainMismatch(format!("line {}: bad cell {cell:?}", lineno + 1))
            })?;
            let term = parse_term(term_text)
                .map_err(|e| CurationError::DomainMismatch(format!("line {}: {e}", lineno + 1)))?;
            binding = binding.with(name.trim_start_matches('%'), term);
        }
        out.push(binding);
    }
    Ok(out)
}

/// Parses one term in N-Triples-style syntax (the format `Term: Display`
/// emits) by reusing the store's statement parser.
fn parse_term(text: &str) -> Result<Term, String> {
    // Wrap into a dummy statement; subject/predicate are throwaway.
    let stmt = format!("<d:s> <d:p> {text} .");
    parambench_rdf::ntriples::parse_line(&stmt).map(|(_, _, o)| o)
}

/// Replays an exported artifact: instantiates its query per binding.
///
/// Convenience for drivers; verifies that the artifact is self-consistent
/// (every binding covers the template's parameters).
pub fn replay_artifact(
    artifact: &ClassArtifact,
) -> Result<Vec<parambench_sparql::SelectQuery>, CurationError> {
    let template = QueryTemplate::parse(artifact.name.clone(), &artifact.query_text)
        .map_err(CurationError::Query)?;
    let bindings = parse_workload_bindings(&artifact.bindings_tsv)?;
    bindings.iter().map(|b| template.instantiate(b).map_err(CurationError::Query)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::curation::{curate, CurationConfig};
    use crate::domain::ParameterDomain;
    use parambench_rdf::store::StoreBuilder;
    use parambench_sparql::engine::Engine;

    fn workload() -> (parambench_rdf::store::Dataset, CuratedWorkload) {
        let mut b = StoreBuilder::new();
        for i in 0..200 {
            let ty = if i < 150 { 0 } else { 1 + i % 3 };
            b.insert(Term::iri(format!("p/{i}")), Term::iri("type"), Term::iri(format!("c/{ty}")));
            b.insert(Term::iri(format!("p/{i}")), Term::iri("v"), Term::integer(i as i64));
        }
        let ds = b.freeze();
        let workload = {
            let engine = Engine::new(&ds);
            let t =
                QueryTemplate::parse("Q4", "SELECT ?p ?x WHERE { ?p <type> %type . ?p <v> ?x }")
                    .unwrap();
            let domain = ParameterDomain::from_objects(&ds, "type", &Term::iri("type")).unwrap();
            curate(
                &engine,
                &t,
                &domain,
                &CurationConfig {
                    cluster: ClusterConfig { epsilon: 1.0, min_class_size: 1 },
                    ..Default::default()
                },
            )
            .unwrap()
        };
        (ds, workload)
    }

    #[test]
    fn class_suffixes() {
        assert_eq!(class_suffix(0), "a");
        assert_eq!(class_suffix(1), "b");
        assert_eq!(class_suffix(25), "z");
        assert_eq!(class_suffix(26), "aa");
        assert_eq!(class_suffix(27), "ab");
    }

    #[test]
    fn export_names_classes_like_the_paper() {
        let (_ds, workload) = workload();
        let artifacts = export_workload(&workload);
        assert!(artifacts.len() >= 2, "generic vs specific types must split");
        assert_eq!(artifacts[0].name, "Q4a");
        assert_eq!(artifacts[1].name, "Q4b");
        for a in &artifacts {
            assert!(a.query_text.contains("%type"));
            assert!(!a.bindings_tsv.is_empty());
        }
    }

    #[test]
    fn manifest_lists_every_class() {
        let (_ds, workload) = workload();
        let m = manifest(&workload);
        assert_eq!(m.lines().count(), workload.classes().len());
        // A join plan signature: the logical join tree.
        assert!(m.contains("plan=HJ("), "{m}");
    }

    #[test]
    fn bindings_round_trip() {
        let (_ds, workload) = workload();
        let artifacts = export_workload(&workload);
        for (artifact, class) in artifacts.iter().zip(workload.classes()) {
            let parsed = parse_workload_bindings(&artifact.bindings_tsv).unwrap();
            assert_eq!(parsed.len(), class.len());
            for (p, m) in parsed.iter().zip(&class.members) {
                assert_eq!(p, &m.binding);
            }
        }
    }

    #[test]
    fn replay_instantiates_concrete_queries() {
        let (_ds, workload) = workload();
        let artifacts = export_workload(&workload);
        let queries = replay_artifact(&artifacts[0]).unwrap();
        assert_eq!(queries.len(), workload.classes()[0].len());
        for q in queries {
            assert!(q.is_concrete());
        }
    }

    #[test]
    fn malformed_tsv_is_rejected() {
        assert!(parse_workload_bindings("no-equals-sign").is_err());
        assert!(parse_workload_bindings("x=<unterminated").is_err());
        assert!(parse_workload_bindings("").unwrap().is_empty());
    }
}

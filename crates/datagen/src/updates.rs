//! Mixed read/write BSBM-style workload (the "BI + continuous updates"
//! scenario): a deterministic interleaving of insert batches, delete
//! batches, occasional compactions and template queries over a generated
//! [`Bsbm`] instance.
//!
//! The generator produces a *script* ([`WorkloadStep`] sequence), not
//! effects: benches and tests replay it against a live
//! [`parambench_rdf::store::Dataset`] (or a
//! `parambench_sparql::serve::SparqlServer` via its `update` entry point)
//! however they need to. The script exercises every overlay path on
//! purpose:
//!
//! * insert batches add *new* offers with fresh IRIs — post-freeze terms,
//!   i.e. dictionary overflow ids;
//! * delete batches retract a mix of those live offers (add-run removal)
//!   and original product labels (base tombstones);
//! * some retracted labels are re-inserted later (tombstone lifts);
//! * periodic [`WorkloadStep::Compact`] steps re-freeze base+delta;
//! * query steps draw from the BSBM template mix with in-domain
//!   parameters, so plans run over whatever overlay state the preceding
//!   writes left behind.

use parambench_rdf::term::Term;
use parambench_sparql::template::{Binding, QueryTemplate};
use rand::Rng;

use crate::bsbm::{schema, Bsbm};
use crate::dist::stream_rng;
use rand::rngs::StdRng;

/// Configuration of the mixed workload generator.
#[derive(Debug, Clone)]
pub struct MixedWorkloadConfig {
    /// Total number of steps to emit.
    pub steps: usize,
    /// Triples-bearing entities (offers/labels) touched per write batch.
    pub batch: usize,
    /// Every `query_every`-th step is a query instead of a write.
    pub query_every: usize,
    /// Every `compact_every`-th step is a compaction (0 = never).
    pub compact_every: usize,
    /// RNG seed (independent of the dataset's own seed).
    pub seed: u64,
}

impl Default for MixedWorkloadConfig {
    fn default() -> Self {
        MixedWorkloadConfig { steps: 60, batch: 8, query_every: 3, compact_every: 20, seed: 7 }
    }
}

/// One step of the mixed workload.
#[derive(Debug, Clone)]
pub enum WorkloadStep {
    /// Insert these triples as one batch.
    Insert(Vec<(Term, Term, Term)>),
    /// Delete these triples as one batch.
    Delete(Vec<(Term, Term, Term)>),
    /// Re-freeze base+delta (`Dataset::compact`).
    Compact,
    /// Run `templates[template]` under `binding`.
    Query {
        /// Index into [`MixedWorkload::templates`].
        template: usize,
        /// In-domain parameter binding for that template.
        binding: Binding,
    },
}

/// A generated mixed read/write workload: the template pool plus the step
/// script. Deterministic in the config seed.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    /// The query templates the [`WorkloadStep::Query`] steps index into.
    pub templates: Vec<QueryTemplate>,
    /// The step script, in execution order.
    pub steps: Vec<WorkloadStep>,
}

impl MixedWorkload {
    /// Generates the workload script for a BSBM instance.
    pub fn generate(bsbm: &Bsbm, config: &MixedWorkloadConfig) -> Self {
        let templates = vec![
            Bsbm::q4_feature_price_by_type(),
            Bsbm::q_cheapest_products_of_type(),
            Bsbm::q_catalog_of_type(),
            Bsbm::q_rating_by_type(),
            Bsbm::q2_similar_products(),
            Bsbm::q_type_feature_offers(),
        ];
        let mut rng = stream_rng(config.seed, "bsbm-mixed-workload");
        let products = bsbm.config.products;
        let vendors = bsbm.config.vendors.max(1);
        let types = bsbm.types.len();
        let features = types * bsbm.config.features_per_type;

        // Live offers inserted so far (still present), as full triple sets,
        // and labels currently retracted (candidates for re-insertion).
        let mut live_offers: Vec<Vec<(Term, Term, Term)>> = Vec::new();
        let mut retracted_labels: Vec<(Term, Term, Term)> = Vec::new();
        let mut next_offer = 0usize;

        let offer_triples = |k: usize, rng: &mut StdRng| {
            let offer = Term::iri(format!("{}LiveOffer{k}", schema::NS));
            let pi = rng.gen_range(0..products);
            vec![
                (offer.clone(), Term::iri(schema::OFFER_PRODUCT), Term::iri(schema::product(pi))),
                (
                    offer.clone(),
                    Term::iri(schema::OFFER_VENDOR),
                    Term::iri(schema::vendor(rng.gen_range(0..vendors))),
                ),
                (
                    offer,
                    Term::iri(schema::OFFER_PRICE),
                    Term::double(rng.gen_range(50.0..500.0_f64).round()),
                ),
            ]
        };
        let label_triple = |pi: usize| {
            (
                Term::iri(schema::product(pi)),
                Term::iri(schema::LABEL),
                Term::literal(format!("product {pi}")),
            )
        };

        let mut steps = Vec::with_capacity(config.steps);
        for step in 1..=config.steps {
            if config.compact_every > 0 && step % config.compact_every == 0 {
                steps.push(WorkloadStep::Compact);
                continue;
            }
            if config.query_every > 0 && step % config.query_every == 0 {
                let template = rng.gen_range(0..templates.len());
                let binding = match templates[template].name() {
                    "BSBM-BI-Q2" => Binding::new()
                        .with("product", Term::iri(schema::product(rng.gen_range(0..products)))),
                    "BSBM-TYPE-FEATURE" => Binding::new()
                        .with("type", Term::iri(schema::product_type(rng.gen_range(0..types))))
                        .with("feature", Term::iri(schema::feature(rng.gen_range(0..features)))),
                    _ => Binding::new()
                        .with("type", Term::iri(schema::product_type(rng.gen_range(0..types)))),
                };
                steps.push(WorkloadStep::Query { template, binding });
                continue;
            }
            // Write step: lean toward inserts so the overlay grows.
            let deleting = !live_offers.is_empty() && rng.gen_range(0..3) == 0;
            if deleting {
                let mut batch = Vec::new();
                for _ in 0..config.batch.min(live_offers.len()).max(1) {
                    if live_offers.is_empty() {
                        break;
                    }
                    let i = rng.gen_range(0..live_offers.len());
                    batch.extend(live_offers.swap_remove(i));
                }
                // Tombstone a couple of base label triples too.
                for _ in 0..2 {
                    let label = label_triple(rng.gen_range(0..products));
                    if !retracted_labels.contains(&label) && !batch.contains(&label) {
                        batch.push(label.clone());
                        retracted_labels.push(label);
                    }
                }
                steps.push(WorkloadStep::Delete(batch));
            } else {
                let mut batch = Vec::new();
                for _ in 0..config.batch {
                    let triples = offer_triples(next_offer, &mut rng);
                    next_offer += 1;
                    live_offers.push(triples.clone());
                    batch.extend(triples);
                }
                // Occasionally lift an earlier label tombstone.
                if !retracted_labels.is_empty() && rng.gen_range(0..2) == 0 {
                    batch.push(retracted_labels.swap_remove(0));
                }
                steps.push(WorkloadStep::Insert(batch));
            }
        }
        MixedWorkload { templates, steps }
    }

    /// Applies one step of this workload to a served store through the
    /// durable commit path: write steps go through
    /// [`SparqlServer::try_update`] — journaled and fsynced *before*
    /// publication when the server is durable — and query steps through
    /// [`SparqlServer::run`]. Returns the served output for query steps,
    /// `None` for writes. A journal failure surfaces as the typed
    /// [`parambench_sparql::QueryError::Wal`]; the store is unchanged.
    ///
    /// [`SparqlServer::try_update`]: parambench_sparql::serve::SparqlServer::try_update
    /// [`SparqlServer::run`]: parambench_sparql::serve::SparqlServer::run
    pub fn apply_step(
        &self,
        server: &mut parambench_sparql::serve::SparqlServer,
        step: &WorkloadStep,
    ) -> Result<Option<parambench_sparql::serve::ServedOutput>, parambench_sparql::QueryError> {
        match step {
            WorkloadStep::Insert(batch) => {
                server.try_update(|ds| ds.insert_batch(batch.iter().cloned()))?;
                Ok(None)
            }
            WorkloadStep::Delete(batch) => {
                server.try_update(|ds| ds.delete_batch(batch.iter().cloned()))?;
                Ok(None)
            }
            WorkloadStep::Compact => {
                server.try_update(|ds| ds.compact())?;
                Ok(None)
            }
            WorkloadStep::Query { template, binding } => {
                server.run(&self.templates[*template], binding).map(Some)
            }
        }
    }

    /// Number of write steps (insert/delete batches) in the script.
    pub fn write_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, WorkloadStep::Insert(_) | WorkloadStep::Delete(_)))
            .count()
    }

    /// Number of query steps in the script.
    pub fn query_steps(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, WorkloadStep::Query { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsbm::BsbmConfig;
    use parambench_sparql::engine::Engine;
    use parambench_sparql::serve::{ServeConfig, SparqlServer};
    use std::sync::Arc;

    fn small_bsbm() -> Bsbm {
        Bsbm::generate(BsbmConfig {
            products: 120,
            type_depth: 3,
            type_branching: 2,
            ..Default::default()
        })
    }

    #[test]
    fn script_is_deterministic_and_mixed() {
        let g = small_bsbm();
        let cfg = MixedWorkloadConfig::default();
        let a = MixedWorkload::generate(&g, &cfg);
        let b = MixedWorkload::generate(&g, &cfg);
        assert_eq!(a.steps.len(), cfg.steps);
        assert_eq!(a.write_steps(), b.write_steps());
        assert_eq!(a.query_steps(), b.query_steps());
        assert!(a.write_steps() > 0 && a.query_steps() > 0);
        assert!(a.steps.iter().any(|s| matches!(s, WorkloadStep::Compact)));
    }

    /// Replaying the script against a served store works end to end: every
    /// query runs, every write batch applies, compactions restore the
    /// value-order invariant, and each update bumps the server epoch.
    #[test]
    fn replay_against_server() {
        let g = small_bsbm();
        let workload =
            MixedWorkload::generate(&g, &MixedWorkloadConfig { steps: 30, ..Default::default() });
        let mut server = SparqlServer::new(
            Arc::new(g.dataset.clone()),
            ServeConfig { max_concurrent: 2, ..Default::default() },
        );
        let mut updates = 0u64;
        for step in &workload.steps {
            match step {
                WorkloadStep::Insert(batch) => {
                    server.try_update(|ds| ds.insert_batch(batch.iter().cloned())).unwrap();
                    updates += 1;
                }
                WorkloadStep::Delete(batch) => {
                    server.try_update(|ds| ds.delete_batch(batch.iter().cloned())).unwrap();
                    updates += 1;
                }
                WorkloadStep::Compact => {
                    server.try_update(|ds| ds.compact()).unwrap();
                    updates += 1;
                    assert!(server.dataset().order_by_value_intact());
                }
                WorkloadStep::Query { template, binding } => {
                    let out = server.run(&workload.templates[*template], binding).unwrap();
                    // Served rows match a cold engine over the same store.
                    let engine = Engine::new(server.dataset());
                    let cold =
                        engine.run_template(&workload.templates[*template], binding).unwrap();
                    assert_eq!(out.output.results.rows, cold.results.rows);
                }
            }
        }
        assert_eq!(server.epoch(), updates);
    }

    /// The same script through [`MixedWorkload::apply_step`] against a
    /// *durable* server: every write is journaled, and after a simulated
    /// crash (drop without checkpoint) recovery replays the journal back
    /// to the live store's exact state.
    #[test]
    fn replay_against_durable_server_and_recover() {
        let g = small_bsbm();
        let workload =
            MixedWorkload::generate(&g, &MixedWorkloadConfig { steps: 24, ..Default::default() });
        let dir =
            std::env::temp_dir().join(format!("parambench-updates-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = Arc::new(g.dataset.clone());
        let mut server = SparqlServer::create_durable(base, &dir, ServeConfig::default())
            .expect("creates durable store");
        let mut query_rows = Vec::new();
        for step in &workload.steps {
            if let Some(out) = workload.apply_step(&mut server, step).expect("step applies") {
                query_rows.push(out.output.results.rows.len());
            }
        }
        assert_eq!(query_rows.len(), workload.query_steps());
        let live_triples = server.dataset().stats().total_triples;
        let journal_len = server.journal_len();
        assert!(journal_len > 0);
        drop(server); // crash: no checkpoint
        let recovered = SparqlServer::open_durable(&dir, ServeConfig::default()).expect("recovers");
        assert!(recovered.recovered_records() > 0);
        assert_eq!(recovered.dataset().stats().total_triples, live_triples);
        // Checkpoint truncates the journal; a further reopen replays nothing.
        let mut recovered = recovered;
        recovered.checkpoint().expect("checkpoints");
        drop(recovered);
        let reopened = SparqlServer::open_durable(&dir, ServeConfig::default()).expect("reopens");
        assert_eq!(reopened.recovered_records(), 0);
        assert_eq!(reopened.dataset().stats().total_triples, live_triples);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! `curate` — the paper's product.
//!
//! BSBM and SNB at the default scale, heap-built stores, one thread.
//! Rounds over four templates; each round takes every template through
//! `curate` (`profile_domain` then `cluster`) → `sample_class` →
//! `run_workload` → `validate_workload`, with a different domain sample
//! every round. One optimizer run per profiled binding makes the curate
//! stage prepare-bound; the validate stage is where queries execute.

use std::path::Path;
use std::time::Instant;

use parambench_core::{
    cluster, curate, run_workload, validate_workload, ClusterConfig, CostSource, CuratedWorkload,
    CurationConfig, Metric, ParameterDomain, ProfileConfig, RunConfig, ValidationConfig,
};
use parambench_datagen::{Bsbm, Snb};
use parambench_sparql::{Engine, QueryTemplate};

use super::{Bench, Timed, RESTARTS};
use crate::cli::Size;
use crate::data::{self, ms_since, LayerLog};
use crate::rng::{derive, Fnv};
use crate::trace::Tracer;

/// Which store a template runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    Bsbm,
    Snb,
}

struct Case {
    store: Store,
    template: QueryTemplate,
    domain: ParameterDomain,
    cost_source: CostSource,
}

/// The set-up `curate` workload.
pub struct Curate {
    bsbm: Bsbm,
    snb: Snb,
    cases: Vec<Case>,
    seed: u64,
    /// Bindings profiled per template per round.
    bindings: usize,
    /// Next round to run.
    round: u64,
    /// Class digest of round 0, once it has run.
    round0_digest: Option<u64>,
}

/// Bindings drawn per class for `run_workload`, and per sample for
/// `validate_workload` (which draws two samples per class).
const SAMPLE: usize = 2;

/// The clustering every round uses: the library's defaults (classes of
/// cost within a factor of two, at least three members).
fn cluster_config() -> ClusterConfig {
    ClusterConfig { epsilon: 1.0, min_class_size: 3 }
}

impl Curate {
    fn engine(&self, store: Store) -> Engine<'_> {
        match store {
            Store::Bsbm => Engine::new(&self.bsbm.dataset),
            Store::Snb => Engine::new(&self.snb.dataset),
        }
    }

    fn config(&self, round: u64, case: usize) -> CurationConfig {
        CurationConfig {
            profile: ProfileConfig {
                max_bindings: self.bindings,
                seed: derive(self.seed, &format!("round-{round}-{case}")),
                cost_source: self.cases[case].cost_source,
            },
            cluster: cluster_config(),
        }
    }

    /// One round; returns its class digest.
    fn one_round(&self, round: u64, tracer: &mut Tracer, out: &mut Timed) -> u64 {
        let mut digest = Fnv::default();
        let mut curate_ms = 0.0;
        let mut validate_ms = 0.0;
        let mut queries = 0usize;
        let run_cfg = RunConfig { warmup: 0, threads: 1, mem_budget_rows: None };
        for (ci, case) in self.cases.iter().enumerate() {
            out.attempted += 1;
            let engine = self.engine(case.store);
            let config = self.config(round, ci);
            let sample_seed = derive(config.profile.seed, "sample");

            let t = Instant::now();
            let curated = tracer.span("core::curation curate", round, |_| {
                curate(&engine, &case.template, &case.domain, &config)
            });
            let curated = match curated {
                Ok(c) => c,
                Err(e) => {
                    out.fail(|| format!("round {round} {}: curate: {e}", case.template.name()));
                    continue;
                }
            };
            let profile_ms = ms_since(t);
            let t_sample = Instant::now();
            let samples = tracer.span("core::curation sample_class", round, |_| {
                curated
                    .classes()
                    .iter()
                    .map(|c| curated.sample_class(c.id, SAMPLE, sample_seed))
                    .collect::<Result<Vec<_>, _>>()
            });
            out.sample("sample_ms", ms_since(t_sample));
            let stage_ms = ms_since(t);
            curate_ms += stage_ms;
            let profiled = curated.clustering().retained() + curated.clustering().dropped.len();
            out.work += profiled as f64;
            out.busy_s += stage_ms / 1e3;
            out.sample("profile_us_per_binding", profile_ms * 1e3 / profiled.max(1) as f64);
            out.sample("classes_kept", curated.classes().len() as f64);
            out.sample("profiles_dropped", curated.clustering().dropped.len() as f64);

            if tracer.is_on() {
                // `curate` is one call; `cluster` alone is timed by running
                // it again over the same profiles (traced runs only).
                let profiles: Vec<_> = curated
                    .classes()
                    .iter()
                    .flat_map(|c| c.members.iter().cloned())
                    .chain(curated.clustering().dropped.iter().cloned())
                    .collect();
                let t = Instant::now();
                let again = tracer
                    .span("core::cluster cluster", round, |_| cluster(&profiles, &config.cluster));
                out.sample("cluster_ms", ms_since(t));
                if again.map(|c| c.classes.len()).ok() != Some(curated.classes().len()) {
                    out.fail(|| format!("round {round}: re-clustering changed the class count"));
                }
            }

            let t = Instant::now();
            let samples = match samples {
                Ok(s) => s,
                Err(e) => {
                    out.fail(|| format!("round {round}: sample_class: {e}"));
                    continue;
                }
            };
            let ran = tracer.span("core::workload run_workload", round, |_| {
                samples
                    .iter()
                    .map(|s| run_workload(&engine, &case.template, s, &run_cfg).map(|m| m.len()))
                    .sum::<Result<usize, _>>()
            });
            out.sample("run_workload_ms", ms_since(t));
            let t_val = Instant::now();
            let validation = tracer.span("core::validate validate_workload", round, |_| {
                validate_workload(
                    &engine,
                    &curated,
                    &ValidationConfig {
                        sample_size: SAMPLE,
                        metric: Metric::Cout,
                        seed: sample_seed,
                        threads: 1,
                        ..ValidationConfig::default()
                    },
                )
            });
            out.sample("validate_ms", ms_since(t_val));
            validate_ms += ms_since(t);

            let ok = tracer.span("harness verify", round, |_| match (&ran, &validation) {
                (Ok(n), Ok(v)) => {
                    queries += n + v.iter().map(|c| c.summary.len()).sum::<usize>();
                    let passing = v.iter().filter(|c| c.all_ok()).count();
                    out.sample("classes_passing_ratio", passing as f64 / v.len().max(1) as f64);
                    let p3 = v.iter().all(|c| c.p3_ok);
                    let conditions = check_conditions(&curated, &config.cluster);
                    if !p3 {
                        out.fail(|| {
                            format!(
                                "round {round} {}: a class executed more than one plan",
                                case.template.name()
                            )
                        });
                    }
                    if let Err(why) = &conditions {
                        out.fail(|| format!("round {round} {}: {why}", case.template.name()));
                    }
                    p3 && conditions.is_ok()
                }
                (Err(e), _) | (_, Err(e)) => {
                    out.fail(|| format!("round {round} {}: {e}", case.template.name()));
                    false
                }
            });
            if ok {
                digest_classes(&curated, &mut digest);
            }
        }
        out.primary_ms.push(curate_ms);
        if queries > 0 {
            out.secondary_ms.push(validate_ms / queries as f64);
            out.count("validate_queries", queries as f64);
            out.count("validate_s", validate_ms / 1e3);
        }
        digest.0
    }
}

/// Conditions (a)–(c) of the paper's problem statement, on the classes
/// `curate` returned: (a) one plan per class, (b) member costs inside the
/// class's band and the band no wider than ε allows, (c) classes that
/// share a plan have disjoint cost bands (so every class is a distinct
/// plan-and-cost cell).
pub fn check_conditions(w: &CuratedWorkload, config: &ClusterConfig) -> Result<(), String> {
    for c in w.classes() {
        if c.members.iter().any(|m| m.signature != c.signature) {
            return Err(format!("condition (a): class {} mixes plans", c.id));
        }
        if c.members.iter().any(|m| m.cost < c.cost_lo || m.cost > c.cost_hi)
            || c.cost_hi > c.cost_lo * (1.0 + config.epsilon) + 1.0
        {
            return Err(format!("condition (b): class {} cost band too wide", c.id));
        }
    }
    for (i, a) in w.classes().iter().enumerate() {
        for b in &w.classes()[i + 1..] {
            if a.signature == b.signature && a.cost_lo <= b.cost_hi && b.cost_lo <= a.cost_hi {
                return Err(format!("condition (c): classes {} and {} overlap", a.id, b.id));
            }
        }
    }
    Ok(())
}

/// Folds a curation's classes (count, plans, members in order) into `h`.
pub fn digest_classes(w: &CuratedWorkload, h: &mut Fnv) {
    h.write_str(w.template().name());
    h.write(&(w.classes().len() as u64).to_le_bytes());
    for c in w.classes() {
        h.write_str(&c.signature.0);
        for m in &c.members {
            h.write_str(&m.binding.to_string());
        }
    }
}

impl Bench for Curate {
    fn setup(seed: u64, size: Size, dir: &Path, log: &mut LayerLog) -> Result<Self, String> {
        let triples = data::scale(size);
        let bsbm = data::bsbm(triples, log);
        let snb = data::snb(triples, log);
        // The designer's stores are heap-built; they are still saved and
        // reloaded so set-up and restart mean the same on every workload.
        for (name, ds) in [("bsbm.pbsnap", &bsbm.dataset), ("snb.pbsnap", &snb.dataset)] {
            data::save(ds, &dir.join(name), log)?;
        }
        for _ in 0..RESTARTS {
            let t = Instant::now();
            let a = data::load(&dir.join("bsbm.pbsnap"), log)?;
            let b = data::load(&dir.join("snb.pbsnap"), log)?;
            log.add("restart_ms", ms_since(t));
            if a.len() != bsbm.dataset.len() || b.len() != snb.dataset.len() {
                return Err("a reloaded snapshot lost triples".into());
            }
        }
        let cases = vec![
            Case {
                store: Store::Bsbm,
                template: Bsbm::q4_feature_price_by_type(),
                domain: ParameterDomain::single("type", bsbm.type_iris()),
                cost_source: CostSource::EstimatedCout,
            },
            Case {
                store: Store::Bsbm,
                template: Bsbm::q2_similar_products(),
                domain: ParameterDomain::single("product", bsbm.product_iris()),
                cost_source: CostSource::MeasuredCout,
            },
            Case {
                store: Store::Snb,
                template: Snb::q2_friend_posts(),
                domain: ParameterDomain::single("person", snb.person_iris()),
                cost_source: CostSource::MeasuredCout,
            },
            Case {
                store: Store::Snb,
                template: Snb::q3_two_countries(),
                domain: ParameterDomain::new()
                    .with("person", snb.person_iris())
                    .with("countryX", snb.country_iris())
                    .with("countryY", snb.country_iris()),
                cost_source: CostSource::EstimatedCout,
            },
        ];
        let bindings = match size {
            Size::Full => 512,
            Size::Smoke => 48,
        };
        let mut this = Curate { bsbm, snb, cases, seed, bindings, round: 0, round0_digest: None };
        // Warm-up: one small untimed round (allocator, page cache, the
        // estimators' first-use work).
        this.bindings = 32;
        let mut warm = Timed::default();
        this.one_round(u64::MAX, &mut Tracer::off(), &mut warm);
        this.bindings = bindings;
        if warm.failed > 0 {
            return Err(format!("warm-up round failed: {}", warm.failures.join("; ")));
        }
        Ok(this)
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Timed {
        let start = Instant::now();
        let mut tracer = if trace { Tracer::on(start, 0) } else { Tracer::off() };
        let mut out = Timed::default();
        while start.elapsed().as_secs_f64() < seconds {
            let round = self.round;
            let digest =
                tracer.span("harness round", round, |t| self.one_round(round, t, &mut out));
            if round == 0 {
                self.round0_digest = Some(digest);
            }
            self.round += 1;
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out.spans = vec![tracer.into_spans()];
        out
    }

    fn finish(&mut self, timed: &mut Timed) {
        // Determinism per seed: round 0 again must give the same classes
        // with the same members in the same order.
        let Some(first) = self.round0_digest else { return };
        let mut again = Timed::default();
        let digest = self.one_round(0, &mut Tracer::off(), &mut again);
        timed.attempted += 1;
        if digest != first || again.failed > 0 {
            timed.fail(|| format!("round 0 repeated: class digest {digest:x} != {first:x}"));
        }
    }

    fn store(&self) -> &Bsbm {
        &self.bsbm
    }

    fn describe(&self) -> String {
        format!(
            "  stores: BSBM {} triples, SNB {} triples (heap-built), 1 thread, closed loop\n  \
             round: 4 templates x {} bindings (BSBM-BI-Q4 %type estimated, BSBM-BI-Q2 %product measured, \
             LDBC-Q2 %person measured, LDBC-Q3 %person x %countryX x %countryY estimated), \
             {SAMPLE} bindings per class run, 2 x {SAMPLE} validated\n  \
             round 0 class digest: {}\n",
            self.bsbm.dataset.len(),
            self.snb.dataset.len(),
            self.bindings,
            self.round0_digest.map_or("-".to_string(), |d| format!("{d:016x}")),
        )
    }
}

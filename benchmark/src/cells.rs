//! Request cells: (template, curated parameter class) pairs.
//!
//! The paper's own argument applies to the benchmark: a latency taken over
//! unclassified parameters is noise. So the serving workloads never draw
//! bindings from a whole parameter domain — they draw them from *curated
//! classes* of the six BSBM templates, in fixed proportions, so that the
//! median sits inside the light mode and the tail inside the heavy mode
//! and neither sits on a boundary between two.

use parambench_core::{
    curate, ClusterConfig, CostSource, CuratedWorkload, CurationConfig, ParameterClass,
    ParameterDomain, ProfileConfig,
};
use parambench_datagen::bsbm::schema;
use parambench_datagen::Bsbm;
use parambench_rdf::Term;
use parambench_sparql::{Binding, Engine, ExecConfig, QueryOutput, QueryTemplate};

use crate::rng::{derive, Fnv, Rng};

/// Which class of a template's curation a cell takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The class with the most members: what most parameters look like.
    Largest,
    /// The class with the highest cost: the generic-type class.
    Costliest,
}

/// One line of the request mix.
#[derive(Debug, Clone, Copy)]
pub struct MixLine {
    /// Cell name as printed.
    pub name: &'static str,
    /// The cell's template.
    pub template: fn() -> QueryTemplate,
    /// Which class of that template.
    pub pick: Pick,
    /// Heavy cells make the tail, light cells the median.
    pub heavy: bool,
    /// Share of the requests, in percent.
    pub weight: u32,
}

/// The serving mix. Light cells are 75 % of the requests and heavy cells
/// 25 %. By latency the light cells come CHEAPEST (40 %), BI-Q2 (20 %),
/// TYPE-FEATURE (15 %), so the median request falls in the middle of
/// BI-Q2's share and not between two cells; BI-Q4, the slowest cell, is the
/// top 9 %, so the 95th percentile is BI-Q4's own 44th; and of the heavy
/// quarter alone (CATALOG 8, RATING 8, BI-Q4 9) the median falls inside
/// RATING's share.
pub const MIX: &[MixLine] = &[
    MixLine {
        name: "TYPE-FEATURE",
        template: Bsbm::q_type_feature_offers,
        pick: Pick::Largest,
        heavy: false,
        weight: 15,
    },
    MixLine {
        name: "BI-Q2",
        template: Bsbm::q2_similar_products,
        pick: Pick::Largest,
        heavy: false,
        weight: 20,
    },
    MixLine {
        name: "CHEAPEST",
        template: Bsbm::q_cheapest_products_of_type,
        pick: Pick::Largest,
        heavy: false,
        weight: 40,
    },
    MixLine {
        name: "BI-Q4",
        template: Bsbm::q4_feature_price_by_type,
        pick: Pick::Costliest,
        heavy: true,
        weight: 9,
    },
    MixLine {
        name: "RATING",
        template: Bsbm::q_rating_by_type,
        pick: Pick::Costliest,
        heavy: true,
        weight: 8,
    },
    MixLine {
        name: "CATALOG",
        template: Bsbm::q_catalog_of_type,
        pick: Pick::Costliest,
        heavy: true,
        weight: 8,
    },
];

/// Share of light and heavy requests in [`MIX`], in percent.
pub fn mix_shares() -> (u32, u32) {
    let heavy: u32 = MIX.iter().filter(|m| m.heavy).map(|m| m.weight).sum();
    let light: u32 = MIX.iter().filter(|m| !m.heavy).map(|m| m.weight).sum();
    (light, heavy)
}

/// What a correct answer to one (cell, binding) request looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Result rows.
    pub rows: usize,
    /// Measured `Cout`.
    pub cout: u64,
    /// Rows scanned.
    pub scanned: u64,
    /// Digest of the decoded rows, in order.
    pub digest: u64,
}

impl Expected {
    /// The checks that cost nothing per request: counts only.
    pub fn counts_match(&self, out: &QueryOutput) -> bool {
        out.results.rows.len() == self.rows
            && out.cout == self.cout
            && out.stats.scanned == self.scanned
    }

    /// Everything, the row digest included.
    pub fn matches(&self, out: &QueryOutput) -> bool {
        self.counts_match(out) && row_digest(out) == self.digest
    }

    /// What a direct engine run of the request returns.
    pub fn of(out: &QueryOutput) -> Self {
        Expected {
            rows: out.results.rows.len(),
            cout: out.cout,
            scanned: out.stats.scanned,
            digest: row_digest(out),
        }
    }
}

/// Order-sensitive digest of a result table.
pub fn row_digest(out: &QueryOutput) -> u64 {
    let mut h = Fnv::default();
    for row in &out.results.rows {
        for v in row {
            h.write_str(&v.to_string());
        }
        h.write(&[0xfe]);
    }
    h.0
}

/// One request cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The mix line it was built from.
    pub line: MixLine,
    /// The parsed template.
    pub template: QueryTemplate,
    /// Id, size and cost band of the class.
    pub class: (usize, usize, f64, f64),
    /// Members drawn from the class.
    pub bindings: Vec<Binding>,
    /// The expected answer per member.
    pub expected: Vec<Expected>,
}

/// The domain a template's parameters range over.
pub fn domain_of(template: &QueryTemplate, bsbm: &Bsbm) -> Result<ParameterDomain, String> {
    let mut domain = ParameterDomain::new();
    for p in template.params() {
        let values = match p.as_str() {
            "type" => bsbm.type_iris(),
            "product" => bsbm.product_iris(),
            "feature" => {
                let d = ParameterDomain::from_objects(
                    &bsbm.dataset,
                    "feature",
                    &Term::iri(schema::PRODUCT_FEATURE),
                )
                .map_err(|e| e.to_string())?;
                d.values(0).to_vec()
            }
            other => return Err(format!("no domain for parameter %{other}")),
        };
        domain = domain.with(p.clone(), values);
    }
    Ok(domain)
}

/// Bindings profiled per template when cells are built, and members kept
/// per cell (enough that the cell's mean cost barely depends on which
/// members the seed draws).
const CELL_DOMAIN: usize = 512;
const CELL_MEMBERS: usize = 96;

/// The seed of the cells' own curation: fixed, so every run requests from
/// the same classes and `--seed` only picks members and their order.
const CELL_SEED: u64 = 42;

fn pick_class(w: &CuratedWorkload, pick: Pick) -> &ParameterClass {
    match pick {
        Pick::Largest => &w.classes()[0],
        Pick::Costliest => w
            .classes()
            .iter()
            .max_by(|a, b| a.cost_hi.partial_cmp(&b.cost_hi).expect("finite costs"))
            .expect("curation returns at least one class"),
    }
}

/// Curates the six templates on `bsbm` and builds the cells of [`MIX`],
/// with each member's expected answer from a direct, serial engine run.
pub fn build(bsbm: &Bsbm, seed: u64) -> Result<Vec<Cell>, String> {
    let engine = Engine::new(&bsbm.dataset);
    let mut cells = Vec::with_capacity(MIX.len());
    for line in MIX {
        let template = (line.template)();
        let domain = domain_of(&template, bsbm)?;
        let config = CurationConfig {
            profile: ProfileConfig {
                max_bindings: CELL_DOMAIN,
                seed: derive(CELL_SEED, line.name),
                cost_source: CostSource::EstimatedCout,
            },
            // Size 1 keeps the generic-type class even when the root type
            // is alone in its cost band.
            cluster: ClusterConfig { epsilon: 1.0, min_class_size: 1 },
        };
        let curated = curate(&engine, &template, &domain, &config)
            .map_err(|e| format!("curating {}: {e}", line.name))?;
        let class = pick_class(&curated, line.pick);
        let bindings = curated
            .sample_class(class.id, class.len().min(CELL_MEMBERS), derive(seed, "members"))
            .map_err(|e| e.to_string())?;
        let mut expected = Vec::with_capacity(bindings.len());
        for b in &bindings {
            let prepared = engine.prepare_template(&template, b).map_err(|e| e.to_string())?;
            let out = engine
                .execute_with(&prepared, &ExecConfig::default())
                .map_err(|e| e.to_string())?;
            expected.push(Expected::of(&out));
        }
        cells.push(Cell {
            line: *line,
            template,
            class: (class.id, class.len(), class.cost_lo, class.cost_hi),
            bindings,
            expected,
        });
    }
    Ok(cells)
}

/// One scripted request: cell and member index.
pub type Request = (u16, u16);

/// Draws `n` requests: the cell by the mix weights, the member uniformly.
pub fn script(cells: &[Cell], seed: u64, label: &str, n: usize) -> Vec<Request> {
    let mut rng = Rng::stream(seed, label);
    (0..n)
        .map(|_| {
            let cell = rng.pick_weighted(cells.iter().map(|c| c.line.weight));
            (cell as u16, rng.below(cells[cell].bindings.len()) as u16)
        })
        .collect()
}

/// The script as text: one `cell binding` line per request. Equal seeds
/// give equal bytes.
pub fn script_text(cells: &[Cell], script: &[Request]) -> String {
    let mut out = String::new();
    for &(c, b) in script {
        let cell = &cells[c as usize];
        out.push_str(cell.line.name);
        out.push(' ');
        out.push_str(&cell.bindings[b as usize].to_string());
        out.push('\n');
    }
    out
}

/// A printed table of the cells.
pub fn describe(cells: &[Cell]) -> String {
    let mut out = String::new();
    for c in cells {
        let rows: Vec<usize> = c.expected.iter().map(|e| e.rows).collect();
        let scanned: Vec<u64> = c.expected.iter().map(|e| e.scanned).collect();
        out.push_str(&format!(
            "  cell {:<13} {:>2}% {} class {} ({} of {} members, est. cout {:.0}..{:.0}) rows {}..{} scanned {}..{}\n",
            c.line.name,
            c.line.weight,
            if c.line.heavy { "heavy" } else { "light" },
            c.class.0,
            c.bindings.len(),
            c.class.1,
            c.class.2,
            c.class.3,
            rows.iter().min().unwrap_or(&0),
            rows.iter().max().unwrap_or(&0),
            scanned.iter().min().unwrap_or(&0),
            scanned.iter().max().unwrap_or(&0),
        ));
    }
    out
}

//! The structural proof that an index probe allocates nothing: a counting
//! global allocator, counting per thread, so the harness may run these
//! tests in parallel. A bind join of 10 000 probes may allocate only for
//! its output batches — at most 0.01 allocations per probe, where a probe
//! that built its key prefix in a `Vec` and boxed its iterator paid 2 —
//! and `Dataset::probe` / `Dataset::count` allocate nothing at all, on a
//! frozen and on an overlay-carrying store. An OPTIONAL's hash probe is
//! held to the same bound per left row: its join key is one scratch
//! buffer, refilled in place. The probes' speed is `benches/engine.rs`'s
//! `engine/bind_probe_*`; their correctness is the `rdf` index proptest's
//! and the differential suites'. Measured `Cout` by counting allocates
//! nothing once its count tables are warm, for a parameter with a handful
//! of matches as for one with thousands; binding a template plan
//! allocates a fixed number of times, whatever the parameter's matches.
//! A GROUP BY fold allocates per group, not per row: a row of an open
//! group looks its key up in a reused buffer, or compares it in place
//! over group-clustered input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parambench_rdf::store::{Dataset, StoreBuilder};
use parambench_rdf::{Id, ProbeHint, Term};
use parambench_sparql::ast::AggFunc;
use parambench_sparql::modifiers::GroupFold;
use parambench_sparql::physical::{BindJoin, LeftOuterJoin};
use parambench_sparql::plan::{AggSpec, AggregatePlan, PlannedPattern, Slot};
use parambench_sparql::{
    parse_query, Batch, Binding, CoutBucket, CoutTables, Engine, ExecError, ExecStats, Operator,
    QueryTemplate, BATCH_SIZE,
};

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const PROBES: usize = 10_000;

/// `PROBES` products; every even one has a price, every fourth a second.
fn store() -> Dataset {
    let mut b = StoreBuilder::new();
    for i in 0..PROBES {
        let product = Term::iri(format!("prod/{i:05}"));
        b.insert(product.clone(), Term::iri("type"), Term::iri("Product"));
        for k in 0..[1, 0, 2, 0][i % 4] {
            b.insert(product.clone(), Term::iri("price"), Term::integer((i * 10 + k) as i64));
        }
    }
    b.freeze()
}

/// The same store with a live overlay over the probed ranges: a price
/// tombstoned in every twentieth product, one added to every seventh.
fn overlay_store() -> Dataset {
    let mut ds = store();
    let price = |i: usize| (Term::iri(format!("prod/{i:05}")), Term::iri("price"));
    let dels =
        (0..PROBES).step_by(20).map(|i| (price(i).0, price(i).1, Term::integer(i as i64 * 10)));
    assert!(ds.delete_batch(dels) > 0);
    let adds = (0..PROBES).step_by(7).map(|i| (price(i).0, price(i).1, Term::integer(-(i as i64))));
    assert!(ds.insert_batch(adds) > 0);
    ds
}

/// Replays batches built before counting starts: the bind join's left side.
struct Replay {
    schema: Vec<usize>,
    batches: std::vec::IntoIter<Batch>,
}

impl Operator for Replay {
    fn schema(&self) -> &[usize] {
        &self.schema
    }

    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, ExecError> {
        let batch = self.batches.next();
        stats.grow(batch.as_ref().map_or(0, Batch::len));
        Ok(batch)
    }
}

/// `rows` as one-batch-per-`BATCH_SIZE` replayed input over `schema`.
fn replay(schema: Vec<usize>, rows: &[Vec<Id>]) -> Box<Replay> {
    let batches: Vec<Batch> = rows
        .chunks(BATCH_SIZE)
        .map(|chunk| {
            let mut batch = Batch::with_schema(schema.clone());
            chunk.iter().for_each(|row| batch.push_row(row));
            batch
        })
        .collect();
    Box::new(Replay { schema, batches: batches.into_iter() })
}

/// The store's products by id, ascending, and in a fixed shuffle.
fn products(ds: &Dataset) -> [Vec<Id>; 2] {
    let (ty, product) = (ds.lookup(&Term::iri("type")), ds.lookup(&Term::iri("Product")));
    let sorted: Vec<Id> = ds.scan([None, ty, product]).map(|t| t[0]).collect();
    assert_eq!(sorted.len(), PROBES);
    let mut shuffled = sorted.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, (i * 7919 + 13) % (i + 1));
    }
    [sorted, shuffled]
}

#[test]
fn a_bind_join_allocates_for_its_output_batches_not_its_probes() {
    for ds in [store(), overlay_store()] {
        let price = ds.lookup(&Term::iri("price")).unwrap();
        for left in products(&ds) {
            let rows: Vec<Vec<Id>> = left.iter().map(|&p| vec![p]).collect();
            let pattern =
                PlannedPattern { idx: 1, slots: [Slot::Var(0), Slot::Bound(price), Slot::Var(1)] };
            let mut join = BindJoin::new(
                &ds,
                replay(vec![0], &rows),
                pattern,
                &[0],
                "BJ".into(),
                CoutBucket::Required,
            );
            let mut stats = ExecStats::default();
            let ((), allocs) = allocations(|| {
                while let Some(batch) = join.next_batch(&mut stats).unwrap() {
                    stats.shrink(batch.len());
                }
            });
            assert!(stats.cout > 0);
            let per_probe = allocs as f64 / PROBES as f64;
            assert!(
                per_probe <= 0.01,
                "{allocs} allocations for {PROBES} probes and {} output rows",
                stats.cout
            );
        }
    }
}

#[test]
fn an_optional_allocates_for_its_output_batches_not_its_left_rows() {
    let ds = store();
    let price = ds.lookup(&Term::iri("price")).unwrap();
    for left in products(&ds) {
        // The optional side: the prices of eight products, so the build
        // is a constant and nearly every left row passes through unmatched.
        let right: Vec<Vec<Id>> =
            ds.scan([None, Some(price), None]).take(8).map(|t| vec![t[0], t[2]]).collect();
        let rows: Vec<Vec<Id>> = left.iter().map(|&p| vec![p]).collect();
        let mut join =
            LeftOuterJoin::new(replay(vec![0], &rows), replay(vec![0, 1], &right), vec![0]);
        let mut stats = ExecStats::default();
        let (out_rows, allocs) = allocations(|| {
            let mut out_rows = 0;
            while let Some(batch) = join.next_batch(&mut stats).unwrap() {
                out_rows += batch.len();
                stats.shrink(batch.len());
            }
            out_rows
        });
        assert!(out_rows >= PROBES);
        let per_row = allocs as f64 / PROBES as f64;
        assert!(per_row <= 0.01, "{allocs} allocations for {PROBES} left rows");
    }
}

#[test]
fn dataset_probe_and_count_allocate_nothing() {
    for ds in [store(), overlay_store()] {
        let price = ds.lookup(&Term::iri("price"));
        for left in products(&ds) {
            let mut hint = ProbeHint::default();
            let ((probed, counted), allocs) = allocations(|| {
                let (mut probed, mut counted) = (0, 0);
                for &p in &left {
                    probed += ds.probe([Some(p), price, None], &mut hint).count();
                    counted += ds.count([Some(p), price, None]);
                }
                (probed, counted)
            });
            assert_eq!(probed, counted, "a probe reads what count counts");
            assert_eq!(allocs, 0, "{PROBES} probes and counts");
        }
    }
}

/// Matches of the large parameter's root pattern: its features, its friends.
const WIDE: usize = 3_000;

/// A BSBM-BI-Q2 store: `prod/narrow` has three features, `prod/wide` has
/// `WIDE`, and each feature `f/k` also belongs to `prod/k`. An LDBC-Q2
/// store beside it: `person/narrow` knows three people, `person/wide`
/// knows `WIDE`, and person `k` wrote `k % 4` dated posts.
fn counting_store() -> Dataset {
    let mut b = StoreBuilder::new();
    let (feature, knows) = (Term::iri("feature"), Term::iri("knows"));
    for k in 0..WIDE {
        let f = Term::iri(format!("f/{k:04}"));
        b.insert(Term::iri(format!("prod/{k:04}")), feature.clone(), f.clone());
        b.insert(Term::iri("prod/wide"), feature.clone(), f.clone());
        if k < 3 {
            b.insert(Term::iri("prod/narrow"), feature.clone(), f);
            b.insert(
                Term::iri("person/narrow"),
                knows.clone(),
                Term::iri(format!("person/{k:04}")),
            );
        }
        b.insert(Term::iri("person/wide"), knows.clone(), Term::iri(format!("person/{k:04}")));
        for j in 0..k % 4 {
            let post = Term::iri(format!("post/{k:04}/{j}"));
            b.insert(post.clone(), Term::iri("creator"), Term::iri(format!("person/{k:04}")));
            b.insert(post, Term::iri("date"), Term::integer((k * 4 + j) as i64));
        }
    }
    b.freeze()
}

#[test]
fn counting_cout_allocates_independently_of_the_roots_matches() {
    let ds = counting_store();
    let engine = Engine::new(&ds);
    let exec = engine.exec_config();
    let bi_q2 = |p: &str| {
        format!(
            "SELECT ?other (COUNT(?f) AS ?shared) WHERE {{ <prod/{p}> <feature> ?f . \
             ?other <feature> ?f . FILTER(?other != <prod/{p}>) }} \
             GROUP BY ?other ORDER BY DESC(?shared) LIMIT 10"
        )
    };
    let ldbc_q2 = |p: &str| {
        format!(
            "SELECT ?post ?date WHERE {{ <person/{p}> <knows> ?friend . \
             ?post <creator> ?friend . ?post <date> ?date }} ORDER BY DESC(?date) LIMIT 20"
        )
    };
    for (shape, query) in [("BI-Q2", &bi_q2 as &dyn Fn(&str) -> String), ("LDBC-Q2", &ldbc_q2)] {
        let prepared =
            ["narrow", "wide"].map(|p| engine.prepare(&parse_query(&query(p)).unwrap()).unwrap());
        assert_eq!(prepared[0].signature, prepared[1].signature, "{shape}: one logical plan");
        let plans = [0, 1].map(|i| engine.physical_plan(&prepared[i], &exec));
        // Warm: every message the wide parameter needs is in the tables,
        // and every single-pattern table that fills has filled (each
        // pattern has been probed more often than it has matches).
        let mut tables = CoutTables::new(&ds);
        for plan in plans.iter().cycle().take(6) {
            engine.measure_cout_with(plan, &exec, &mut tables).unwrap();
        }
        let [(narrow, narrow_allocs), (wide, wide_allocs)] = [0, 1].map(|i| {
            allocations(|| engine.measure_cout_with(&plans[i], &exec, &mut tables).unwrap())
        });
        assert_eq!(tables.fallback(), 0, "{shape}: counted");
        assert!(wide > 100 * narrow.max(1), "{shape}: Cout {narrow} against {wide}");
        assert_eq!(
            (narrow_allocs, wide_allocs),
            (WARM_COUNT_ALLOCATIONS, WARM_COUNT_ALLOCATIONS),
            "{shape}: a warm counted measurement allocates (Cout {narrow} against {wide})"
        );
    }
}

/// Allocations of one counted measurement over warm count tables: every
/// per-measurement buffer is kept in the tables.
const WARM_COUNT_ALLOCATIONS: u64 = 0;

/// Allocations of one `TemplatePlan::bind` of the BI-Q2-shaped template
/// below: the owned plan tree (a box per node, join keys), its signature,
/// the instantiated FILTER and the combination's variable lists. None of
/// them grows with the parameter's matches or its domain.
const BIND_ALLOCATIONS: u64 = 13;

#[test]
fn binding_a_template_plan_allocates_a_fixed_number_of_times() {
    let ds = counting_store();
    let engine = Engine::new(&ds);
    let template = QueryTemplate::parse(
        "BI-Q2",
        "SELECT ?other (COUNT(?f) AS ?shared) WHERE { %p <feature> ?f . \
         ?other <feature> ?f . FILTER(?other != %p) } \
         GROUP BY ?other ORDER BY DESC(?shared) LIMIT 10",
    )
    .unwrap();
    // The whole domain: the two hubs and every product, bound in turn.
    let mut domain = vec![Term::iri("prod/narrow"), Term::iri("prod/wide")];
    domain.extend((0..WIDE).map(|k| Term::iri(format!("prod/{k:04}"))));
    let bindings: Vec<Binding> = domain.into_iter().map(|p| Binding::new().with("p", p)).collect();
    let mut plan = engine.template_plan(&template).unwrap();
    let first = plan.bind(&bindings[0]).unwrap();
    for b in &bindings {
        let (prepared, allocs) = allocations(|| plan.bind(b).unwrap());
        assert_eq!(prepared.signature, first.signature, "{b}: one logical plan");
        assert_eq!(allocs, BIND_ALLOCATIONS, "{b}: allocations of one bind");
    }
}

#[test]
fn a_group_fold_allocates_per_group_not_per_row() {
    let ds = store();
    let [products, _] = products(&ds);
    let prices: Vec<Id> = (0..2).map(|k| ds.lookup(&Term::integer(k * 20)).unwrap()).collect();
    let spec = |func, slot, distinct| AggSpec { func, slot, distinct };
    let agg = AggregatePlan {
        group_slots: vec![0],
        specs: vec![
            spec(AggFunc::Count, None, false),
            spec(AggFunc::Sum, Some(1), false),
            spec(AggFunc::Count, Some(1), true),
        ],
    };
    // 100 groups, each row of a group carrying one of the same two values,
    // delivered group by group.
    let rows = |per_group: usize| -> Vec<Vec<Id>> {
        let rows = products[..100].iter().flat_map(|&p| (0..per_group).map(move |i| (p, i)));
        rows.map(|(p, i)| vec![p, prices[i % 2]]).collect()
    };
    let (few, many) = (rows(3), rows(3_000));
    for clustered in [false, true] {
        let fold_all = |rows: &[Vec<Id>]| {
            allocations(|| {
                let mut stats = ExecStats::default();
                let mut fold = GroupFold::new(&agg, &[0, 1], &ds, clustered);
                rows.iter().for_each(|row| fold.add_row(row, &mut stats));
            })
            .1
        };
        assert_eq!(fold_all(&few), fold_all(&many), "clustered {clustered}");
    }
}

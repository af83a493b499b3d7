//! The Retailer snowflake schema (paper §7, Appendix C.1).
//!
//! One fact relation and four dimensions:
//!
//! * `Inventory(locn, dateid, ksn, inventoryunits)` — the large,
//!   frequently-updated fact table (84 M rows in the paper);
//! * `Item(ksn, subcategory, category, categoryCluster, prize)`;
//! * `Weather(locn, dateid, rain, snow, maxtemp, mintemp, meanwind,
//!   thunder)`;
//! * `Location(locn, zip, + 13 distance/area attributes)`;
//! * `Census(zip, + 15 demographic attributes)`.
//!
//! 48 attribute occurrences − 5 shared join keys = **43 variables**,
//! matching the paper. The paper’s variable order (App. C.1) is
//! `locn − { dateid − { ksn }, zip }` with each relation’s private
//! attributes hanging below on their own branch, so every relation’s
//! variables form a root-to-leaf path and single-tuple updates to
//! `Inventory` take O(1) (§7).

use crate::stream::Batch;
use fivm_core::{Tuple, Value};
use fivm_query::{QueryDef, VariableOrder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Size/seed knobs for the generator (defaults are laptop-scale; the
/// paper’s dataset is ~84 M facts).
#[derive(Clone, Debug)]
pub struct RetailerConfig {
    /// Number of distinct store locations.
    pub locations: usize,
    /// Number of distinct dates.
    pub dates: usize,
    /// Number of distinct products (`ksn`).
    pub items: usize,
    /// Number of distinct zip codes.
    pub zips: usize,
    /// Fact-table rows to generate.
    pub inventory_rows: usize,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
}

impl Default for RetailerConfig {
    fn default() -> Self {
        RetailerConfig {
            locations: 30,
            dates: 100,
            items: 400,
            zips: 25,
            inventory_rows: 20_000,
            seed: 0xF1A7,
        }
    }
}

/// Private (non-join) attribute names per relation. The first three are
/// **categorical string columns** (see [`ITEM_SUBCATEGORIES`]): their
/// values are interned symbols, not integer codes.
pub const ITEM_ATTRS: [&str; 4] = ["subcategory", "category", "categoryCluster", "prize"];
/// Distinct `subcategory` strings (`"subcategory#00"` …). Each
/// subcategory maps onto one of [`ITEM_CATEGORIES`] categories, each
/// category onto one of [`ITEM_CLUSTERS`] clusters — the snowflake
/// hierarchy the paper's Item dimension carries.
pub const ITEM_SUBCATEGORIES: usize = 40;
/// Distinct `category` strings (`"category#00"` …).
pub const ITEM_CATEGORIES: usize = 12;
/// Distinct `categoryCluster` strings (`"categoryCluster#0"` …).
pub const ITEM_CLUSTERS: usize = 6;
/// Weather measurements.
pub const WEATHER_ATTRS: [&str; 6] = ["rain", "snow", "maxtemp", "mintemp", "meanwind", "thunder"];
/// Location attributes (area, distances to competitors, …).
pub const LOCATION_ATTRS: [&str; 13] = [
    "rgn_cd",
    "clim_zn_nbr",
    "tot_area_sq_ft",
    "sell_area_sq_ft",
    "avghhi",
    "supertargetdistance",
    "supertargetdrivetime",
    "targetdistance",
    "targetdrivetime",
    "walmartdistance",
    "walmartdrivetime",
    "walmartsupercenterdistance",
    "walmartsupercenterdrivetime",
];
/// Census demographics per zip.
pub const CENSUS_ATTRS: [&str; 15] = [
    "population",
    "white",
    "asian",
    "pacific",
    "blackafrican",
    "medianage",
    "occupiedhouseunits",
    "houseunits",
    "families",
    "households",
    "husbwife",
    "males",
    "females",
    "householdschildren",
    "hispanic",
];

/// The query: natural join of the five relations (no free variables —
/// aggregates are global, per §7’s cofactor experiments).
pub fn query() -> QueryDef {
    let inv: Vec<&str> = vec!["locn", "dateid", "ksn", "inventoryunits"];
    let mut item = vec!["ksn"];
    item.extend(ITEM_ATTRS);
    let mut weather = vec!["locn", "dateid"];
    weather.extend(WEATHER_ATTRS);
    let mut location = vec!["locn", "zip"];
    location.extend(LOCATION_ATTRS);
    let mut census = vec!["zip"];
    census.extend(CENSUS_ATTRS);
    QueryDef::new(
        &[
            ("Inventory", &inv),
            ("Item", &item),
            ("Weather", &weather),
            ("Location", &location),
            ("Census", &census),
        ],
        &[],
    )
}

/// The paper’s variable order for Retailer: join keys
/// `locn − { dateid − { ksn }, zip }` on top, each relation’s private
/// attributes chained below its lowest join key.
pub fn variable_order(q: &QueryDef) -> VariableOrder {
    let mut spec = String::from("locn - { dateid - { ksn - { inventoryunits, ");
    spec.push_str(&chain(&ITEM_ATTRS));
    spec.push_str(" }, ");
    spec.push_str(&chain(&WEATHER_ATTRS));
    spec.push_str(" }, zip - { ");
    spec.push_str(&chain(&LOCATION_ATTRS));
    spec.push_str(", ");
    spec.push_str(&chain(&CENSUS_ATTRS));
    spec.push_str(" } }");
    VariableOrder::parse(&spec, &q.catalog)
}

fn chain(attrs: &[&str]) -> String {
    attrs.join(" - ")
}

/// Generated dataset: per-relation tuple lists, aligned with the
/// query’s relation indices.
pub struct Retailer {
    /// The query (owns the catalog).
    pub query: QueryDef,
    /// The paper’s variable order.
    pub order: VariableOrder,
    /// Tuples per relation, in generation order.
    pub tuples: Vec<Vec<Tuple>>,
}

/// Generate a Retailer instance.
pub fn generate(cfg: &RetailerConfig) -> Retailer {
    let q = query();
    let order = variable_order(&q);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut tuples: Vec<Vec<Tuple>> = vec![Vec::new(); 5];

    // Inventory facts: skewed towards low location/item ids (hot stores)
    for _ in 0..cfg.inventory_rows {
        let locn = skewed(&mut rng, cfg.locations);
        let dateid = rng.gen_range(0..cfg.dates);
        let ksn = skewed(&mut rng, cfg.items);
        let units = rng.gen_range(0..500i64);
        tuples[0].push(Tuple::new(vec![
            Value::Int(locn as i64),
            Value::Int(dateid as i64),
            Value::Int(ksn as i64),
            Value::Int(units),
        ]));
    }
    // Item dimension: the categorical columns carry real strings,
    // interned into the query catalog once per domain value here — the
    // engine only ever sees the 4-byte symbol ids.
    let subcategories: Vec<Value> = (0..ITEM_SUBCATEGORIES)
        .map(|i| q.catalog.sym(&format!("subcategory#{i:02}")))
        .collect();
    let categories: Vec<Value> = (0..ITEM_CATEGORIES)
        .map(|i| q.catalog.sym(&format!("category#{i:02}")))
        .collect();
    let clusters: Vec<Value> = (0..ITEM_CLUSTERS)
        .map(|i| q.catalog.sym(&format!("categoryCluster#{i}")))
        .collect();
    for ksn in 0..cfg.items {
        let sub = rng.gen_range(0..ITEM_SUBCATEGORIES);
        let cat = sub * ITEM_CATEGORIES / ITEM_SUBCATEGORIES;
        let cluster = cat * ITEM_CLUSTERS / ITEM_CATEGORIES;
        tuples[1].push(Tuple::new(vec![
            Value::Int(ksn as i64),
            subcategories[sub].clone(),
            categories[cat].clone(),
            clusters[cluster].clone(),
            Value::Int(rng.gen_range(0..500)),
        ]));
    }
    // Weather: one row per (locn, dateid)
    for locn in 0..cfg.locations {
        for dateid in 0..cfg.dates {
            let mut vals = vec![Value::Int(locn as i64), Value::Int(dateid as i64)];
            vals.extend((0..WEATHER_ATTRS.len()).map(|_| Value::Int(rng.gen_range(-20..40))));
            tuples[2].push(Tuple::new(vals));
        }
    }
    // Location: one row per locn
    for locn in 0..cfg.locations {
        let zip = locn % cfg.zips;
        let mut vals = vec![Value::Int(locn as i64), Value::Int(zip as i64)];
        vals.extend((0..LOCATION_ATTRS.len()).map(|_| Value::Int(rng.gen_range(0..10_000))));
        tuples[3].push(Tuple::new(vals));
    }
    // Census: one row per zip
    for zip in 0..cfg.zips {
        let mut vals = vec![Value::Int(zip as i64)];
        vals.extend((0..CENSUS_ATTRS.len()).map(|_| Value::Int(rng.gen_range(0..100_000))));
        tuples[4].push(Tuple::new(vals));
    }

    Retailer {
        query: q,
        order,
        tuples,
    }
}

impl Retailer {
    /// Round-robin insert stream over all relations with the given
    /// batch size (the §7 default workload).
    pub fn stream(&self, batch_size: usize) -> Vec<Batch> {
        crate::stream::interleave_round_robin(&self.tuples, batch_size)
    }
}

/// Zipf-ish skew: squares a uniform draw to favour small ids.
fn skewed(rng: &mut SmallRng, n: usize) -> usize {
    let u: f64 = rng.gen();
    ((u * u) * n as f64) as usize % n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_43_variables() {
        let q = query();
        assert_eq!(q.all_vars().len(), 43, "the paper’s 43 attributes");
        assert_eq!(q.relations.len(), 5);
    }

    #[test]
    fn variable_order_is_valid() {
        let q = query();
        let vo = variable_order(&q);
        assert!(vo.validate(&q).is_ok());
        // all 43 variables placed
        assert_eq!(vo.vars.len(), 43);
    }

    #[test]
    fn generation_is_deterministic_and_joins() {
        let cfg = RetailerConfig {
            inventory_rows: 500,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.tuples[0], b.tuples[0]);
        // every fact joins: its dims exist
        assert_eq!(a.tuples[1].len(), cfg.items);
        assert_eq!(a.tuples[2].len(), cfg.locations * cfg.dates);
        assert_eq!(a.tuples[3].len(), cfg.locations);
        assert_eq!(a.tuples[4].len(), cfg.zips);
        // key ranges are respected
        for t in &a.tuples[0] {
            let locn = t.get(0).as_int().unwrap();
            assert!((locn as usize) < cfg.locations);
        }
    }

    #[test]
    fn item_categorical_columns_are_interned_strings() {
        let r = generate(&RetailerConfig {
            inventory_rows: 10,
            items: 50,
            ..Default::default()
        });
        for t in &r.tuples[1] {
            // (ksn, subcategory, category, categoryCluster, prize)
            for (pos, prefix) in [
                (1, "subcategory#"),
                (2, "category#"),
                (3, "categoryCluster#"),
            ] {
                let id = t.get(pos).as_sym().expect("categorical column is a symbol");
                let s = r.query.catalog.resolve_sym(id).expect("interned at load");
                assert!(s.starts_with(prefix), "{s} at position {pos}");
            }
            assert!(t.get(4).as_int().is_some(), "prize stays numeric");
        }
        // The hierarchy is a function: one category per subcategory.
        let mut sub_to_cat: std::collections::HashMap<u32, u32> = Default::default();
        for t in &r.tuples[1] {
            let sub = t.get(1).as_sym().unwrap();
            let cat = t.get(2).as_sym().unwrap();
            assert_eq!(*sub_to_cat.entry(sub).or_insert(cat), cat);
        }
    }

    #[test]
    fn streams_cover_all_tuples() {
        let cfg = RetailerConfig {
            inventory_rows: 100,
            locations: 5,
            dates: 10,
            items: 20,
            zips: 3,
            seed: 7,
        };
        let r = generate(&cfg);
        let batches = r.stream(16);
        let total: usize = batches.iter().map(|b| b.tuples.len()).sum();
        let expected: usize = r.tuples.iter().map(Vec::len).sum();
        assert_eq!(total, expected);
    }
}

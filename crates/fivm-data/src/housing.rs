//! The Housing star schema (paper §7, Appendix C.1; from [42]).
//!
//! Six relations joined on the common `postcode` — a *q-hierarchical*
//! star join, the class with constant-time single-tuple updates [8]:
//!
//! * `House(postcode, livingarea, price, nbbedrooms, nbbathrooms,
//!   kitchensize, house, flat, unknown, garden, parking)`
//! * `Shop(postcode, openinghoursshop, pricerangeshop, sainsburys,
//!   tesco, ms)`
//! * `Institution(postcode, typeeducation, sizeinstitution)`
//! * `Restaurant(postcode, openinghoursrest, pricerangerest)`
//! * `Demographics(postcode, averagesalary, crimesperyear, unemployment,
//!   nbhospitals)`
//! * `Transport(postcode, nbbuslines, nbtrainstations,
//!   distancecitycentre)`
//!
//! 32 attribute occurrences − 5 shared `postcode`s = **27 variables**.
//!
//! **Scaling law** (Figure 8 right): at scale `s`, House, Shop and
//! Restaurant hold `s` tuples per postcode while the other three hold
//! one, so the listing join per postcode grows as `s³` (cubically)
//! while the factorized representation grows linearly in `s` — the
//! blow-up Figure 8 measures.

use crate::stream::Batch;
use fivm_core::{Tuple, Value};
use fivm_query::{QueryDef, VariableOrder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator knobs. The paper uses 25 000 postcodes and scales 1–20;
/// the defaults are laptop-scale.
#[derive(Clone, Debug)]
pub struct HousingConfig {
    /// Number of distinct postcodes.
    pub postcodes: usize,
    /// Scale factor `s` (tuples per postcode in House/Shop/Restaurant).
    pub scale: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HousingConfig {
    fn default() -> Self {
        HousingConfig {
            postcodes: 1_000,
            scale: 1,
            seed: 0x40_05E5,
        }
    }
}

/// Per-relation private attributes.
pub const HOUSE_ATTRS: [&str; 10] = [
    "livingarea",
    "price",
    "nbbedrooms",
    "nbbathrooms",
    "kitchensize",
    "house",
    "flat",
    "unknown",
    "garden",
    "parking",
];
/// Shop attributes.
pub const SHOP_ATTRS: [&str; 5] = [
    "openinghoursshop",
    "pricerangeshop",
    "sainsburys",
    "tesco",
    "ms",
];
/// Institution attributes.
pub const INSTITUTION_ATTRS: [&str; 2] = ["typeeducation", "sizeinstitution"];
/// Restaurant attributes.
pub const RESTAURANT_ATTRS: [&str; 2] = ["openinghoursrest", "pricerangerest"];
/// Demographics attributes.
pub const DEMOGRAPHICS_ATTRS: [&str; 4] = [
    "averagesalary",
    "crimesperyear",
    "unemployment",
    "nbhospitals",
];
/// Transport attributes.
pub const TRANSPORT_ATTRS: [&str; 3] = ["nbbuslines", "nbtrainstations", "distancecitycentre"];

/// The star-join query over all six relations.
pub fn query() -> QueryDef {
    fn with_pc<'a>(attrs: &[&'a str]) -> Vec<&'a str> {
        let mut v = vec!["postcode"];
        v.extend_from_slice(attrs);
        v
    }
    QueryDef::new(
        &[
            ("House", &with_pc(&HOUSE_ATTRS)),
            ("Shop", &with_pc(&SHOP_ATTRS)),
            ("Institution", &with_pc(&INSTITUTION_ATTRS)),
            ("Restaurant", &with_pc(&RESTAURANT_ATTRS)),
            ("Demographics", &with_pc(&DEMOGRAPHICS_ATTRS)),
            ("Transport", &with_pc(&TRANSPORT_ATTRS)),
        ],
        &[],
    )
}

/// The optimal variable order of App. C.1: `postcode` at the root, each
/// relation’s private attributes on their own root-to-leaf path.
pub fn variable_order(q: &QueryDef) -> VariableOrder {
    let chains: Vec<String> = [
        &HOUSE_ATTRS[..],
        &SHOP_ATTRS[..],
        &INSTITUTION_ATTRS[..],
        &RESTAURANT_ATTRS[..],
        &DEMOGRAPHICS_ATTRS[..],
        &TRANSPORT_ATTRS[..],
    ]
    .iter()
    .map(|attrs| attrs.join(" - "))
    .collect();
    let spec = format!("postcode - {{ {} }}", chains.join(", "));
    VariableOrder::parse(&spec, &q.catalog)
}

/// A generated Housing instance.
pub struct Housing {
    /// The query (owns the catalog).
    pub query: QueryDef,
    /// The App. C.1 variable order.
    pub order: VariableOrder,
    /// Tuples per relation.
    pub tuples: Vec<Vec<Tuple>>,
}

/// Generate a Housing instance per the scaling law above.
pub fn generate(cfg: &HousingConfig) -> Housing {
    let q = query();
    let order = variable_order(&q);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let widths = [
        HOUSE_ATTRS.len(),
        SHOP_ATTRS.len(),
        INSTITUTION_ATTRS.len(),
        RESTAURANT_ATTRS.len(),
        DEMOGRAPHICS_ATTRS.len(),
        TRANSPORT_ATTRS.len(),
    ];
    // House, Shop, Restaurant scale with s; the rest have one tuple per
    // postcode.
    let copies = [cfg.scale, cfg.scale, 1, cfg.scale, 1, 1];
    let mut tuples: Vec<Vec<Tuple>> = vec![Vec::new(); 6];
    for (ri, (&w, &k)) in widths.iter().zip(&copies).enumerate() {
        for pc in 0..cfg.postcodes {
            for _ in 0..k {
                let mut vals = Vec::with_capacity(w + 1);
                vals.push(Value::Int(pc as i64));
                vals.extend((0..w).map(|_| Value::Int(rng.gen_range(0..1_000))));
                tuples[ri].push(Tuple::new(vals));
            }
        }
    }
    Housing {
        query: q,
        order,
        tuples,
    }
}

impl Housing {
    /// Round-robin insert stream over all relations.
    pub fn stream(&self, batch_size: usize) -> Vec<Batch> {
        crate::stream::interleave_round_robin(&self.tuples, batch_size)
    }

    /// Total tuple count (150 k at the paper’s scale 1 with 25 000
    /// postcodes).
    pub fn total_tuples(&self) -> usize {
        self.tuples.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_27_variables() {
        let q = query();
        assert_eq!(q.all_vars().len(), 27, "the paper’s 27 attributes");
        assert_eq!(q.relations.len(), 6);
    }

    #[test]
    fn variable_order_valid_and_star_shaped() {
        let q = query();
        let vo = variable_order(&q);
        assert!(vo.validate(&q).is_ok());
        let pc = vo.node_of(q.catalog.lookup("postcode").unwrap()).unwrap();
        assert!(vo.parent[pc].is_none());
        assert_eq!(vo.children[pc].len(), 6, "six relation branches");
    }

    #[test]
    fn scale_one_sizes() {
        let h = generate(&HousingConfig {
            postcodes: 100,
            scale: 1,
            seed: 1,
        });
        assert_eq!(h.total_tuples(), 600); // 6 relations × 100 postcodes
    }

    #[test]
    fn scaling_law_is_cubic_in_listing_join() {
        // per postcode: s House × s Shop × s Restaurant × 1³ = s³
        for s in [1usize, 2, 3] {
            let h = generate(&HousingConfig {
                postcodes: 4,
                scale: s,
                seed: 2,
            });
            let per_pc_listing = s * s * s;
            // verify relation cardinalities follow the law
            assert_eq!(h.tuples[0].len(), 4 * s);
            assert_eq!(h.tuples[2].len(), 4);
            let _ = per_pc_listing;
        }
    }

    #[test]
    fn deterministic() {
        let cfg = HousingConfig {
            postcodes: 10,
            scale: 2,
            seed: 42,
        };
        assert_eq!(generate(&cfg).tuples, generate(&cfg).tuples);
    }
}

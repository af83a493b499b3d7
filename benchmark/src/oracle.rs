//! The harness's own reference answers, computed from the plain values
//! of each update list by code that shares nothing with the engines.
//! All of it runs outside every timed region.

use std::collections::HashMap;

/// Relative closeness used for every floating-point comparison.
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

/// Housing `SUM(postcode)` over the six-way star join, from the closed
/// form `Σ_pc pc · Π_rel count_rel(pc)`, kept incrementally so the sum
/// after any prefix of an insert-only stream is available: inserting a
/// tuple of relation `r` at postcode `pc` adds `pc · Π_{r' ≠ r}
/// count_{r'}(pc)`.
#[derive(Default)]
pub struct HousingSum {
    counts: HashMap<i64, [f64; 6]>,
    sum: f64,
}

impl HousingSum {
    pub fn insert(&mut self, rel: usize, postcode: i64) {
        let c = self.counts.entry(postcode).or_insert([0.0; 6]);
        let others: f64 = (0..6).filter(|&r| r != rel).map(|r| c[r]).product();
        self.sum += postcode as f64 * others;
        c[rel] += 1.0;
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// Retailer count and per-variable linear sums from the snowflake's
/// foreign keys: every Inventory row joins exactly the Item row of its
/// `ksn`, the Weather row of its `(locn, dateid)`, the Location row of
/// its `locn` and the Census row of that location's `zip`, so the join
/// has one tuple per Inventory row whose dimension rows all exist.
///
/// Rows arrive as `f64` columns (`NaN` for a categorical column, whose
/// numeric code is the engine's business and is not checked).
/// `col_var[rel][col]` is the index of that column's variable in the
/// cofactor's variable order.
pub struct RetailerSums {
    col_var: Vec<Vec<usize>>,
    m: usize,
    /// Fact rows with their multiplicity: a batch delta is a relation,
    /// so a row generated twice arrives once with multiplicity 2.
    inventory: Vec<(Vec<f64>, f64)>,
    item: HashMap<i64, Vec<f64>>,
    weather: HashMap<(i64, i64), Vec<f64>>,
    location: HashMap<i64, Vec<f64>>,
    census: HashMap<i64, Vec<f64>>,
}

impl RetailerSums {
    pub fn new(col_var: Vec<Vec<usize>>, m: usize) -> Self {
        RetailerSums {
            col_var,
            m,
            inventory: Vec::new(),
            item: HashMap::new(),
            weather: HashMap::new(),
            location: HashMap::new(),
            census: HashMap::new(),
        }
    }

    pub fn insert(&mut self, rel: usize, row: &[f64], mult: f64) {
        let key = |i: usize| row[i] as i64;
        match rel {
            0 => self.inventory.push((row.to_vec(), mult)),
            1 => drop(self.item.insert(key(0), row.to_vec())),
            2 => drop(self.weather.insert((key(0), key(1)), row.to_vec())),
            3 => drop(self.location.insert(key(0), row.to_vec())),
            4 => drop(self.census.insert(key(0), row.to_vec())),
            _ => unreachable!("Retailer has five relations"),
        }
    }

    /// `[count, sum(var 0), …, sum(var m-1)]`; `None` where the variable
    /// is categorical.
    pub fn expected(&self) -> Vec<Option<f64>> {
        let mut count = 0.0;
        let mut sums = vec![0.0; self.m];
        let mut categorical = vec![false; self.m];
        let mut joined = vec![0.0; self.m];
        for (inv, mult) in &self.inventory {
            let (locn, dateid, ksn) = (inv[0] as i64, inv[1] as i64, inv[2] as i64);
            let (Some(item), Some(weather), Some(location)) = (
                self.item.get(&ksn),
                self.weather.get(&(locn, dateid)),
                self.location.get(&locn),
            ) else {
                continue;
            };
            let Some(census) = self.census.get(&(location[1] as i64)) else {
                continue;
            };
            let parts: [&[f64]; 5] = [inv, item, weather, location, census];
            for (rel, part) in parts.iter().enumerate() {
                for (col, &x) in part.iter().enumerate() {
                    joined[self.col_var[rel][col]] = x;
                }
            }
            count += mult;
            for (v, &x) in joined.iter().enumerate() {
                if x.is_nan() {
                    categorical[v] = true;
                } else {
                    sums[v] += mult * x;
                }
            }
        }
        std::iter::once(Some(count))
            .chain((0..self.m).map(|v| (!categorical[v]).then_some(sums[v])))
            .collect()
    }
}

/// Triangle count `Σ R(a,b) · S(b,c) · T(c,a)` by a hash join over the
/// edges that survive the stream (multiplicities add; deletes carry
/// `-1`).
#[derive(Default)]
pub struct Triangles {
    /// `edges[rel][(first column, second column)]` = multiplicity.
    edges: [HashMap<(i64, i64), i64>; 3],
}

impl Triangles {
    pub fn update(&mut self, rel: usize, first: i64, second: i64, mult: i64) {
        *self.edges[rel].entry((first, second)).or_insert(0) += mult;
    }

    /// Edges with non-zero multiplicity.
    pub fn live_edges(&self) -> u64 {
        self.edges
            .iter()
            .map(|e| e.values().filter(|&&m| m != 0).count() as u64)
            .sum()
    }

    pub fn count(&self) -> i64 {
        let mut s_by_b: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
        for (&(b, c), &m) in &self.edges[1] {
            if m != 0 {
                s_by_b.entry(b).or_default().push((c, m));
            }
        }
        let t = &self.edges[2];
        let mut total = 0i64;
        for (&(a, b), &mr) in &self.edges[0] {
            if mr == 0 {
                continue;
            }
            for &(c, ms) in s_by_b.get(&b).map_or(&[][..], Vec::as_slice) {
                if let Some(&mt) = t.get(&(c, a)) {
                    total += mr * ms * mt;
                }
            }
        }
        total
    }
}

/// Dense row-major `n × n` product.
pub fn matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let x = a[i * n + k];
            for j in 0..n {
                out[i * n + j] += x * b[k * n + j];
            }
        }
    }
    out
}

/// `A += u vᵀ`.
pub fn add_outer(a: &mut [f64], u: &[f64], v: &[f64]) {
    let n = v.len();
    for (i, &x) in u.iter().enumerate() {
        if x != 0.0 {
            for (j, &y) in v.iter().enumerate() {
                a[i * n + j] += x * y;
            }
        }
    }
}

/// Largest entry-wise difference relative to the largest entry.
pub fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
    let scale = want.iter().fold(1.0f64, |m, x| m.max(x.abs()));
    got.iter()
        .zip(want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()))
        / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn housing_prefix_sums_match_the_closed_form() {
        let mut h = HousingSum::default();
        // postcode 7: two House rows, one row in each other relation.
        for rel in [0, 0, 1, 2, 3, 4] {
            h.insert(rel, 7);
            assert_eq!(
                h.sum(),
                0.0,
                "no join result until all six relations have the postcode"
            );
        }
        h.insert(5, 7);
        assert_eq!(h.sum(), 14.0);
        // A second Shop row doubles the postcode's join size.
        h.insert(1, 7);
        assert_eq!(h.sum(), 28.0);
    }

    #[test]
    fn triangle_count_respects_multiplicity_and_deletes() {
        let mut t = Triangles::default();
        t.update(0, 1, 2, 1); // R(a=1, b=2)
        t.update(1, 2, 3, 1); // S(b=2, c=3)
        t.update(2, 3, 1, 1); // T(c=3, a=1)
        assert_eq!(t.count(), 1);
        t.update(0, 1, 2, 1);
        assert_eq!(t.count(), 2);
        t.update(1, 2, 3, -1);
        assert_eq!(t.count(), 0);
        assert_eq!(t.live_edges(), 2);
    }

    #[test]
    fn retailer_sums_follow_the_foreign_keys() {
        // Variables: 0 locn, 1 dateid, 2 ksn, 3 units, 4 price, 5 rain, 6 zip, 7 pop.
        let col_var = vec![
            vec![0, 1, 2, 3],
            vec![2, 4],
            vec![0, 1, 5],
            vec![0, 6],
            vec![6, 7],
        ];
        let mut r = RetailerSums::new(col_var, 8);
        r.insert(1, &[9.0, f64::NAN], 1.0);
        r.insert(2, &[1.0, 2.0, 0.5], 1.0);
        r.insert(3, &[1.0, 4.0], 1.0);
        r.insert(4, &[4.0, 1000.0], 1.0);
        r.insert(0, &[1.0, 2.0, 9.0, 10.0], 1.0);
        r.insert(0, &[1.0, 2.0, 9.0, 20.0], 2.0); // generated twice
        r.insert(0, &[1.0, 3.0, 9.0, 99.0], 1.0); // no Weather row for dateid 3
        let e = r.expected();
        assert_eq!(e[0], Some(3.0));
        assert_eq!(e[1 + 3], Some(50.0));
        assert_eq!(e[1 + 4], None, "categorical column is not checked");
        assert_eq!(e[1 + 7], Some(3000.0));
    }

    #[test]
    fn rank_one_update_matches_recomputation() {
        let n = 3;
        let a: Vec<f64> = (0..9).map(f64::from).collect();
        let id: Vec<f64> = (0..9).map(|i| if i % 4 == 0 { 1.0 } else { 0.0 }).collect();
        let mut b = id.clone();
        add_outer(&mut b, &[0.0, 1.0, 0.0], &[1.0, 2.0, 3.0]);
        let p = matmul(&a, &b, n);
        // Row i of a·(I + e₁vᵀ) is a_i + a_{i1}·v.
        assert_eq!(p[0..3], [0.0 + 1.0, 1.0 + 2.0, 2.0 + 3.0]);
        assert_eq!(max_rel_err(&p, &p), 0.0);
    }
}

//! `BENCHMARK.json` as the program sees it: the one place metric names,
//! units, directions and bounds are written down. The file is embedded
//! at build time, so the binary and the file it was built beside cannot
//! disagree.

use crate::json::Json;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .map_or(&[][..], Json::as_arr)
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    MetricSpec {
                        name: text("name"),
                        unit: text("unit"),
                        higher_is_better: text("better") == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect()
        };
        Spec {
            workloads: doc
                .get("workloads")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(10.0),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

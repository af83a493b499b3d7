//! `compare a.json b.json`: one row per (workload, end-to-end metric)
//! with both medians, how much worse `b` is than `a`, the bound, and a
//! verdict — the tool for the same-commit A/A check and for
//! parent-versus-change runs.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse by more than the bound and by more than the spread.
    Worse,
    /// The inter-quartile spread is wider than the bound, so a change of
    /// the bound's size could not be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(change: f64, spread: f64, bound: f64) -> Verdict {
    if change > bound.max(spread) {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(value, iqr ÷ value)` of one metric of one workload.
fn reading(doc: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let w = doc
        .get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let m = w.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let iqr = m.get("iqr").and_then(Json::as_f64).unwrap_or(0.0);
    Some((value, (iqr / value).abs()))
}

/// Print the table; the process exit code (1 when any row is `worse`).
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let spec = Spec::load();
    for (label, doc, path) in [("a", &a, a_path), ("b", &b, b_path)] {
        let field = |k: &str| doc.get(k).map(Json::line).unwrap_or_default();
        println!(
            "{label}: {path}  git {}  seed {}  host {}",
            field("git_sha"),
            field("seed"),
            field("host")
        );
    }
    println!(
        "\n{:<26} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    let mut worse = 0;
    for w in &spec.workloads {
        for MetricSpec {
            name,
            higher_is_better,
            bound,
            ..
        } in &spec.end_to_end
        {
            let (Some((va, sa)), Some((vb, sb))) = (reading(&a, w, name), reading(&b, w, name))
            else {
                continue;
            };
            let bound = bound.unwrap_or(0.0);
            let change = worsening(va, vb, *higher_is_better);
            let spread = sa.max(sb);
            let v = verdict(change, spread, bound);
            worse += i32::from(v == Verdict::Worse);
            println!(
                "{w:<26} {name:<22} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.2}% {:>6.1}%  {}",
                change * 100.0,
                spread * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_counts_as_worse() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, false) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.03, 0.01, 0.07), Verdict::Ok);
        assert_eq!(
            verdict(-0.30, 0.01, 0.07),
            Verdict::Ok,
            "better is never worse"
        );
        assert_eq!(verdict(0.08, 0.01, 0.07), Verdict::Worse);
        assert_eq!(
            verdict(0.08, 0.12, 0.07),
            Verdict::Unresolved,
            "change within the spread"
        );
        assert_eq!(
            verdict(0.20, 0.12, 0.07),
            Verdict::Worse,
            "change beyond bound and spread"
        );
        assert_eq!(
            verdict(0.00, 0.12, 0.07),
            Verdict::Unresolved,
            "too noisy to call unchanged"
        );
    }
}

//! `perfbench diff <set-a> <set-b>`: compares two sets of run records
//! metric by metric, per workload, end to end and per layer.
//!
//! A set is a directory of run records (as written to
//! `.bench_runs/records/`) or one record file. Set A is the baseline
//! (the parent commit). For an end-to-end metric, a change is flagged
//! only beyond both the benchmark's own bound (from `BENCHMARK.json` in
//! the working directory) and A's quartile spread; where A's spread
//! exceeds the bound the metric is "unresolved", unless every run of B
//! reads better than every run of A. Per-layer metrics have no bound:
//! they are flagged beyond A's spread. Exits non-zero on a regression.

use crate::util::{median, quartiles};
use atomig_core::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// metric name -> values, per workload and section.
type Set = BTreeMap<(String, String), BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Set, String> {
    let p = Path::new(path);
    let files: Vec<std::path::PathBuf> = if p.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(p)
            .map_err(|e| format!("cannot list {path}: {e}"))?
            .flatten()
            .map(|e| e.path())
            .filter(|f| f.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![p.to_path_buf()]
    };
    let mut set = Set::new();
    for f in files {
        let text =
            std::fs::read_to_string(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let rec = parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = rec.get("workload").and_then(Value::as_str).unwrap_or("?");
        for section in ["end_to_end", "per_layer"] {
            let Some(Value::Obj(metrics)) = rec.get(section) else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_num) {
                    set.entry((workload.to_string(), section.to_string()))
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    if set.is_empty() {
        return Err(format!("no run records in {path}"));
    }
    Ok(set)
}

/// `(bound, lower_is_better)` of each end-to-end metric.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let bound = m.get("bound")?.as_num()?;
            let lower = m.get("better")?.as_str()? == "lower";
            Some((name, (bound, lower)))
        })
        .collect())
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: perfbench diff <run-set-a> <run-set-b>".into());
    };
    let (a, b) = (load(a)?, load(b)?);
    let bounds = bounds()?;
    let mut clean = true;
    println!(
        "{:<8} {:<30} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "delta", "spread A", "bound"
    );
    for ((workload, section), metrics) in &a {
        let Some(other) = b.get(&(workload.clone(), section.clone())) else {
            continue;
        };
        for (name, va) in metrics {
            let Some(vb) = other.get(name) else { continue };
            let (ma, mb) = (median(va), median(vb));
            let (q1, q3) = quartiles(va);
            let rel = |x: f64| if ma != 0.0 { x / ma.abs() } else { 0.0 };
            let delta = rel(mb - ma);
            let spread = rel(q3 - q1);
            let e2e = section == "end_to_end";
            let (bound, lower) = match bounds.get(name) {
                Some(&(bound, lower)) if e2e => (Some(bound), lower),
                _ => (None, true),
            };
            let verdict = match bound {
                Some(bound) => {
                    let worse = if lower { delta } else { -delta };
                    let all_better = if lower {
                        vb.iter().copied().fold(f64::MIN, f64::max)
                            < va.iter().copied().fold(f64::MAX, f64::min)
                    } else {
                        vb.iter().copied().fold(f64::MAX, f64::min)
                            > va.iter().copied().fold(f64::MIN, f64::max)
                    };
                    if spread > bound && !all_better {
                        "unresolved"
                    } else if worse > bound.max(spread) {
                        clean = false;
                        "REGRESSION"
                    } else if -worse > bound.max(spread) || all_better && spread > bound {
                        "improved"
                    } else {
                        "ok"
                    }
                }
                None if delta.abs() > spread && ma != mb => "moved",
                None => "ok",
            };
            println!(
                "{:<8} {:<30} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>7}  {verdict}",
                workload,
                name,
                ma,
                mb,
                100.0 * delta,
                100.0 * spread,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    Ok(clean)
}

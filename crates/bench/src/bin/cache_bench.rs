//! Measures the `atomig batch` module cache against the right baseline:
//! a batch without the cache.
//!
//! The five synthetic Table 3 profiles are written into a temporary
//! project, and `execute_batch` over it is timed in five columns:
//! `uncached` (`--no-cache`); `cold` (an empty store, every entry
//! written); `warm` (cold's store again, all hits); `edited` (a warm
//! store after a one-literal edit in the module of median size, SQLite:
//! one miss); and `edited_largest` (the same edit in MariaDB, 71% of the
//! project, whose port is the critical path of an uncached batch on more
//! than one worker — recorded, not asserted).
//!
//! Each column is the median, min and max of `REPEATS` runs, each repeat
//! from fresh stores, and lands in `BENCH_cache.json`. The bench asserts
//! that warm and edited beat uncached and — everything runs under the
//! fixed-step clock of `ATOMIG_DETERMINISTIC=1` — that every report body
//! is byte-identical to an uncached run of the same sources.

use atomig_bench::{factor, render_table, BenchRecorder};
use atomig_cli::{discover_batch_inputs, execute_batch, BatchInput, Command};
use atomig_core::json::Value;
use atomig_core::{AliasMode, Stage};
use atomig_workloads::{profiles, synth};
use std::time::Instant;

const SCALE: u32 = 100;
const REPEATS: usize = 7;
const COLUMNS: [&str; 5] = ["uncached", "cold", "warm", "edited", "edited_largest"];
/// The store each column runs against; the edited columns warm theirs
/// (untimed) before the timed run, so it misses exactly one module.
const STORES: [Option<&str>; 5] = [None, Some("a"), Some("a"), Some("b"), Some("c")];

/// Bumps the first `v + <literal>` (a message-passing publisher, which
/// every profile has).
fn edit_one_literal(source: &str) -> String {
    let at = source.find("= v + ").expect("profile has a publisher") + "= v + ".len();
    let len = source[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let old: u64 = source[at..at + len].parse().unwrap();
    format!("{}{}{}", &source[..at], old + 1, &source[at + len..])
}

fn main() {
    let mut rec = BenchRecorder::new("cache");
    let jobs = atomig_par::jobs_from_env("ATOMIG_JOBS").unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    rec.put("jobs", Value::from(jobs));
    rec.put("repeats", Value::from(REPEATS));
    std::env::set_var("ATOMIG_DETERMINISTIC", "1");
    let root = std::env::temp_dir().join(format!("atomig-cache-bench-{}", std::process::id()));
    let project = root.join("project");
    std::fs::create_dir_all(&project).expect("project dir");
    let mut sloc = 0;
    for p in profiles::all() {
        let app = synth::generate_for(&p, SCALE);
        sloc += app.sloc;
        let file = project.join(format!("{}.c", p.name.to_lowercase()));
        std::fs::write(file, app.source).expect("write module");
    }
    let project = project.to_string_lossy().into_owned();
    let inputs = discover_batch_inputs(&project).expect("project discovers");
    let mut by_size: Vec<usize> = (0..inputs.len()).collect();
    by_size.sort_by_key(|&i| inputs[i].source.len());
    let edit = |i: usize| {
        let mut edited = inputs.clone();
        edited[i].source = edit_one_literal(&inputs[i].source);
        edited
    };
    let sources = [
        inputs.clone(),
        inputs.clone(),
        inputs.clone(),
        edit(by_size[by_size.len() / 2]),
        edit(by_size[by_size.len() - 1]),
    ];

    let run = |store: Option<String>, inputs: &[BatchInput]| {
        let cmd = Command::Batch {
            path: project.clone(),
            stage: Stage::Full,
            alias: AliasMode::TypeBased,
            jobs: Some(jobs),
            emit_metrics: None,
            no_cache: store.is_none(),
            cache_dir: store,
        };
        let t0 = Instant::now();
        let report = execute_batch(&cmd, inputs).expect("batch runs");
        let nanos = t0.elapsed().as_nanos();
        // The body below the header, which names the cache state.
        (nanos, report.split_once('\n').unwrap().1.to_string())
    };
    let want: Vec<String> = sources.iter().map(|s| run(None, s).1).collect();
    let mut samples = vec![Vec::new(); COLUMNS.len()];
    for r in 0..REPEATS {
        for c in 0..COLUMNS.len() {
            let store = STORES[c].map(|s| format!("{}/{s}-{r}", root.display()));
            if COLUMNS[c].starts_with("edited") {
                run(store.clone(), &inputs);
            }
            let (nanos, body) = run(store, &sources[c]);
            assert_eq!(
                body, want[c],
                "{} report diverged from uncached",
                COLUMNS[c]
            );
            samples[c].push(nanos);
        }
    }
    std::fs::remove_dir_all(&root).ok();

    let mut medians = Vec::new();
    let mut row = vec![inputs.len().to_string(), sloc.to_string()];
    for (column, s) in COLUMNS.iter().zip(&mut samples) {
        s.sort_unstable();
        let (median, min, max) = (s[s.len() / 2], s[0], s[s.len() - 1]);
        rec.put(&format!("{column}_median_nanos"), Value::from(median));
        rec.put(&format!("{column}_min_nanos"), Value::from(min));
        rec.put(&format!("{column}_max_nanos"), Value::from(max));
        let ms = |n: u128| n as f64 / 1e6;
        row.push(format!(
            "{:.1} ms ({:.1}–{:.1})",
            ms(median),
            ms(min),
            ms(max)
        ));
        medians.push(median);
    }
    let speedup = |c: usize| medians[0] as f64 / (medians[c] as f64).max(1.0);
    for (c, column) in COLUMNS.iter().enumerate().skip(2) {
        rec.put(&format!("{column}_speedup"), Value::from(speedup(c)));
    }
    let title = format!(
        "Module cache: `atomig batch` wall time, median (min–max) of {REPEATS} \
         (synthetic profiles, 1:{SCALE} scale, --jobs {jobs})"
    );
    let header = [
        "Modules",
        "SLOC",
        "Uncached",
        "Cold",
        "Warm",
        "Edited",
        "Edited largest",
    ];
    print!("{}", render_table(&title, &header, &[row]));
    println!(
        "vs uncached: warm {}x, edited {}x, edited largest {}x",
        factor(speedup(2)),
        factor(speedup(3)),
        factor(speedup(4)),
    );
    assert!(speedup(2) > 1.0, "warm batch is not faster than uncached");
    assert!(
        speedup(3) > 1.0,
        "edited warm batch is not faster than uncached"
    );
    let path = rec.write().expect("write bench record");
    println!("wrote {path}");
}

//! The module cache behind `atomig batch`, end to end, for both alias
//! backends: a warm rerun is all hits and changes no output byte, an
//! edit misses only its module, a config change misses every module, and
//! a scribbled-over store degrades to misses with `--no-cache` output.
//!
//! Every test runs under `ATOMIG_DETERMINISTIC=1` (tests in this binary
//! run concurrently, so none unsets it), which makes the stored porting
//! times, and with them the reports, comparable across runs.

use atomig_cli::{execute, execute_batch, parse_args, BatchInput, Command};
use atomig_core::{AliasMode, MetricsTally, Stage};
use std::sync::atomic::{AtomicUsize, Ordering};

const BACKENDS: [AliasMode; 2] = [AliasMode::TypeBased, AliasMode::PointsTo];

/// A module with a literal to edit.
const COUNTER: &str = r#"
    int flag; int msg; int other;
    void writer(long u) { msg = 1; flag = 1; }
    int reader() {
        while (flag == 0) { }
        return msg;
    }
    int untouched() { other = other + 1; return other; }
"#;

fn inputs(counter: &str) -> Vec<BatchInput> {
    [
        ("counter", counter),
        ("mp", include_str!("../examples/mp.c")),
        ("seqlock_alias", include_str!("../examples/seqlock_alias.c")),
    ]
    .into_iter()
    .map(|(name, source)| BatchInput {
        name: name.into(),
        source: source.into(),
    })
    .collect()
}

fn tmp_dir(tag: &str) -> String {
    let d = std::env::temp_dir().join(format!("atomig-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d.to_string_lossy().into_owned()
}

/// One batch run against the store under `dir` (`None`: `--no-cache`).
/// Returns the report body below its header, which names the cache
/// state, the metrics stream and its tally.
fn batch(
    dir: Option<&str>,
    stage: Stage,
    alias: AliasMode,
    jobs: usize,
    inputs: &[BatchInput],
) -> (String, String, MetricsTally) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    std::env::set_var("ATOMIG_DETERMINISTIC", "1");
    let metrics = std::env::temp_dir().join(format!(
        "atomig-cache-test-run-{}-{}.jsonl",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let cmd = Command::Batch {
        path: "mem".into(),
        stage,
        alias,
        jobs: Some(jobs),
        emit_metrics: Some(metrics.to_string_lossy().into_owned()),
        cache_dir: dir.map(|d| format!("{d}/store")),
        no_cache: dir.is_none(),
    };
    let out = execute_batch(&cmd, inputs).unwrap();
    let stream = std::fs::read_to_string(&metrics).unwrap();
    std::fs::remove_file(&metrics).ok();
    let tally = atomig_core::validate_metrics_jsonl(&stream).unwrap();
    // Drop the header and the trailing `metrics: wrote …` note.
    let body: Vec<&str> = out
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with("metrics:"))
        .collect();
    (body.join("\n"), stream, tally)
}

/// [`batch`] at the full stage on one worker, without the stream.
fn full(dir: Option<&str>, alias: AliasMode, inputs: &[BatchInput]) -> (String, MetricsTally) {
    let (body, _, tally) = batch(dir, Stage::Full, alias, 1, inputs);
    (body, tally)
}

fn hits_misses(t: &MetricsTally) -> (usize, usize) {
    (t.cache_hits, t.cache_misses)
}

fn entries(dir: &str) -> Vec<std::path::PathBuf> {
    let v = format!("{dir}/store/v{}", atomig_cache::FORMAT_VERSION);
    let mut files: Vec<_> = std::fs::read_dir(v)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

#[test]
fn batch_is_byte_identical_cold_and_warm_for_both_backends() {
    for alias in BACKENDS {
        let dir = tmp_dir(&format!("batch-{}", alias.name()));
        let modules = inputs(COUNTER);
        let (no_cache, _, t) = batch(None, Stage::Full, alias, 4, &modules);
        assert_eq!(t.caches, 0, "{alias:?}: no store, no cache event");
        let (cold, _, t) = batch(Some(&dir), Stage::Full, alias, 4, &modules);
        assert_eq!(hits_misses(&t), (0, 3), "{alias:?}");
        assert_eq!(t.phases, 3, "{alias:?}: every module ported");
        assert_eq!(entries(&dir).len(), 3, "{alias:?}");
        assert_eq!(cold, no_cache, "{alias:?}: caching must not alter output");
        for jobs in [1, 4] {
            let (warm, stream, t) = batch(Some(&dir), Stage::Full, alias, jobs, &modules);
            assert_eq!(warm, cold, "{alias:?}: warm batch diverged at jobs={jobs}");
            assert_eq!(hits_misses(&t), (3, 0), "{alias:?}: jobs={jobs}");
            assert_eq!(t.phases, 0, "{alias:?}: a hit ports nothing");
            assert!(t.cache_bytes > 0, "{alias:?}: a hit reads its entry");
            // `atomig metrics` prints the counters and costs.
            let cmd = parse_args(&["metrics".into(), "run.jsonl".into()]).unwrap();
            let tally = execute(&cmd, &stream, "run").unwrap();
            let want = format!(
                "cache: 3 hit(s), 0 miss(es), {} ns, {} byte(s)",
                t.cache_nanos, t.cache_bytes
            );
            assert!(tally.contains(&want), "{tally}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One module's entry covers every function in it: a warm rerun of a
/// several-function module is one hit, ports no function, rewrites no
/// entry and changes no output byte.
#[test]
fn warm_runs_hit_every_function_and_change_no_byte() {
    let seqlock = [BatchInput {
        name: "seqlock_alias".into(),
        source: include_str!("../examples/seqlock_alias.c").into(),
    }];
    for alias in BACKENDS {
        let dir = tmp_dir(&format!("warm-{}", alias.name()));
        let (no_cache, t) = full(None, alias, &seqlock);
        assert_eq!(t.caches, 0, "{alias:?}: no store configured, no counters");
        let (cold, t) = full(Some(&dir), alias, &seqlock);
        assert_eq!(hits_misses(&t), (0, 1), "{alias:?}");
        let files = entries(&dir);
        let stored: Vec<Vec<u8>> = files.iter().map(|f| std::fs::read(f).unwrap()).collect();
        let (warm, t) = full(Some(&dir), alias, &seqlock);
        assert_eq!(hits_misses(&t), (1, 0), "{alias:?}: warm = all hits");
        assert!(t.phase_names.is_empty(), "{alias:?}: a hit ports nothing");
        assert_eq!(entries(&dir), files, "{alias:?}: a hit writes no entry");
        let reread: Vec<Vec<u8>> = files.iter().map(|f| std::fs::read(f).unwrap()).collect();
        assert_eq!(
            reread, stored,
            "{alias:?}: a hit leaves its entry as stored"
        );
        assert_eq!(cold, no_cache, "{alias:?}: caching must not alter output");
        assert_eq!(cold, warm, "{alias:?}: warm must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn editing_one_literal_misses_only_its_module() {
    for alias in BACKENDS {
        let dir = tmp_dir(&format!("edit-{}", alias.name()));
        full(Some(&dir), alias, &inputs(COUNTER));
        let before = entries(&dir);
        let edited = inputs(&COUNTER.replace("other + 1", "other + 2"));
        let (warm_edited, t) = full(Some(&dir), alias, &edited);
        assert_eq!(hits_misses(&t), (2, 1), "{alias:?}");
        assert_eq!(t.phase_names, vec!["port:counter"], "{alias:?}");
        let after = entries(&dir);
        assert_eq!(after.len(), before.len() + 1, "{alias:?}: one new entry");
        assert!(before.iter().all(|e| after.contains(e)), "{alias:?}");
        // The partially-warm report matches a from-scratch run of the
        // edited project byte for byte.
        assert_eq!(warm_edited, full(None, alias, &edited).0, "{alias:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn changing_stage_or_alias_misses_every_module() {
    for alias in BACKENDS {
        let dir = tmp_dir(&format!("knobs-{}", alias.name()));
        let modules = inputs(COUNTER);
        full(Some(&dir), alias, &modules);
        let (_, _, t) = batch(Some(&dir), Stage::Spin, alias, 1, &modules);
        assert_eq!(hits_misses(&t), (0, 3), "{alias:?}: --stage");
        let other = BACKENDS.into_iter().find(|a| *a != alias).unwrap();
        assert_eq!(hits_misses(&full(Some(&dir), other, &modules).1), (0, 3));
        // Each configuration keeps its own entries.
        assert_eq!(entries(&dir).len(), 9, "{alias:?}");
        assert_eq!(hits_misses(&full(Some(&dir), alias, &modules).1), (3, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupt_store_contents_degrade_to_misses() {
    for alias in BACKENDS {
        let dir = tmp_dir(&format!("corrupt-{}", alias.name()));
        let modules = inputs(COUNTER);
        let (no_cache, _) = full(None, alias, &modules);
        full(Some(&dir), alias, &modules);
        let files = entries(&dir);
        assert_eq!(files.len(), 3);
        // Scribble over every entry: another module's well-formed entry
        // under this module's key, garbage, and a truncation.
        let first = std::fs::read_to_string(&files[0]).unwrap();
        std::fs::copy(&files[1], &files[0]).unwrap();
        std::fs::write(&files[1], "garbage").unwrap();
        std::fs::write(&files[2], &first[..first.len() / 2]).unwrap();
        let (rerun, t) = full(Some(&dir), alias, &modules);
        assert_eq!(hits_misses(&t), (0, 3), "{alias:?}");
        assert_eq!(
            rerun, no_cache,
            "{alias:?}: a corrupt entry is never a report"
        );
        // The misses overwrote the entries, so the store is whole again.
        assert_eq!(entries(&dir), files, "{alias:?}");
        let (warm, t) = full(Some(&dir), alias, &modules);
        assert_eq!(hits_misses(&t), (3, 0), "{alias:?}");
        assert_eq!(warm, no_cache, "{alias:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

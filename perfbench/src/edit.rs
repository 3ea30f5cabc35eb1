//! `edit`: the incremental developer loop. Set-up writes the five
//! profile modules into a project directory and runs a cold
//! `atomig batch <dir>` that fills the cache. Each op then changes one
//! integer literal in one seeded function, reruns `atomig batch <dir>`
//! (warm cache) and runs `atomig lint <edited.c> --ported`.

use crate::trace::{self, Kind, Tracer};
use crate::util::{self, mask_timings, Rng};
use crate::{atomig, report_numbers, Ctx, Pass};
use atomig_core::json::{parse, Value};
use atomig_workloads::{profiles, synth};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const SCALE: u32 = 100;
/// Ops per second of `--seconds`: one op takes about 0.5 s on a 2-core
/// x86-64 host, so a run's op time is close to `--seconds` there.
const OPS_PER_SECOND: f64 = 2.0;
/// Cold batches in set-up, each into an empty cache; `setup_s` is their
/// median and the last one leaves the cache the ops start from.
const SETUP_ROUNDS: usize = 5;
const PROJECT_STREAM: u64 = 3;
const EDIT_STREAM: u64 = 4;

fn ops(seconds: u64) -> u64 {
    ((seconds as f64 * OPS_PER_SECOND).round() as u64).max(1)
}

struct Module {
    path: String,
    source: String,
}

/// The byte range of every function that holds an integer literal, as
/// `(module, start, end)`: a definition starts at column 0 with a return
/// type and ends at the next line that is a lone `}`, or on its own line.
fn functions(modules: &[Module]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (mi, m) in modules.iter().enumerate() {
        let src = &m.source;
        let mut pos = 0;
        while pos < src.len() {
            let line_end = src[pos..].find('\n').map_or(src.len(), |n| pos + n);
            let line = &src[pos..line_end];
            let is_def = ["long ", "int ", "void "]
                .iter()
                .any(|t| line.starts_with(t))
                && line.contains('(')
                && line.contains('{');
            if is_def {
                let end = if line.trim_end().ends_with('}') {
                    line_end
                } else {
                    src[line_end..]
                        .find("\n}\n")
                        .map_or(src.len(), |n| line_end + n + 2)
                };
                if !literals(&src[pos..end]).is_empty() {
                    out.push((mi, pos, end));
                }
                pos = end;
            } else {
                pos = line_end + 1;
            }
        }
    }
    out
}

/// Byte ranges of the integer literals in `text` (digit runs that are
/// not part of an identifier).
fn literals(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || !ident(b[i - 1])) {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            if j == b.len() || !(ident(b[j]) || b[j] == b'.') {
                out.push((i, j));
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// The function each op edits, as a position in the project's function
/// list: systematic sampling from a seeded offset, then shuffled. Every
/// function is equally likely to be drawn by any op, and each module gets
/// its share of the ops to within one, so every run edits the same mix
/// of modules (the mix sets how costly the ops are).
fn targets(functions: usize, ops: usize, rng: &mut Rng) -> Vec<usize> {
    let offset = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    let mut v: Vec<usize> = (0..ops)
        .map(|i| ((i as f64 + offset) / ops as f64 * functions as f64) as usize)
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Applies one seeded edit to function `target` of the project's
/// functions that hold a literal: one of its literals, raised by 1 to 9.
/// Returns the edited module's index.
fn edit(modules: &mut [Module], target: usize, rng: &mut Rng) -> usize {
    let (mi, start, end) = functions(modules)[target];
    let lits = literals(&modules[mi].source[start..end]);
    let (a, b) = lits[rng.below(lits.len())];
    let src = &mut modules[mi].source;
    let old: u64 = src[start + a..start + b].parse().expect("a digit run");
    let new = old + 1 + rng.below(9) as u64;
    src.replace_range(start + a..start + b, &new.to_string());
    mi
}

/// The project's five modules before any edit, one per Table 3 profile.
fn sources(ctx: &Ctx, project: &Path) -> Vec<Module> {
    profiles::all()
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let mut cfg = synth::GenConfig::from_profile(p, SCALE);
            cfg.seed = util::derive(ctx.seed, PROJECT_STREAM, k as u64);
            Module {
                path: ctx.rel(&project.join(format!("{}.c", p.name.to_lowercase()))),
                source: synth::generate(cfg).source,
            }
        })
        .collect()
}

/// Writes the project and runs the cold batches of set-up. Each round
/// fills a fresh cache directory and the last one is the run's cache;
/// nothing is deleted before the run ends. (ext4 without a journal skips
/// inodes freed in the last minute one by one when it allocates, so
/// creating files soon after a mass delete is slow and erratic: deleting
/// the cache between rounds made `setup_s` spread by a third.)
fn setup(ctx: &Ctx, project: &Path) -> Result<(Vec<Module>, Vec<f64>), String> {
    let _ = std::fs::remove_dir_all(project);
    std::fs::create_dir_all(project).map_err(|e| format!("cannot create project dir: {e}"))?;
    let modules = sources(ctx, project);
    for m in &modules {
        std::fs::write(&m.path, &m.source).map_err(|e| format!("cannot write module: {e}"))?;
    }
    let dir = ctx.rel(project);
    let mut secs = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let cache = if round + 1 == SETUP_ROUNDS {
            ctx.cache.clone()
        } else {
            ctx.root.join(format!("setup-cache-{round}"))
        };
        std::env::set_var(crate::CACHE_ENV, &cache);
        crate::settle();
        let t = Instant::now();
        let out = atomig(&["batch", &dir]);
        secs.push(t.elapsed().as_secs_f64());
        out?;
    }
    std::env::set_var(crate::CACHE_ENV, &ctx.cache);
    crate::settle();
    Ok((modules, secs))
}

/// The `edit` run, from a fresh project and cache. Every op is checked
/// once all ops have run, untimed, against a cold reference that never
/// touches a cache: for each module, `atomig port <module.c> --report`
/// must count the same spinloops, optimistic loops, sc-upgrades and
/// fences as the op's warm batch report, and `atomig lint <edited.c>
/// --ported` must print the same report, timings masked. With a tracer,
/// each op is also replayed as its public calls.
pub fn pass(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let project = ctx.dir("project")?;
    let dir = ctx.rel(&project);
    let (mut modules, setup_s) = setup(ctx, &project)?;
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let mut rng = Rng::new(util::derive(ctx.seed, EDIT_STREAM, 0));
    let targets = targets(
        functions(&modules).len(),
        ops(ctx.seconds) as usize,
        &mut rng,
    );
    let mut funcs = 0usize;
    // Per op: the edited module, its new source, and the per-module
    // counts of the batch report with the masked lint report.
    let mut history = Vec::new();
    // Artifacts in the cache; none when the program runs without one.
    let mut entries = util::dir_size(&ctx.cache).0;
    for (i, &target) in (0..).zip(&targets) {
        let mi = edit(&mut modules, target, &mut rng);
        let m = &modules[mi];
        std::fs::write(&m.path, &m.source).map_err(|e| format!("cannot write module: {e}"))?;
        let project_sloc: usize = modules
            .iter()
            .map(|m| m.source.lines().filter(|l| !l.trim().is_empty()).count())
            .sum();
        pass.sloc += project_sloc;
        let path = modules[mi].path.clone();
        // A replay goes first, so that its cache counters see the misses
        // of the edit; the op then runs on a cache that already holds
        // them, which leaves its reports unchanged.
        let (out, traced) = pass.run(
            tracer.as_deref_mut(),
            i,
            true,
            || run_op(&dir, &path),
            |tr| replay(tr, ctx, &dir, &path),
        )?;
        if let Some(traced) = traced {
            pass.guard(i, &masked(&out), &masked(&traced));
        }
        // The edited function's body is new, so its artifact must miss
        // and be written: a cache that gains nothing served a stale one.
        let now = util::dir_size(&ctx.cache).0;
        if entries > 0 && now <= entries {
            pass.fail(
                i,
                format!("edit of {path}: the warm batch added no cache entry"),
            );
        }
        entries = now;
        let reports = match &out {
            Ok((batch, lint)) => {
                // The batch's totals line: spinloops, optimistic loops,
                // sc-upgrades, fences.
                if let [_, _, sc, fences, ..] = report_numbers(batch, "totals")?[..] {
                    pass.ported_sloc += project_sloc;
                    pass.sc_added += sc;
                    pass.fences_added += fences;
                }
                funcs += lint_functions(lint);
                Ok((batch_counts(batch), mask_timings(lint)))
            }
            Err(e) => {
                pass.fail(i, format!("edit of {path}: {e}"));
                Err(())
            }
        };
        history.push((mi, modules[mi].source.clone(), reports));
    }
    // The cold reference, op by op from the original project. Only the
    // edited module changes between ops, so only it is ported again.
    let mut modules = sources(ctx, &project);
    let mut cold = BTreeMap::new();
    for m in &modules {
        std::fs::write(&m.path, &m.source).map_err(|e| format!("cannot write module: {e}"))?;
        cold.insert(
            atomig_cli::module_name(&m.path).to_string(),
            port_counts(&m.path),
        );
    }
    for (i, (mi, source, reports)) in history.into_iter().enumerate() {
        modules[mi].source = source;
        let m = &modules[mi];
        std::fs::write(&m.path, &m.source).map_err(|e| format!("cannot write module: {e}"))?;
        cold.insert(
            atomig_cli::module_name(&m.path).to_string(),
            port_counts(&m.path),
        );
        let Ok((warm, lint)) = reports else { continue };
        let cold_lint = atomig(&["lint", &m.path, "--ported"]).map(|l| mask_timings(&l));
        let same_counts = cold.len() == warm.len()
            && cold
                .iter()
                .all(|(name, c)| c.as_ref().ok() == warm.get(name));
        if !same_counts || cold_lint.as_ref() != Ok(&lint) {
            pass.fail(
                i as u64,
                format!("edit of {}: reports differ from a cold run", m.path),
            );
        }
    }
    pass.work = vec![
        ("edits", pass.op_ms.len() as f64),
        ("functions", funcs as f64),
    ];
    Ok(pass)
}

/// The op: `atomig batch <dir>`, then `atomig lint <edited.c> --ported`.
fn run_op(dir: &str, path: &str) -> Result<(String, String), String> {
    let batch = atomig(&["batch", dir])?;
    Ok((batch, atomig(&["lint", path, "--ported"])?))
}

/// Spinloops, optimistic loops, sc-upgrades and fences of each module
/// line of a batch report, by module name.
fn batch_counts(batch: &str) -> BTreeMap<String, Vec<usize>> {
    batch
        .lines()
        .filter(|l| l.starts_with("  ") && l.contains(" spinloop(s) "))
        .filter_map(|l| {
            let (name, rest) = l.trim_start().split_once(' ')?;
            let counts: Vec<usize> = rest
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .take(4)
                .collect();
            Some((name.to_string(), counts))
        })
        .collect()
}

/// The same four counts from `atomig port <path> --report`, which runs
/// without a cache.
fn port_counts(path: &str) -> Result<Vec<usize>, String> {
    let report = atomig(&["port", path, "--report"])?;
    let first = |label| -> Result<usize, String> {
        report_numbers(&report, label)?
            .first()
            .copied()
            .ok_or_else(|| format!("`{label}` line without a count"))
    };
    // `added : <explicit> explicit / <implicit> implicit`
    let [fences, sc] = report_numbers(&report, "added")?[..] else {
        return Err("malformed `added` line".into());
    };
    Ok(vec![
        first("spinloops")?,
        first("optimistic loops")?,
        sc,
        fences,
    ])
}

/// The op's batch and lint reports with their timings masked.
fn masked(out: &Result<(String, String), String>) -> Result<String, String> {
    let (batch, lint) = out.as_ref().map_err(Clone::clone)?;
    Ok(format!("{}\0{}", mask_timings(batch), mask_timings(lint)))
}

/// The function count on the lint report's summary line.
fn lint_functions(lint: &str) -> usize {
    lint.lines()
        .last()
        .and_then(|l| l.split(" finding(s) in ").nth(1))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The op as its public calls. `atomig batch` is one call into the CLI
/// (discovery, then `execute_batch`), run with `--emit-metrics` so its
/// per-module port times and cache counters can be read back; the
/// batch's frontend is replayed outside the op, module by module, to
/// attribute it. The lint is replayed call by call.
fn replay(tr: &mut Tracer, ctx: &Ctx, dir: &str, path: &str) -> Result<(String, String), String> {
    let jsonl = ctx.root.join("batch.jsonl");
    let args: Vec<String> = ["batch", dir, "--emit-metrics", &ctx.rel(&jsonl)]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cmd = tr
        .span("cli.parse_args", Kind::Op, || atomig_cli::parse_args(&args))
        .0?;
    let inputs = tr
        .span("cli.discover", Kind::Op, || {
            atomig_cli::discover_batch_inputs(dir)
        })
        .0?;
    let (batch, _) = tr.span("cli.batch", Kind::Op, || {
        atomig_cli::execute_batch(&cmd, &inputs)
    });
    let batch = batch?;
    for inp in &inputs {
        trace::compile(tr, Kind::Replay, &inp.source, &inp.name)?;
    }
    read_batch_metrics(tr, &jsonl)?;
    tr.max("cache.bytes", util::dir_size(&ctx.cache).1 as f64);

    let args = ["lint".to_string(), path.to_string(), "--ported".to_string()];
    tr.span("cli.parse_args", Kind::Op, || atomig_cli::parse_args(&args))
        .0?;
    let (src, _) = tr.span("cli.read_source", Kind::Op, || {
        atomig_cli::read_source(path)
    });
    let mut m = trace::compile(tr, Kind::Op, &src?, atomig_cli::module_name(path))?;
    let original = m.clone();
    let report = trace::port(tr, Kind::Op, &mut m);
    trace::detect_at_one_job(tr, original, &report);
    let cfg = atomig_core::AtomigConfig::full();
    let (lint, span) = tr.span("core.lint_module", Kind::Op, || {
        atomig_core::lint_module(&m, &cfg)
    });
    tr.split(span, &lint.metrics, "core.lint");
    tr.count("core.lint_findings", lint.lints.len() as f64);
    Ok((batch, lint.to_string()))
}

/// Reads the batch's `--emit-metrics` stream: `port:<module>` phases
/// give the per-module port time, the `cache` event the counters. A
/// stream without a `cache` event means the batch ran without a cache.
fn read_batch_metrics(tr: &mut Tracer, jsonl: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(jsonl)
        .map_err(|e| format!("cannot read {}: {e}", jsonl.display()))?;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let ev = parse(line).map_err(|e| format!("bad metrics line: {e}"))?;
        let num = |k: &str| ev.get(k).and_then(Value::as_num).unwrap_or(0.0);
        match ev.get("event").and_then(Value::as_str) {
            Some("phase")
                if ev
                    .get("name")
                    .and_then(Value::as_str)
                    .is_some_and(|n| n.starts_with("port:")) =>
            {
                tr.count("core.batch_port_ms", num("nanos") / 1e6)
            }
            Some("cache") => {
                tr.count("cache.hits", num("hits"));
                tr.count("cache.misses", num("misses"));
            }
            _ => {}
        }
    }
    Ok(())
}

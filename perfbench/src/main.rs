//! Benchmark harness for the `atomig` tool.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload migrate --seed 1 --seconds 10 --trace 0
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       diff <run-set-a> <run-set-b>
//! ```
//!
//! A run builds every op with `atomig_cli::parse_args` from the argument
//! strings a user types and runs it through the CLI library in this one
//! single-threaded process (the program's own worker pool is the only
//! parallelism). Every run does a fixed, seeded sequence of ops whose
//! length follows from `--seconds`, so its work counts repeat exactly;
//! they are compared against every earlier run of the same code, seed
//! and length. The last line of standard output is the result object. See
//! `perfbench/README.md` for the workloads and metrics.

mod diff;
mod edit;
mod migrate;
mod trace;
mod util;
mod verify;

use atomig_core::json::{parse, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Variables that would change what the program does under the
/// harness's feet; inherited values are removed before any op runs.
const SCRUBBED_ENV: [&str; 3] = ["ATOMIG_JOBS", "ATOMIG_DETERMINISTIC", "ATOMIG_CACHE_DIR"];
/// The cache location the harness points at a per-run directory.
pub const CACHE_ENV: &str = "ATOMIG_CACHE_DIR";
/// Run records, traces and per-run scratch live here, in the checkout.
const RUNS_DIR: &str = ".bench_runs";

/// Where a run works and what it was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    /// The checkout root (the working directory).
    cwd: PathBuf,
    /// Per-run scratch directory, deleted at the end of the run.
    pub root: PathBuf,
    /// The artifact cache `ATOMIG_CACHE_DIR` points at.
    pub cache: PathBuf,
}

impl Ctx {
    /// A subdirectory of the run's scratch directory, created.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.root.join(name);
        std::fs::create_dir_all(&d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        Ok(d)
    }

    /// `p` as a user would type it from the checkout root.
    pub fn rel(&self, p: &Path) -> String {
        p.strip_prefix(&self.cwd)
            .unwrap_or(p)
            .to_string_lossy()
            .into_owned()
    }
}

/// What a run of a workload's ops measured and counted.
#[derive(Default)]
pub struct Pass {
    /// Seconds of each set-up round.
    pub setup_s: Vec<f64>,
    /// Milliseconds of each op.
    pub op_ms: Vec<f64>,
    /// Highest peak RSS of any op, in bytes.
    peak_rss: u64,
    /// Milliseconds of each op's traced replay (traced runs only).
    traced_ms: Vec<f64>,
    failed_ops: BTreeSet<u64>,
    failures: Vec<String>,
    /// Source lines the ops compiled.
    pub sloc: usize,
    /// Source lines of the ported modules that `sc_added` and
    /// `fences_added` were counted on.
    pub ported_sloc: usize,
    /// Accesses upgraded to seq_cst (implicit barriers added).
    pub sc_added: usize,
    /// Fences inserted (explicit barriers added).
    pub fences_added: usize,
    /// Workload-specific exact work counts.
    pub work: Vec<(&'static str, f64)>,
}

impl Pass {
    pub fn fail(&mut self, op: u64, msg: String) {
        self.failed_ops.insert(op);
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Runs one op, timing it and tracking its peak RSS.
    fn time<T>(&mut self, op: impl FnOnce() -> T) -> Result<T, String> {
        util::reset_peak_rss()?;
        let t = Instant::now();
        let out = op();
        self.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.peak_rss = self.peak_rss.max(util::peak_rss_bytes()?);
        Ok(out)
    }

    /// Runs op `id`, timed by `time`, and with a tracer also its replay
    /// (`replay_first` picks the order). The replay's time is the sum of
    /// the op's own top-level spans.
    pub fn run<T>(
        &mut self,
        tracer: Option<&mut Tracer>,
        id: u64,
        replay_first: bool,
        op: impl FnOnce() -> T,
        replay: impl FnOnce(&mut Tracer) -> T,
    ) -> Result<(T, Option<T>), String> {
        let mut pending = tracer.map(|tr| (tr, replay));
        let mut traced = None;
        if replay_first {
            traced = pending.take().map(|(tr, f)| self.replay(tr, id, f));
        }
        let out = self.time(op)?;
        if let Some((tr, f)) = pending {
            traced = Some(self.replay(tr, id, f));
        }
        Ok((out, traced))
    }

    fn replay<T>(&mut self, tr: &mut Tracer, id: u64, replay: impl FnOnce(&mut Tracer) -> T) -> T {
        tr.op = id as usize;
        let before = tr.op_ms();
        let out = replay(tr);
        self.traced_ms.push(tr.op_ms() - before);
        out
    }

    /// The traced guard: a replay must print byte for byte what the op
    /// printed.
    pub fn guard(
        &mut self,
        id: u64,
        untraced: &Result<String, String>,
        traced: &Result<String, String>,
    ) {
        if untraced != traced {
            self.fail(
                id,
                format!("op {id}: the traced replay's output differs from the op's"),
            );
        }
    }

    /// Every end-to-end metric. Every workload reports all of them.
    /// Peak RSS is not among them: on `edit` it does not repeat within a
    /// tenth (runs cluster near 125 and near 150 MB), so it is reported
    /// with the per-layer metrics.
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let op_s: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        let ported_ksloc = self.ported_sloc as f64 / 1e3;
        vec![
            ("ksloc_per_s", self.sloc as f64 / 1e3 / op_s, "ksloc/s"),
            (
                "sc_per_ksloc",
                self.sc_added as f64 / ported_ksloc,
                "count/ksloc",
            ),
            (
                "fences_per_ksloc",
                self.fences_added as f64 / ported_ksloc,
                "count/ksloc",
            ),
            ("op_ms_p50", util::percentile(&self.op_ms, 0.5), "ms"),
            ("op_ms_p90", util::percentile(&self.op_ms, 0.9), "ms"),
            ("setup_s", util::median(&self.setup_s), "s"),
        ]
    }

    /// The exact work counts: the workload's own plus the shared ones.
    fn work(&self) -> Vec<(&'static str, f64)> {
        let mut w = vec![
            ("ops", self.op_ms.len() as f64),
            ("sloc", self.sloc as f64),
            ("ported_sloc", self.ported_sloc as f64),
            ("sc_added", self.sc_added as f64),
            ("fences_added", self.fences_added as f64),
        ];
        w.extend(self.work.iter().copied());
        w
    }
}

/// The integers on the `label :` line of a report.
pub fn report_numbers(report: &str, label: &str) -> Result<Vec<usize>, String> {
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with(label) && l.contains(':'))
        .ok_or_else(|| format!("report has no `{label}` line"))?;
    let (_, rest) = line.split_once(':').expect("line contains ':'");
    Ok(rest
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect())
}

/// Runs one `atomig` command line through the CLI library the way the
/// `atomig` binary does: `batch` discovers its inputs first, every other
/// command reads its one source file.
pub fn atomig(args: &[&str]) -> Result<String, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let cmd = atomig_cli::parse_args(&args)?;
    let target = args.get(1).ok_or("no target")?;
    if args[0] == "batch" {
        let inputs = atomig_cli::discover_batch_inputs(target)?;
        atomig_cli::execute_batch(&cmd, &inputs)
    } else {
        let source = atomig_cli::read_source(target)?;
        atomig_cli::execute(&cmd, &source, atomig_cli::module_name(target))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["migrate", "edit", "verify"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (accepted: migrate, edit, verify)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return match diff::main(&args[1..]) {
            Ok(clean) => ExitCode::from(u8::from(!clean)),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload migrate|edit|verify --seed N --seconds N --trace 0|1\n       \
                 perfbench diff <run-set-a> <run-set-b>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flushes dirty file data (the cache a cold batch just wrote) with
/// `sync`, so its write-back does not compete with the timed ops that
/// follow. Best effort: where `sync` is missing the run goes on.
pub fn settle() {
    let _ = std::process::Command::new("sync").status();
}

/// A fixed integer loop timed at the start of every run: it does not
/// touch the program and only explains spread between runs.
fn probe_ms() -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = util::mix(x ^ i);
        }
        std::hint::black_box(x);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    util::median(&samples)
}

/// The checkout's commit, read from `.git` without running git; a
/// checkout that is not a repository reports `unknown`.
fn git_revision(cwd: &Path) -> String {
    let git = cwd.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(&format!(" {r}")))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
    }
}

fn run(args: &Args) -> Result<String, String> {
    let unset: Vec<&str> = SCRUBBED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    for v in SCRUBBED_ENV {
        std::env::remove_var(v);
    }
    if !unset.is_empty() {
        eprintln!("note: ignoring inherited {}", unset.join(", "));
    }
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let stray_cache = cwd.join(".atomig-cache");
    if stray_cache.exists() {
        return Err(format!(
            "{} exists; remove it so the run can show it leaves none behind",
            stray_cache.display()
        ));
    }
    let runs = cwd.join(RUNS_DIR);
    let root = runs.join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        cache: root.join("cache"),
        cwd: cwd.clone(),
        root,
    };
    std::env::set_var(CACHE_ENV, &ctx.cache);

    let probe = probe_ms();
    let result = measure(args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.root);
    std::env::remove_var(CACHE_ENV);
    if stray_cache.exists() {
        return Err(format!("the run left {} behind", stray_cache.display()));
    }
    let mut m = result?;
    m.layers.push(("host.probe_ms", probe, "ms"));
    m.layers
        .push(("peak_rss_mb", m.peak_rss as f64 / 1e6, "MB"));

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = Value::Obj(
        m.work
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v)))
            .collect(),
    );
    let metrics = |list: &[(&str, f64, &str)]| {
        Value::Obj(
            list.iter()
                .map(|(n, v, u)| {
                    // A value that is not a number (no op succeeded) reads null.
                    let v = if v.is_finite() {
                        Value::Num(*v)
                    } else {
                        Value::Null
                    };
                    let m = Value::obj(vec![("value", v), ("unit", (*u).into())]);
                    (n.to_string(), m)
                })
                .collect(),
        )
    };
    let samples = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Num(*x)).collect());
    let correct = m.failures.is_empty();
    let code = code_fingerprint(&cwd)?;
    let record = Value::obj(vec![
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("git_revision", git_revision(&cwd).into()),
        ("code", code.as_str().into()),
        ("nproc", nproc.into()),
        // Every op runs at default `--jobs`: host parallelism.
        ("jobs", atomig_core::AtomigConfig::full().jobs.into()),
        ("host_probe_ms", probe.into()),
        (
            "env_unset",
            Value::Arr(unset.iter().map(|v| (*v).into()).collect()),
        ),
        ("correct", correct.into()),
        ("attempted", m.attempted.into()),
        ("failed", m.failed_ops.len().into()),
        (
            "failures",
            Value::Arr(m.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("work", work.clone()),
        ("end_to_end", metrics(&m.e2e)),
        ("per_layer", metrics(&m.layers)),
        ("setup_s_samples", samples(&m.setup_s)),
        ("op_ms_samples", samples(&m.op_ms)),
    ]);
    let records = runs.join("records");
    std::fs::create_dir_all(&records).map_err(|e| format!("cannot create records dir: {e}"))?;
    same_work_as_before(&records, args, &code, &work)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let name = format!(
        "{}-seed{}-s{}-trace{}-{stamp}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    std::fs::write(records.join(format!("{name}.json")), format!("{record}\n"))
        .map_err(|e| format!("cannot write run record: {e}"))?;
    if let Some(tr) = &m.tracer {
        let traces = runs.join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| format!("cannot create traces dir: {e}"))?;
        std::fs::write(traces.join(format!("{name}.jsonl")), tr.to_jsonl())
            .map_err(|e| format!("cannot write trace: {e}"))?;
    }
    for f in &m.failures {
        eprintln!("failed: {f}");
    }
    let shown = if args.trace { &m.layers } else { &m.e2e };
    Ok(Value::obj(vec![
        ("correct", correct.into()),
        ("attempted", m.attempted.into()),
        ("failed", m.failed_ops.len().into()),
        ("metrics", metrics(shown)),
    ])
    .to_string())
}

/// The program files a run's work depends on: the repository's crates,
/// the workspace manifest and lock file, and the harness itself.
const CODE_ROOTS: [&str; 4] = ["crates", "Cargo.toml", "Cargo.lock", "perfbench/src"];

/// A fingerprint of the code under test: FNV-1a over the path and
/// content of every file under `CODE_ROOTS`, in sorted order. Two runs
/// with the same fingerprint ran the same code, whether or not the
/// checkout is a git repository.
fn code_fingerprint(cwd: &Path) -> Result<String, String> {
    fn files(p: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
        if p.is_dir() {
            let entries =
                std::fs::read_dir(p).map_err(|e| format!("cannot list {}: {e}", p.display()))?;
            for e in entries.flatten() {
                files(&e.path(), out)?;
            }
        } else if p.is_file() {
            out.push(p.to_path_buf());
        }
        Ok(())
    }
    let mut all = Vec::new();
    for r in CODE_ROOTS {
        files(&cwd.join(r), &mut all)?;
    }
    all.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &all {
        let body = std::fs::read(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let path = f.strip_prefix(cwd).unwrap_or(f).to_string_lossy();
        for b in path.bytes().chain([0xff]).chain(body) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(format!("{h:016x}"))
}

/// The exact-work check: every earlier record of this workload, seed and
/// length that ran the same code must hold the same work counts. Runs
/// before the check writes anything, so a mismatching run leaves no
/// record behind.
fn same_work_as_before(
    records: &Path,
    args: &Args,
    code: &str,
    work: &Value,
) -> Result<(), String> {
    let prefix = format!("{}-seed{}-s{}-", args.workload, args.seed, args.seconds);
    let entries =
        std::fs::read_dir(records).map_err(|e| format!("cannot list run records: {e}"))?;
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if !name.starts_with(&prefix) {
            continue;
        }
        let text = std::fs::read_to_string(e.path()).unwrap_or_default();
        let Ok(old) = parse(&text) else {
            continue;
        };
        if old.get("code").and_then(Value::as_str) != Some(code) {
            continue;
        }
        if let Some(old_work) = old.get("work") {
            if old_work != work {
                return Err(format!(
                    "work counts differ from the earlier run {name} of the same code, seed \
                     and length: {work} now, {old_work} then"
                ));
            }
        }
    }
    Ok(())
}

/// Everything a run measured, before it is rendered.
struct Measured {
    attempted: usize,
    failed_ops: BTreeSet<u64>,
    failures: Vec<String>,
    e2e: Vec<(&'static str, f64, &'static str)>,
    layers: Vec<(&'static str, f64, &'static str)>,
    work: Vec<(&'static str, f64)>,
    /// The run's raw samples: set-up seconds, op milliseconds.
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    /// The highest peak RSS of any op, in bytes.
    peak_rss: u64,
    tracer: Option<Tracer>,
}

/// Runs the workload. With `--trace 1` every op is also replayed as its
/// public calls, right next to the untraced op, and guarded against it;
/// the end-to-end metrics of such a run are not reported.
fn measure(args: &Args, ctx: &Ctx) -> Result<Measured, String> {
    let pass = match args.workload.as_str() {
        "migrate" => migrate::pass,
        "edit" => edit::pass,
        _ => verify::pass,
    };
    let mut tracer = args.trace.then(Tracer::new);
    let p = pass(ctx, tracer.as_mut())?;
    let mut m = Measured {
        attempted: p.op_ms.len(),
        failed_ops: p.failed_ops.clone(),
        failures: p.failures.clone(),
        e2e: Vec::new(),
        layers: Vec::new(),
        work: p.work(),
        setup_s: p.setup_s.clone(),
        op_ms: p.op_ms.clone(),
        peak_rss: p.peak_rss,
        tracer: None,
    };
    match tracer {
        None => m.e2e = p.end_to_end(),
        Some(tr) => {
            let untraced: f64 = p.op_ms.iter().sum();
            let traced: f64 = p.traced_ms.iter().sum();
            m.layers = layers(&tr, 100.0 * (traced / untraced - 1.0));
            m.tracer = Some(tr);
        }
    }
    Ok(m)
}

/// Every per-layer metric, from the replays' spans and counters.
/// Sums run over all ops of the run; a layer the workload never calls
/// reads 0.
fn layers(tr: &Tracer, overhead_pct: f64) -> Vec<(&'static str, f64, &'static str)> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let lex = tr.ms("frontc.lex");
    let check = tr.ms("wmm.check");
    let states = tr.counted("wmm.states");
    let (hits, misses) = (tr.counted("cache.hits"), tr.counted("cache.misses"));
    vec![
        ("frontc.lex_ms", lex, "ms"),
        ("frontc.parse_ms", tr.ms("frontc.parse"), "ms"),
        ("frontc.lower_ms", tr.ms("frontc.lower"), "ms"),
        (
            "frontc.tokens_per_ms",
            ratio(tr.counted("frontc.tokens"), lex),
            "1/ms",
        ),
        ("mir.verify_ms", tr.ms("mir.verify"), "ms"),
        ("mir.insts", tr.counted("mir.insts"), "count"),
        ("mir.print_ms", tr.ms("mir.print"), "ms"),
        ("mir.print_bytes", tr.counted("mir.print_bytes"), "bytes"),
        ("analysis.inline_ms", tr.ms("analysis.inline"), "ms"),
        (
            "analysis.inlined_calls",
            tr.counted("analysis.inlined_calls"),
            "count",
        ),
        ("core.detect_ms", tr.ms("core.detect"), "ms"),
        ("core.alias_build_ms", tr.ms("core.alias_build"), "ms"),
        ("core.transform_ms", tr.ms("core.transform"), "ms"),
        ("core.other_ms", tr.ms("core.other"), "ms"),
        ("core.decisions", tr.counted("core.decisions"), "count"),
        ("core.batch_port_ms", tr.counted("core.batch_port_ms"), "ms"),
        ("analysis.pointsto_ms", tr.ms("analysis.pointsto"), "ms"),
        (
            "analysis.pointsto_iterations",
            tr.counted("analysis.pointsto_iterations"),
            "count",
        ),
        ("core.lint_ms", tr.ms("core.lint"), "ms"),
        (
            "core.lint_findings",
            tr.counted("core.lint_findings"),
            "count",
        ),
        ("cache.hits", hits, "count"),
        ("cache.misses", misses, "count"),
        ("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("cache.bytes", tr.maximum("cache.bytes"), "bytes"),
        ("wmm.check_ms", check, "ms"),
        ("wmm.states", states, "count"),
        ("wmm.states_per_ms", ratio(states, check), "1/ms"),
        (
            "wmm.revisit_ratio",
            ratio(tr.counted("wmm.revisits"), states),
            "ratio",
        ),
        ("wmm.peak_tracked", tr.maximum("wmm.peak_tracked"), "count"),
        (
            "par.detect_speedup",
            ratio(
                tr.counted("par.detect_ms_jobs1"),
                tr.counted("par.detect_ms_default"),
            ),
            "x",
        ),
        (
            "par.check_speedup",
            ratio(
                tr.counted("par.check_ms_jobs1"),
                tr.counted("par.check_ms_default"),
            ),
            "x",
        ),
        (
            "cli.glue_ms",
            tr.ms("cli.parse_args") + tr.ms("cli.read_source"),
            "ms",
        ),
        ("cli.discover_ms", tr.ms("cli.discover"), "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

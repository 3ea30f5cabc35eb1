//! The traced run's span store and per-layer tally.
//!
//! Spans are recorded from outside the program, around each public call
//! into a layer (`frontc::lex`, `Pipeline::port_module`,
//! `Checker::check`, ...). Calls that do several layers' work in one
//! call are split afterwards with the phase timings and counters the
//! program already returns; those children are marked `derived`. Spans
//! stay in memory and are written once, at the end of the run.

use atomig_core::json::Value;
use atomig_core::trace::PipelineMetrics;
use atomig_core::{AtomigConfig, Pipeline, PortReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a span times: a call of the op proper (`Op`), a call the
/// untraced op never makes (`Replay`: a `--jobs 1` re-run, or the batch's
/// frontend replayed outside the batch), or a part of an `Op` call that
/// the program timed itself (`Derived`). Only top-level `Op` spans count
/// towards the traced op time behind `trace.overhead_pct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Op,
    Replay,
    Derived,
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
    kind: Kind,
}

/// Spans plus the counters recorded at the same call boundaries.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
    /// The op currently being replayed; spans carry it as their op id.
    pub op: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            maxima: BTreeMap::new(),
            op: 0,
        }
    }

    /// Runs `f` as one span named `name` and returns its result and the
    /// span's index (for derived children).
    pub fn span<T>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> T) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: None,
            start: start - self.t0,
            dur,
            kind,
        });
        (out, self.spans.len() - 1)
    }

    /// Records a child of span `parent` whose duration the program
    /// reported itself (a pipeline phase, a batch module's port time).
    pub fn derived(&mut self, parent: usize, name: &'static str, dur: Duration) {
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: Some(parent),
            start,
            dur,
            kind: Kind::Derived,
        });
    }

    pub fn dur(&self, span: usize) -> Duration {
        self.spans[span].dur
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.maxima.entry(name).or_insert(v);
        *e = e.max(v);
    }

    /// Splits a `port_module` or `lint_module` span into the layers its
    /// phases name. The part no named phase covers goes to `rest`:
    /// `core.other` for a port, `core.lint` (dry run and rules) for a lint.
    pub fn split(&mut self, span: usize, metrics: &PipelineMetrics, rest: &'static str) {
        let mut named = Duration::ZERO;
        for p in &metrics.phases {
            let layer = match p.name.as_str() {
                "inline" => "analysis.inline",
                "detect" => "core.detect",
                "alias-build" => "core.alias_build",
                "points-to-solve" => "analysis.pointsto",
                "transform" => "core.transform",
                _ => continue,
            };
            named += p.duration;
            self.derived(span, layer, p.duration);
        }
        let rest_dur = self.dur(span).saturating_sub(named);
        self.derived(span, rest, rest_dur);
        if let Some(s) = &metrics.solver {
            self.count("analysis.pointsto_iterations", s.iterations as f64);
        }
    }

    /// Total milliseconds of leaf spans named `name` (a span that was
    /// split counts only through its derived children).
    pub fn ms(&self, name: &str) -> f64 {
        let split: std::collections::HashSet<usize> =
            self.spans.iter().filter_map(|s| s.parent).collect();
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && !split.contains(i))
            .map(|(_, s)| s.dur.as_secs_f64() * 1e3)
            .sum()
    }

    /// Milliseconds of the op's own top-level spans: the traced op time.
    pub fn op_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Op && s.parent.is_none())
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .sum()
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn maximum(&self, name: &str) -> f64 {
        self.maxima.get(name).copied().unwrap_or(0.0)
    }

    /// One JSON object per span, for the trace file.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let v = Value::obj(vec![
                ("id", i.into()),
                ("name", s.name.into()),
                ("op", s.op.into()),
                ("parent", s.parent.map_or(Value::Null, Value::from)),
                ("start_us", (s.start.as_secs_f64() * 1e6).into()),
                ("dur_us", (s.dur.as_secs_f64() * 1e6).into()),
                ("kind", format!("{:?}", s.kind).to_lowercase().into()),
            ]);
            out.push_str(&format!("{v}\n"));
        }
        out
    }
}

/// The frontend as `atomig_frontc::compile` runs it, one span per stage:
/// lex, parse, lower, verify. Counts tokens and instructions.
pub fn compile(
    tr: &mut Tracer,
    kind: Kind,
    source: &str,
    name: &str,
) -> Result<atomig_mir::Module, String> {
    let (tokens, _) = tr.span("frontc.lex", kind, || atomig_frontc::lex(source));
    let tokens = tokens.map_err(|e| e.to_string())?;
    tr.count("frontc.tokens", tokens.len() as f64);
    let (program, _) = tr.span("frontc.parse", kind, || atomig_frontc::parse(&tokens));
    let program = program.map_err(|e| e.to_string())?;
    let (module, _) = tr.span("frontc.lower", kind, || {
        atomig_frontc::lower(&program, name)
    });
    let module = module.map_err(|e| e.to_string())?;
    let (ok, _) = tr.span("mir.verify", kind, || atomig_mir::verify_module(&module));
    ok.map_err(|e| e.to_string())?;
    tr.count("mir.insts", module.inst_count() as f64);
    Ok(module)
}

/// `Pipeline::port_module` as `atomig port` configures it at default
/// flags, split into its phases.
pub fn port(tr: &mut Tracer, kind: Kind, m: &mut atomig_mir::Module) -> PortReport {
    let (report, span) = tr.span("core.port", kind, || {
        Pipeline::new(AtomigConfig::full()).port_module(m)
    });
    tr.split(span, &report.metrics, "core.other");
    tr.count("analysis.inlined_calls", report.inlined_calls as f64);
    tr.count("core.decisions", report.ledger.len() as f64);
    report
}

/// Ports `original` again at `--jobs 1`, outside the op, so that
/// `par.detect_speedup` compares the detect phase on the same input.
pub fn detect_at_one_job(tr: &mut Tracer, mut original: atomig_mir::Module, report: &PortReport) {
    let mut cfg = AtomigConfig::full();
    cfg.jobs = 1;
    let one = Pipeline::new(cfg).port_module(&mut original);
    let detect_ms = |r: &PortReport| {
        r.metrics
            .phase("detect")
            .map_or(0.0, |p| p.duration.as_secs_f64() * 1e3)
    };
    tr.count("par.detect_ms_jobs1", detect_ms(&one));
    tr.count("par.detect_ms_default", detect_ms(report));
}

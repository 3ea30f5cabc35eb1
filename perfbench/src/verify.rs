//! `verify`: time to a verdict. Each op is `atomig check <client>` and
//! `atomig check <client> --ported` (model `arm`, the default) on one of
//! the five Table 2 model-checking clients or one of the four shipped
//! examples: nine ops, 18 checks per pass, in a fixed order.

use crate::trace::{self, Kind, Tracer};
use crate::{atomig, report_numbers, Ctx, Pass};
use atomig_wmm::{Checker, ModelKind};
use std::time::Instant;

/// Passes per second of `--seconds`: a pass takes about 0.13 s on a
/// 2-core x86-64 host. Twice as many passes did not narrow the spread
/// between runs, which comes from the host, not from sampling.
const PASSES_PER_SECOND: f64 = 7.5;
/// Warm-up passes in set-up; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// A client and its known answers under Arm: `(original, ported)`,
/// `true` meaning the check passes. Table 2 has every original failing
/// and every AtoMig port passing. `examples/seqlock.c` passes in both:
/// its assertion accepts either payload, so the missing fences cannot
/// show. The other examples document a weak-memory failure that the
/// port removes.
struct Client {
    name: &'static str,
    source: Source,
    answer: (bool, bool),
}

enum Source {
    Generated(fn() -> String),
    Example(&'static str),
}

const CLIENTS: [Client; 9] = [
    Client {
        name: "ck_ring",
        source: Source::Generated(atomig_workloads::ck::ring_mc),
        answer: (false, true),
    },
    Client {
        name: "ck_spinlock_cas",
        source: Source::Generated(atomig_workloads::ck::spinlock_cas_mc),
        answer: (false, true),
    },
    Client {
        name: "ck_spinlock_mcs",
        source: Source::Generated(atomig_workloads::ck::spinlock_mcs_mc),
        answer: (false, true),
    },
    Client {
        name: "ck_sequence",
        source: Source::Generated(atomig_workloads::ck::sequence_mc),
        answer: (false, true),
    },
    Client {
        name: "lf_hash",
        source: Source::Generated(atomig_workloads::lf_hash::lf_hash_mc),
        answer: (false, true),
    },
    Client {
        name: "mp",
        source: Source::Example("examples/mp.c"),
        answer: (false, true),
    },
    Client {
        name: "seqlock",
        source: Source::Example("examples/seqlock.c"),
        answer: (true, true),
    },
    Client {
        name: "seqlock_alias",
        source: Source::Example("examples/seqlock_alias.c"),
        answer: (false, true),
    },
    Client {
        name: "tas_lock",
        source: Source::Example("examples/tas_lock.c"),
        answer: (false, true),
    },
];

fn passes(seconds: u64) -> u64 {
    ((seconds as f64 * PASSES_PER_SECOND).round() as u64).max(1)
}

/// Writes the generated clients; examples are checked where they are.
fn paths(ctx: &Ctx) -> Result<Vec<String>, String> {
    let dir = ctx.dir("clients")?;
    CLIENTS
        .iter()
        .map(|c| match &c.source {
            Source::Generated(f) => {
                let p = dir.join(format!("{}.c", c.name));
                std::fs::write(&p, f()).map_err(|e| format!("cannot write client: {e}"))?;
                Ok(ctx.rel(&p))
            }
            Source::Example(p) => Ok(p.to_string()),
        })
        .collect()
}

fn args(path: &str, ported: bool) -> Vec<&str> {
    if ported {
        vec!["check", path, "--ported"]
    } else {
        vec!["check", path]
    }
}

/// The verdict line's judgement: passed, failed with a violation, or an
/// error (anything else, a truncated exploration included).
fn verdict(out: &Result<String, String>) -> Result<bool, String> {
    match out {
        Ok(s) if s.contains(": PASS (") => Ok(true),
        Err(e) if e.contains(": VIOLATION: ") => Ok(false),
        Ok(s) | Err(s) => Err(s.clone()),
    }
}

/// The state count a verdict line reports.
fn states(out: &Result<String, String>) -> usize {
    let s = match out {
        Ok(s) | Err(s) => s,
    };
    s.split(" states")
        .next()
        .and_then(|h| h.rsplit(['(', ' ']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Source lines of a client and the barriers its port adds,
/// `[explicit, implicit]`, read once from `atomig port <file> --report`.
fn census(path: &str) -> Result<(usize, [usize; 2]), String> {
    let source = atomig_cli::read_source(path)?;
    let sloc = source.lines().filter(|l| !l.trim().is_empty()).count();
    match report_numbers(&atomig(&["port", path, "--report"])?, "added")?[..] {
        [explicit, implicit] => Ok((sloc, [explicit, implicit])),
        _ => Err(format!("port report of {path} has no barrier counts")),
    }
}

/// The `verify` run: fixed passes over the clients, each verdict checked
/// against its known answer. With a tracer, each op is also replayed as
/// its public calls.
pub fn pass(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let paths = paths(ctx)?;
    let censuses = paths
        .iter()
        .map(|p| census(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut pass = Pass::default();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        for p in &paths {
            for ported in [false, true] {
                verdict(&atomig(&args(p, ported)))?;
            }
        }
        pass.setup_s.push(t.elapsed().as_secs_f64());
    }

    let (mut checks, mut total_states) = (0usize, 0usize);
    let mut op = 0u64;
    for _ in 0..passes(ctx.seconds) {
        for ((c, path), &(sloc, [fences, sc])) in CLIENTS.iter().zip(&paths).zip(&censuses) {
            // Whichever of op and replay runs second finds the allocator
            // warm, so the order alternates.
            let (outs, traced) = pass.run(
                tracer.as_deref_mut(),
                op,
                op % 2 == 1,
                || [false, true].map(|p| atomig(&args(path, p))),
                |tr| [false, true].map(|p| replay(tr, path, p)),
            )?;
            for (untraced, traced) in outs.iter().zip(traced.iter().flatten()) {
                pass.guard(op, untraced, traced);
            }
            pass.sloc += 2 * sloc;
            pass.ported_sloc += sloc;
            pass.sc_added += sc;
            pass.fences_added += fences;
            for (out, (ported, want)) in outs.iter().zip([(false, c.answer.0), (true, c.answer.1)])
            {
                checks += 1;
                total_states += states(out);
                match verdict(out) {
                    Ok(got) if got == want => {}
                    Ok(got) => pass.fail(
                        op,
                        format!(
                            "check {}{}: {} but the known answer is {}",
                            c.name,
                            if ported { " --ported" } else { "" },
                            if got { "PASS" } else { "VIOLATION" },
                            if want { "PASS" } else { "VIOLATION" },
                        ),
                    ),
                    Err(e) => pass.fail(op, format!("check {}: {e}", c.name)),
                }
            }
            op += 1;
        }
    }
    pass.work = vec![("checks", checks as f64), ("states", total_states as f64)];
    Ok(pass)
}

/// `atomig check <file> [--ported]` as its public calls: compile, the
/// optional port, then `Checker::check` from `main`. Outside the op, the
/// same module is checked again at `--jobs 1` for `par.check_speedup`.
fn replay(tr: &mut Tracer, path: &str, ported: bool) -> Result<String, String> {
    let args: Vec<String> = args(path, ported).iter().map(|s| s.to_string()).collect();
    tr.span("cli.parse_args", Kind::Op, || atomig_cli::parse_args(&args))
        .0?;
    let (src, _) = tr.span("cli.read_source", Kind::Op, || {
        atomig_cli::read_source(path)
    });
    let mut m = trace::compile(tr, Kind::Op, &src?, atomig_cli::module_name(path))?;
    if ported {
        let original = m.clone();
        let report = trace::port(tr, Kind::Op, &mut m);
        trace::detect_at_one_job(tr, original, &report);
    }
    let model = ModelKind::Arm;
    let (verdict, check) = tr.span("wmm.check", Kind::Op, || {
        Checker::new(model).check(&m, "main")
    });
    tr.count("wmm.states", verdict.states as f64);
    tr.count("wmm.revisits", verdict.revisits as f64);
    tr.max("wmm.peak_tracked", verdict.peak_tracked as f64);
    let mut one = Checker::new(model);
    one.config.jobs = 1;
    let (_, span) = tr.span("par.check_jobs1", Kind::Replay, || one.check(&m, "main"));
    tr.count("par.check_ms_jobs1", tr.dur(span).as_secs_f64() * 1e3);
    tr.count("par.check_ms_default", tr.dur(check).as_secs_f64() * 1e3);
    let text = format!("{model}: {verdict}");
    if verdict.violation.is_some() {
        Err(text)
    } else {
        Ok(text)
    }
}

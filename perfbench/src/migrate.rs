//! `migrate`: `atomig port <module.c>` on whole-program modules that
//! cycle through the five Table 3 profiles at 1:100, each generated
//! fresh from a seed derived from the workload seed and the op index.

use crate::trace::{self, Kind, Tracer};
use crate::util;
use crate::{atomig, report_numbers, Ctx, Pass};
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig, GeneratedApp};
use std::time::Instant;

/// Scale of the synthetic modules (MariaDB: 31.7 ksloc, 2,551 functions).
const SCALE: u32 = 100;
/// Five-module cycles per second of `--seconds`. One cycle takes about
/// 0.37 s of op time on a 2-core x86-64 host, so a run's op time is
/// close to `--seconds` there; elsewhere the work stays the same.
const CYCLES_PER_SECOND: f64 = 2.7;
/// Warm-up passes in set-up; `setup_s` is their median.
const SETUP_ROUNDS: u64 = 5;
const OP_STREAM: u64 = 1;
const WARMUP_STREAM: u64 = 2;

fn module(seed: u64, stream: u64, index: u64) -> (String, GeneratedApp) {
    let all = profiles::all();
    let p = &all[(index % all.len() as u64) as usize];
    let mut cfg = GenConfig::from_profile(p, SCALE);
    cfg.seed = util::derive(seed, stream, index);
    (p.name.to_lowercase(), synth::generate(cfg))
}

fn write(ctx: &Ctx, name: &str, app: &GeneratedApp) -> Result<String, String> {
    let path = ctx.dir("src")?.join(format!("{name}.c"));
    std::fs::write(&path, &app.source)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(ctx.rel(&path))
}

fn ops(seconds: u64) -> u64 {
    5 * ((seconds as f64 * CYCLES_PER_SECOND).round() as u64).max(1)
}

/// The `migrate` run. Each op runs through the CLI library exactly as
/// `atomig port <file>` does and is checked afterwards, untimed. With a
/// tracer, each op is also replayed as its public-call sequence.
pub fn pass(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for round in 0..SETUP_ROUNDS {
        let mut secs = 0.0;
        for k in 0..5 {
            let (name, app) = module(ctx.seed, WARMUP_STREAM, round * 5 + k);
            let path = write(ctx, &name, &app)?;
            let t = Instant::now();
            atomig(&["port", &path])?;
            secs += t.elapsed().as_secs_f64();
        }
        pass.setup_s.push(secs);
    }

    let (mut funcs, mut spins, mut optis) = (0, 0, 0);
    for i in 0..ops(ctx.seconds) {
        let (name, app) = module(ctx.seed, OP_STREAM, i);
        let path = write(ctx, &name, &app)?;
        pass.sloc += app.sloc;
        // Whichever of op and replay runs second finds the allocator
        // warm, so the order alternates.
        let (out, traced) = pass.run(
            tracer.as_deref_mut(),
            i,
            i % 2 == 1,
            || atomig(&["port", &path]),
            |tr| replay(tr, &path, &name),
        )?;
        if let Some(traced) = traced {
            pass.guard(i, &out, &traced);
        }
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                pass.fail(i, format!("port {path}: {e}"));
                continue;
            }
        };
        match check(&path, &out, &app.config) {
            Ok(c) => {
                funcs += c.funcs;
                pass.ported_sloc += app.sloc;
                pass.sc_added += c.sc_added;
                pass.fences_added += c.fences_added;
                spins += c.spinloops;
                optis += c.optiloops;
            }
            Err(e) => pass.fail(i, format!("port {path}: {e}")),
        }
    }

    pass.work = vec![
        ("functions", funcs as f64),
        ("spinloops", spins as f64),
        ("optiloops", optis as f64),
    ];
    Ok(pass)
}

/// What the independent check of one port counted.
struct Checked {
    funcs: usize,
    sc_added: usize,
    fences_added: usize,
    spinloops: usize,
    optiloops: usize,
}

/// The output must re-parse and verify as MIR, its barrier census must
/// match the port report's "after" census, and the detected loops must
/// equal what the generator planted. The default port inlines each
/// `tas_acquire_i` into `tas_update_i`, so every test-and-set acquire
/// loop is detected twice.
fn check(path: &str, out: &str, cfg: &GenConfig) -> Result<Checked, String> {
    let m = atomig_mir::parse_module(out).map_err(|e| format!("output does not re-parse: {e}"))?;
    atomig_mir::verify_module(&m).map_err(|e| format!("output does not verify: {e}"))?;
    let census = atomig_core::BarrierCensus::of(&m);
    let report = atomig(&["port", path, "--report"])?;
    let one = |label: &str| -> Result<usize, String> {
        match report_numbers(&report, label)?[..] {
            [n] => Ok(n),
            _ => Err(format!("report line `{label}` does not hold one count")),
        }
    };
    let (spinloops, optiloops) = (one("spinloops")?, one("optimistic loops")?);
    let two = |label: &str| -> Result<[usize; 2], String> {
        match report_numbers(&report, label)?[..] {
            [explicit, implicit] => Ok([explicit, implicit]),
            _ => Err(format!("report line `{label}` does not hold two counts")),
        }
    };
    let (after, added) = (two("barriers after")?, two("added")?);
    let want_spins = (cfg.expected_spinloops() + cfg.tas_locks) as usize;
    if spinloops != want_spins || optiloops != cfg.expected_optiloops() as usize {
        return Err(format!(
            "detected {spinloops} spinloop(s) / {optiloops} optimistic, \
             generator planted {want_spins} / {}",
            cfg.expected_optiloops()
        ));
    }
    if after != [census.explicit, census.implicit] {
        return Err(format!(
            "report says {after:?} explicit/implicit barriers after porting, \
             the printed module has {} / {}",
            census.explicit, census.implicit
        ));
    }
    Ok(Checked {
        funcs: m.funcs.len(),
        sc_added: added[1],
        fences_added: added[0],
        spinloops,
        optiloops,
    })
}

/// `atomig port <file>` as its public calls: compile (lex, parse, lower,
/// verify), `Pipeline::port_module`, verify, print. Afterwards, outside
/// the op, the same module is ported again at `--jobs 1` for
/// `par.detect_speedup`.
fn replay(tr: &mut Tracer, path: &str, name: &str) -> Result<String, String> {
    let args = ["port".to_string(), path.to_string()];
    tr.span("cli.parse_args", Kind::Op, || atomig_cli::parse_args(&args))
        .0?;
    let (src, _) = tr.span("cli.read_source", Kind::Op, || {
        atomig_cli::read_source(path)
    });
    let mut m = trace::compile(tr, Kind::Op, &src?, name)?;
    let original = m.clone();
    let report = trace::port(tr, Kind::Op, &mut m);
    tr.span("mir.verify", Kind::Op, || atomig_mir::verify_module(&m))
        .0
        .map_err(|e| e.to_string())?;
    let (out, _) = tr.span("mir.print", Kind::Op, || {
        atomig_mir::printer::print_module(&m)
    });
    tr.count("mir.print_bytes", out.len() as f64);
    trace::detect_at_one_job(tr, original, &report);
    Ok(out)
}

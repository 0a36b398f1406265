//! `perfbench` — the repository benchmark's command.
//!
//! ```text
//! perfbench --workload compile|tune|serve-warm
//!           --seed <n> --seconds <s> --trace 0|1
//! perfbench --regen-expected     # re-record expected.txt
//! perfbench --validate-all       # interpreter-check every artifact
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). The serve workload first builds the
//! shipped `polyjectd` and `polyject-router` binaries with cargo. The
//! last line of standard output is the JSON result; the exit code is 0
//! only if every output checked out.

use polyject_gpusim::GpuModel;
use polyject_perfbench::expected::Expected;
use polyject_perfbench::ledger::per_layer_metrics;
use polyject_perfbench::report::Metric;
use polyject_perfbench::stream::{Population, CONFIGS};
use polyject_perfbench::{
    artifact, compile, interp, machine, serve, stats, tune, Ctx, TempRoot, WORKLOADS,
};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload compile|tune|serve-warm \
     --seed <n> --seconds <s> --trace 0|1 | --regen-expected | --validate-all";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        mode: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).cloned().ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--regen-expected" | "--validate-all" => a.mode = Some(flag.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if a.mode.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

/// Builds the shipped serving binaries from the program's workspace (the
/// working directory) and returns the directory holding them.
fn build_serving_binaries() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "polyject-serve",
            "--bin",
            "polyjectd",
            "--bin",
            "polyject-router",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the serving binaries failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Ok(PathBuf::from(target).join("release"))
}

fn ctx(a: &Args, expected: Expected, bin_dir: PathBuf) -> Result<Ctx, String> {
    let tag = if a.workload.is_empty() {
        "tool"
    } else {
        &a.workload
    };
    Ok(Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        gpu: GpuModel::v100(),
        expected,
        root: TempRoot::new(tag).map_err(|e| format!("temp dir: {e}"))?,
        bin_dir,
    })
}

/// Re-records `expected.txt` from one in-process compile pass and one
/// tune pass.
fn regen_expected(ctx: &Ctx) -> Result<(), String> {
    let pop = Population::new();
    let mut p = compile::pass(ctx, &pop, false, true);
    if !p.errors.is_empty() {
        return Err(p.errors.join("; "));
    }
    compile::mark_influenced(&mut p);
    let sims: Vec<_> = p.sims.iter().map(|s| s.expect("no errors")).collect();
    let mut e = Expected {
        rows: polyject_perfbench::expected::table2(&pop, &sims),
        ..Expected::default()
    };
    e.sim_geomean = polyject_perfbench::expected::table2_geomean(&e.rows);
    for (i, (kernel, compiled)) in p.kept.iter().enumerate() {
        for (c, (cfg, comp)) in CONFIGS.iter().zip(compiled).enumerate() {
            let r = artifact::in_process_reply(kernel, *cfg, comp, &ctx.gpu)?;
            e.artifacts.insert((i, c), artifact::artifact_digest(&r));
        }
    }
    let t = tune::pass(ctx, &pop, false);
    if !t.errors.is_empty() {
        return Err(t.errors.join("; "));
    }
    let outcomes: Vec<_> = t.outcomes.iter().map(|o| o.expect("no errors")).collect();
    e.tune_geomean = tune::speedup_geomean(&outcomes);
    e.tune = outcomes.into_iter().enumerate().collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
    std::fs::write(path, e.render()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {path}: Table II geomean {:.4}, tune geomean {:.4}",
        e.sim_geomean, e.tune_geomean
    );
    Ok(())
}

/// Interpreter-checks every artifact of one compile pass.
fn validate_all(ctx: &Ctx) -> Result<(), String> {
    let pop = Population::new();
    let p = compile::pass(ctx, &pop, false, true);
    let mut bad = 0;
    for (i, (kernel, compiled)) in p.kept.iter().enumerate() {
        for (cfg, comp) in CONFIGS.iter().zip(compiled) {
            let t = Instant::now();
            let r = interp::check(kernel, comp, 0);
            println!(
                "op {i:3} {:5} footprint {:>11} B  {:8.2} s  {}",
                cfg.name(),
                interp::footprint(kernel),
                t.elapsed().as_secs_f64(),
                match &r {
                    Ok(()) => "ok".to_string(),
                    Err(e) => format!("MISMATCH {e}"),
                }
            );
            bad += r.is_err() as usize;
        }
    }
    if bad > 0 {
        return Err(format!("{bad} artifact(s) differ from the reference"));
    }
    println!(
        "all {} artifacts match the reference",
        p.kept.len() * CONFIGS.len()
    );
    Ok(())
}

fn run(a: &Args) -> Result<bool, String> {
    if let Some(mode) = &a.mode {
        let c = ctx(a, Expected::default(), PathBuf::new())?;
        match mode.as_str() {
            "--regen-expected" => regen_expected(&c)?,
            _ => validate_all(&c)?,
        }
        return Ok(true);
    }
    let expected = Expected::checked_in()?;
    let serving = a.workload.starts_with("serve");
    let bin_dir = if serving {
        build_serving_binaries()?
    } else {
        PathBuf::new()
    };
    let c = ctx(a, expected, bin_dir)?;
    let t_run = Instant::now();
    let cpu0 = machine::cpu_s("self").unwrap_or(0.0);
    let fsync_start =
        machine::fsync_probe(c.root.path()).map_err(|e| format!("fsync probe: {e}"))?;
    let mut out = match a.workload.as_str() {
        "compile" => compile::run(&c),
        "tune" => tune::run(&c),
        _ => serve::run(&c),
    };
    let fsync_end = machine::fsync_probe(c.root.path()).map_err(|e| format!("fsync probe: {e}"))?;
    let wall = t_run.elapsed().as_secs_f64();
    let cpu = machine::cpu_s("self").unwrap_or(0.0) - cpu0;
    let fsync = stats::median(&[fsync_start, fsync_end]);
    let cores = machine::cores() as f64;

    let notes = &mut out.report.notes;
    notes.push(Metric::new("machine.cores", cores, "count", 1));
    notes.push(Metric::new("machine.fsync_ms_start", fsync_start, "ms", 1));
    notes.push(Metric::new("machine.fsync_ms_end", fsync_end, "ms", 1));
    notes.push(Metric::new("run.process_cpu_s", cpu, "s", 1));
    notes.push(Metric::new("run.wall_s", wall, "s", 1));

    let metrics = if a.trace {
        for l in &mut out.ledgers {
            l.set("machine.cores", cores);
            l.set("machine.fsync_ms", fsync);
            l.set("tracing_overhead_pct", out.overhead_pct);
        }
        per_layer_metrics(&out.ledgers)
    } else {
        let rss = out
            .peak_rss_mb
            .unwrap_or_else(|| machine::peak_rss_mb("self").unwrap_or(0.0));
        let mut m = vec![Metric::new(
            "setup_s",
            stats::median(&out.setup_s),
            "s",
            out.setup_s.len(),
        )];
        m.append(&mut out.e2e);
        m.push(Metric::new("peak_rss_mb", rss, "MB", 1));
        m
    };
    out.report.metrics = metrics;
    out.report.check_finite();
    print!("{}", out.report.render());
    Ok(out.report.correct())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Fleets and temp directories tear down in their destructors, which
    // also run while a panic unwinds; the panic then fails the run.
    match std::panic::catch_unwind(|| run(&a)) {
        Ok(Ok(true)) => ExitCode::SUCCESS,
        Ok(Ok(false)) => ExitCode::FAILURE,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => ExitCode::FAILURE,
    }
}

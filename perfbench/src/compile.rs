//! The `compile` workload: in-process, one thread, no daemon. Each pass
//! compiles the 114 unique Table II operator classes in network order
//! under isl, novec and infl (342 `compile` calls), runs the TVM
//! baseline and every `estimate`, so Table II can be rebuilt. The
//! in-process memo state is cleared at the start of each pass, as a
//! fresh `table2` process would find it.

use crate::artifact::{artifact_digest, in_process_reply};
use crate::expected::{table2, table2_geomean, OpSim};
use crate::ledger::Ledger;
use crate::report::Metric;
use crate::stream::{Population, CONFIGS};
use crate::{interp, machine, Ctx, Outcome, Samples, SETUP_REPEATS};
use polyject_codegen::{compile, render, Compiled};
use polyject_gpusim::estimate;
use polyject_ir::Kernel;
use polyject_sets::counters;
use polyject_workloads::compile_tvm;
use std::time::Instant;

/// One pass's outputs.
pub struct Pass {
    /// Pass wall seconds.
    pub wall_s: f64,
    /// Per-`compile` call milliseconds.
    pub compile_ms: Vec<f64>,
    /// Per-op simulated results (`None` if a compile failed).
    pub sims: Vec<Option<OpSim>>,
    /// The kernels and compiled artifacts, when kept for verification.
    pub kept: Vec<(Kernel, Vec<Compiled>)>,
    /// Compile failures.
    pub errors: Vec<String>,
    /// Layer totals (traced passes only).
    pub ledger: Ledger,
}

/// Runs one pass over the population.
pub fn pass(ctx: &Ctx, pop: &Population, traced: bool, keep: bool) -> Pass {
    polyject_core::clear_assembly_caches();
    let mut p = Pass {
        wall_s: 0.0,
        compile_ms: Vec::with_capacity(pop.unique.len() * CONFIGS.len()),
        sims: Vec::with_capacity(pop.unique.len()),
        kept: Vec::new(),
        errors: Vec::new(),
        ledger: Ledger::default(),
    };
    let cpu0 = machine::cpu_s("self").unwrap_or(0.0);
    let mut spans_ns = 0u128;
    let t_pass = Instant::now();
    for (i, op) in pop.unique.iter().enumerate() {
        let t = Instant::now();
        let kernel = op.build();
        let ir = t.elapsed().as_nanos();
        let mut compiled = Vec::with_capacity(CONFIGS.len());
        for cfg in CONFIGS {
            let before = traced.then(counters::snapshot);
            let t = Instant::now();
            let c = compile(&kernel, cfg);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            p.compile_ms.push(ms);
            if let Some(before) = before {
                p.ledger
                    .add_counters(&counters::snapshot().delta_since(&before));
            }
            match c {
                Ok(c) => compiled.push(c),
                Err(e) => p.errors.push(format!("op {i} {}: {e}", cfg.name())),
            }
        }
        if compiled.len() < CONFIGS.len() {
            p.sims.push(None);
            continue;
        }
        let t = Instant::now();
        let tvm = compile_tvm(&kernel);
        let tvm_ns = t.elapsed().as_nanos();
        let t = Instant::now();
        let [isl, novec, infl] = [0, 1, 2].map(|c| estimate(&compiled[c].ast, &kernel, &ctx.gpu));
        let tvm_s: f64 = tvm
            .iter()
            .map(|(sub, ast)| estimate(ast, sub, &ctx.gpu).time)
            .sum();
        let est_ns = t.elapsed().as_nanos();
        p.sims.push(Some(OpSim {
            time_ms: [isl.ms(), tvm_s * 1e3, novec.ms(), infl.ms()],
            vec_eligible: compiled[2].vector_loops > 0,
            influenced: false, // set by `verify`, which renders the ASTs
        }));
        if traced {
            p.ledger.add("ir.build_ms", ir as f64 / 1e6);
            p.ledger.add("tvm.compile_ms", tvm_ns as f64 / 1e6);
            p.ledger.add("gpusim.estimate_ms", est_ns as f64 / 1e6);
            p.ledger.add(
                "codegen.vector_loops",
                compiled.iter().map(|c| c.vector_loops as f64).sum(),
            );
            spans_ns += ir + tvm_ns + est_ns;
        }
        if keep {
            p.kept.push((kernel, compiled));
        }
    }
    p.wall_s = t_pass.elapsed().as_secs_f64();
    if traced {
        let l = &mut p.ledger;
        let phases = ["deps.ms", "core.assemble_ms", "sets.solve_ms", "codegen.ms"]
            .iter()
            .map(|n| l.get(n))
            .sum::<f64>();
        let attributed = spans_ns as f64 / 1e6 + phases;
        l.set("unattributed_ms", p.wall_s * 1e3 - attributed);
        l.set(
            "process.cpu_s",
            machine::cpu_s("self").unwrap_or(0.0) - cpu0,
        );
        l.finish_ratios();
    }
    p
}

/// Sets Table II's `influenced` flag of a kept pass's ops: influence
/// vectorized a loop or changed the generated code against isl.
pub fn mark_influenced(p: &mut Pass) {
    for (i, (kernel, compiled)) in p.kept.iter().enumerate() {
        if let Some(sim) = p.sims[i].as_mut() {
            sim.influenced = compiled[2].vector_loops > 0
                || render(&compiled[2].ast, kernel) != render(&compiled[0].ast, kernel);
        }
    }
}

/// Checks a kept pass against the expected file: Table II, the geomean
/// and every artifact digest. Returns the rebuilt geomean.
pub fn verify(ctx: &Ctx, pop: &Population, p: &mut Pass, out: &mut Outcome) -> f64 {
    mark_influenced(p);
    for (i, (kernel, compiled)) in p.kept.iter().enumerate() {
        for (c, (cfg, comp)) in CONFIGS.iter().zip(compiled).enumerate() {
            let digest =
                in_process_reply(kernel, *cfg, comp, &ctx.gpu).map(|r| artifact_digest(&r));
            if digest.ok() != ctx.expected.artifacts.get(&(i, c)).copied() {
                out.report.fail(format!(
                    "compile: artifact of op {i} {} differs",
                    cfg.name()
                ));
            }
        }
    }
    let Some(sims) = p.sims.iter().copied().collect::<Option<Vec<OpSim>>>() else {
        return f64::NAN;
    };
    let rows = table2(pop, &sims);
    if rows != ctx.expected.rows {
        out.report.fail("compile: Table II rows differ".to_string());
    }
    let g = table2_geomean(&rows);
    if g.to_bits() != ctx.expected.sim_geomean.to_bits() {
        out.report
            .fail(format!("compile: Table II geomean {g} differs"));
    }
    g
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = || {
        let pop = Population::new();
        for op in &pop.unique {
            std::hint::black_box(op.build());
        }
        pop
    };
    let pop = out.setup(SETUP_REPEATS, inputs);
    let items = pop.unique.len() * CONFIGS.len();
    out.size(items, items, pop.total_ops() * CONFIGS.len());

    let mut first = pass(ctx, &pop, false, true);
    let mut compile_ms = Samples::default();
    let mut traced_walls = Vec::new();
    let mut plain_walls = vec![first.wall_s];
    let mut ledgers = Vec::new();
    compile_ms.extend(&first.compile_ms);
    let mut attempted = first.compile_ms.len();
    let mut errors = std::mem::take(&mut first.errors);
    let reference: Vec<Option<OpSim>> = first.sims.clone();
    let t0 = Instant::now();
    let mut passes = 1;
    // A traced run needs at least one traced pass.
    while passes < 1 + ctx.trace as usize || t0.elapsed().as_secs_f64() + first.wall_s < ctx.seconds
    {
        out.setup(1, inputs);
        let traced = ctx.trace && passes % 2 == 1;
        let mut p = pass(ctx, &pop, traced, false);
        attempted += p.compile_ms.len();
        errors.append(&mut p.errors);
        for (i, (a, b)) in p.sims.iter().zip(&reference).enumerate() {
            let same = match (a, b) {
                (Some(a), Some(b)) => a.time_ms.map(f64::to_bits) == b.time_ms.map(f64::to_bits),
                _ => false,
            };
            if !same {
                errors.push(format!(
                    "compile: pass {passes} op {i} simulated times drifted"
                ));
            }
        }
        if traced {
            traced_walls.push(p.wall_s);
            ledgers.push(p.ledger);
        } else {
            plain_walls.push(p.wall_s);
            compile_ms.extend(&p.compile_ms);
        }
        passes += 1;
    }
    // The interpreter check below allocates buffers sized by the drawn
    // kernels, so the timed work's peak is read first.
    out.peak_rss_mb = machine::peak_rss_mb("self");
    out.report.attempted = attempted as u64;
    for e in errors {
        out.report.fail(e);
    }
    let geomean = verify(ctx, &pop, &mut first, &mut out);
    interp::check_sample(ctx, &first.kept, &mut out);

    let rates: Vec<f64> = plain_walls.iter().map(|w| items as f64 / w).collect();
    out.latency("compile", &compile_ms, 99);
    out.throughput("compile_items_per_s", &rates);
    let g = Metric::new("sim_infl_speedup_geomean", geomean, "x", 1);
    out.report.notes.push(g);
    out.traced(ledgers, &plain_walls, &traced_walls);
    out
}

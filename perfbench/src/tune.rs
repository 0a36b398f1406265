//! The `tune` workload: in-process beam search (`TuneOptions::default()`,
//! no disk cache) over the 114 unique Table II operator classes under
//! infl. One kernel compiles about 30 candidate option sets through one
//! `CompileSession`, so this is where the session prefix, the schedule
//! and artifact memos, the estimate memo and the tuner itself work.
//!
//! Untraced passes use `SerialRunner`; traced passes use
//! [`TracingRunner`], which times each `EvalCtx::evaluate` and must
//! replay the same candidate log (equal `log_digest`).

use crate::expected::TuneExpect;
use crate::ledger::{ratio, Ledger};
use crate::report::Metric;
use crate::stream::Population;
use crate::{machine, stats, Ctx, Outcome, Samples, SETUP_REPEATS};
use polyject_codegen::Config;
use polyject_core::Budget;
use polyject_sets::counters;
use polyject_tune::{
    beam_search, EvalCtx, Evaluated, JobRunner, KnobPoint, SerialRunner, TuneOptions, TuneOutcome,
    TuneRequest,
};
use std::cell::Cell;
use std::time::Instant;

/// A [`JobRunner`] that evaluates serially, like `SerialRunner`, and
/// times every evaluation.
#[derive(Default)]
pub struct TracingRunner {
    evals: Cell<u64>,
    eval_ns: Cell<u128>,
}

impl TracingRunner {
    /// Evaluations run so far.
    pub fn evals(&self) -> u64 {
        self.evals.get()
    }

    /// Milliseconds spent in evaluations so far.
    pub fn eval_ms(&self) -> f64 {
        self.eval_ns.get() as f64 / 1e6
    }
}

impl JobRunner for TracingRunner {
    fn evaluate(&self, ctx: &EvalCtx<'_>, points: &[KnobPoint]) -> Vec<Option<Evaluated>> {
        points
            .iter()
            .map(|p| {
                let t = Instant::now();
                let r = ctx.evaluate(p);
                self.eval_ns
                    .set(self.eval_ns.get() + t.elapsed().as_nanos());
                self.evals.set(self.evals.get() + 1);
                r
            })
            .collect()
    }
}

/// The tune request for one operator class.
pub fn request(op: &polyject_workloads::OpClass, ctx: &Ctx) -> TuneRequest {
    TuneRequest {
        kernel: op.build(),
        config: Config::Influenced,
        gpu: ctx.gpu.clone(),
        budget: Budget::unlimited(),
    }
}

/// The expectation a finished search is compared with.
pub fn expectation(o: &TuneOutcome) -> TuneExpect {
    TuneExpect {
        default_bits: o.tuned.default_time.to_bits(),
        tuned_bits: o.tuned.tuned_time.to_bits(),
        log_digest: o.tuned.log_digest,
    }
}

/// One pass's outputs.
pub struct Pass {
    /// Pass wall seconds.
    pub wall_s: f64,
    /// Per-search milliseconds.
    pub search_ms: Samples,
    /// Per-op outcome (`None` if the search failed).
    pub outcomes: Vec<Option<TuneExpect>>,
    /// Search failures.
    pub errors: Vec<String>,
    /// Layer totals (traced passes only).
    pub ledger: Ledger,
}

/// Runs one pass: a full beam search per unique operator class.
pub fn pass(ctx: &Ctx, pop: &Population, traced: bool) -> Pass {
    polyject_core::clear_assembly_caches();
    let opts = TuneOptions::default();
    let mut p = Pass {
        wall_s: 0.0,
        search_ms: Vec::with_capacity(pop.unique.len()),
        outcomes: Vec::with_capacity(pop.unique.len()),
        errors: Vec::new(),
        ledger: Ledger::default(),
    };
    let (mut ir_ms, mut memo_hits, mut estimates) = (0.0, 0.0, 0.0);
    let cpu0 = machine::cpu_s("self").unwrap_or(0.0);
    let t_pass = Instant::now();
    for (i, op) in pop.unique.iter().enumerate() {
        let t = Instant::now();
        let req = request(op, ctx);
        ir_ms += t.elapsed().as_secs_f64() * 1e3;
        let before = traced.then(counters::snapshot);
        let runner = TracingRunner::default();
        let t = Instant::now();
        let outcome = if traced {
            beam_search(&req, &opts, &runner)
        } else {
            beam_search(&req, &opts, &SerialRunner)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        p.search_ms.push(ms);
        match outcome {
            Ok(o) => {
                if let Some(before) = before {
                    let l = &mut p.ledger;
                    l.add_counters(&counters::snapshot().delta_since(&before));
                    l.add("tune.evals", runner.evals() as f64);
                    l.add("tune.eval_ms", runner.eval_ms());
                    l.add("tune.search_overhead_ms", ms - runner.eval_ms());
                    l.add(
                        "tune.warm_dependence_analyses",
                        o.warm_dependence_analyses as f64,
                    );
                    memo_hits += o.estimate_memo_hits as f64;
                    // The default point's estimate plus one per
                    // evaluated candidate.
                    estimates += 1.0 + runner.evals() as f64;
                }
                p.outcomes.push(Some(expectation(&o)));
            }
            Err(e) => {
                p.errors.push(format!("tune: op {i}: {e}"));
                p.outcomes.push(None);
            }
        }
    }
    p.wall_s = t_pass.elapsed().as_secs_f64();
    if traced {
        let l = &mut p.ledger;
        l.add("ir.build_ms", ir_ms);
        l.set("tune.estimate_memo_hit_ratio", ratio(memo_hits, estimates));
        let searches = stats::sum(&p.search_ms);
        l.set("unattributed_ms", p.wall_s * 1e3 - ir_ms - searches);
        l.set(
            "process.cpu_s",
            machine::cpu_s("self").unwrap_or(0.0) - cpu0,
        );
        l.finish_ratios();
    }
    p
}

/// Tuned-over-default geomean of a pass's outcomes.
pub fn speedup_geomean(outcomes: &[TuneExpect]) -> f64 {
    let s: Vec<f64> = outcomes
        .iter()
        .map(|o| f64::from_bits(o.default_bits) / f64::from_bits(o.tuned_bits))
        .collect();
    stats::geomean(&s)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = || {
        let pop = Population::new();
        for op in &pop.unique {
            std::hint::black_box(request(op, ctx));
        }
        pop
    };
    let pop = out.setup(SETUP_REPEATS, inputs);
    let n = pop.unique.len();
    out.size(n, n, pop.total_ops());

    let mut search_ms = Samples::new();
    let (mut plain_walls, mut traced_walls, mut ledgers) = (Vec::new(), Vec::new(), Vec::new());
    let mut geomean = f64::NAN;
    let mut attempted = 0;
    let t0 = Instant::now();
    let mut passes = 0;
    // At least two passes, so a traced run has one of each kind.
    while passes < 2 || t0.elapsed().as_secs_f64() < ctx.seconds {
        out.setup(1, inputs);
        let traced = ctx.trace && passes % 2 == 1;
        let p = pass(ctx, &pop, traced);
        attempted += p.search_ms.len();
        for e in p.errors {
            out.report.fail(e);
        }
        for (i, o) in p.outcomes.iter().enumerate() {
            if o.is_some() && o.as_ref() != ctx.expected.tune.get(&i) {
                out.report.fail(format!(
                    "tune: pass {passes} op {i} outcome differs (log digest or times)"
                ));
            }
        }
        if let Some(all) = p.outcomes.iter().copied().collect::<Option<Vec<_>>>() {
            geomean = speedup_geomean(&all);
        }
        if traced {
            traced_walls.push(p.wall_s);
            ledgers.push(p.ledger);
        } else {
            plain_walls.push(p.wall_s);
            search_ms.extend(&p.search_ms);
        }
        passes += 1;
    }
    out.report.attempted = attempted as u64;
    if geomean.to_bits() != ctx.expected.tune_geomean.to_bits() {
        out.report
            .fail(format!("tune: speedup geomean {geomean} differs"));
    }
    let per_pass: Vec<f64> = plain_walls.iter().map(|w| n as f64 / w).collect();
    out.latency("tune", &search_ms, 90);
    out.throughput("tune_searches_per_s", &per_pass);
    let g = Metric::new("tune_speedup_geomean", geomean, "x", passes);
    out.report.notes.push(g);
    out.traced(ledgers, &plain_walls, &traced_walls);
    out
}

//! The per-layer ledger: named per-pass totals, folded into the traced
//! run's per-layer metrics as medians over passes.

use crate::report::Metric;
use crate::stats::median;
use polyject_sets::SolverCounters;
use std::collections::BTreeMap;

/// Every per-layer metric and its unit, in report order. Each is
/// reported by every workload; a layer a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("sets.solve_ms", "ms"),
    ("sets.preprocess_ms", "ms"),
    ("sets.lp_solves", "count"),
    ("sets.ilp_solves", "count"),
    ("sets.ilp_nodes", "count"),
    ("sets.pivots", "count"),
    ("sets.i64_share", "ratio"),
    ("sets.escalations", "count"),
    ("sets.fm_eliminations", "count"),
    ("core.assemble_ms", "ms"),
    ("core.farkas_linearizations", "count"),
    ("core.redundancy_checks", "count"),
    ("core.session_reuses", "count"),
    ("core.degraded_solves", "count"),
    ("deps.ms", "ms"),
    ("deps.analyses", "count"),
    ("codegen.ms", "ms"),
    ("codegen.vector_loops", "count"),
    ("ir.build_ms", "ms"),
    ("gpusim.estimate_ms", "ms"),
    ("tvm.compile_ms", "ms"),
    ("tune.evals", "count"),
    ("tune.eval_ms", "ms"),
    ("tune.search_overhead_ms", "ms"),
    ("tune.estimate_memo_hit_ratio", "ratio"),
    ("tune.warm_dependence_analyses", "count"),
    ("front.canonicalize_ms", "ms"),
    ("client.rtt_ms", "ms"),
    ("daemon.compile_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("daemon.hits", "count"),
    ("daemon.misses", "count"),
    ("daemon.coalesced", "count"),
    ("daemon.overloaded", "count"),
    ("daemon.errors", "count"),
    ("daemon.timeouts", "count"),
    ("daemon.batch_dedup_hits", "count"),
    ("daemon.batch_session_reuses", "count"),
    ("daemon.cpu_s", "s"),
    ("serve.cpu_wall_ratio", "ratio"),
    ("router.hedges_fired", "count"),
    ("router.hedge_wins", "count"),
    ("router.hedge_useful_ratio", "ratio"),
    ("router.retries", "count"),
    ("router.failovers", "count"),
    ("router.transfers_out", "count"),
    ("router.connect_failures", "count"),
    ("router.cpu_s", "s"),
    ("cache.put_ms", "ms"),
    ("cache.get_ms", "ms"),
    ("cache.puts", "count"),
    ("cache.evictions", "count"),
    ("cache.quarantined", "count"),
    ("hot.hit_ratio", "ratio"),
    ("machine.cores", "count"),
    ("machine.fsync_ms", "ms"),
    ("process.cpu_s", "s"),
    ("unattributed_ms", "ms"),
    ("tracing_overhead_pct", "%"),
];

/// One pass's named totals.
#[derive(Clone, Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Adds `v` to the named total.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Sets the named value.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// The named total (0 if never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Folds a solver-counter delta into the `sets`/`core`/`deps`/
    /// `codegen` layers.
    pub fn add_counters(&mut self, c: &SolverCounters) {
        let ms = |ns: u64| ns as f64 / 1e6;
        self.add("sets.solve_ms", ms(c.solve_ns));
        self.add("sets.preprocess_ms", ms(c.preprocess_ns));
        self.add("sets.lp_solves", c.lp_solves as f64);
        self.add("sets.ilp_solves", c.ilp_solves as f64);
        self.add("sets.ilp_nodes", c.ilp_nodes as f64);
        self.add(
            "sets.pivots",
            (c.lp_phase1_pivots + c.lp_phase2_pivots + c.bb_repair_pivots) as f64,
        );
        self.add("sets.i64_solves", c.tab_i64_solves as f64);
        self.add("sets.escalations", c.tab_overflow_escalations as f64);
        self.add("sets.fm_eliminations", c.fm_eliminations as f64);
        self.add("core.assemble_ms", ms(c.assemble_ns));
        self.add("core.farkas_linearizations", c.farkas_linearizations as f64);
        self.add("core.redundancy_checks", c.redundancy_checks as f64);
        self.add("core.session_reuses", c.session_reuses as f64);
        self.add("core.degraded_solves", c.degraded_solves as f64);
        self.add("deps.ms", ms(c.dependence_ns));
        self.add("deps.analyses", c.dependence_analyses as f64);
        self.add("codegen.ms", ms(c.codegen_ns));
    }

    /// Derives the ratio metrics from their accumulated parts.
    pub fn finish_ratios(&mut self) {
        let i64s = self.get("sets.i64_solves");
        let tab = i64s + self.get("sets.escalations");
        self.set("sets.i64_share", ratio(i64s, tab));
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics: for each [`PER_LAYER`] name, the median of its
/// per-pass totals over `passes`.
pub fn per_layer_metrics(passes: &[Ledger]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = passes.iter().map(|l| l.get(name)).collect();
            Metric::new(name, median(&values), unit, values.len())
        })
        .collect()
}

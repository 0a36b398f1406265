//! # polyject-perfbench
//!
//! The repository benchmark: three workloads (`compile`, `tune`,
//! `serve-warm`) measured end to end with tracing off, and
//! a separate traced run that prints a per-layer ledger. Every layer is
//! measured from outside — by timing calls into the program crates'
//! public functions, by spawning the shipped `polyjectd` and
//! `polyject-router` binaries, and by reading the counters the program
//! already exposes (`polyject_sets::counters`, the daemon `stats` frame,
//! the router `stats` frame). See `README.md` for the workloads, the
//! metrics and the layer → metric → workload prediction table.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod compile;
pub mod expected;
pub mod fleet;
pub mod interp;
pub mod ledger;
pub mod machine;
pub mod report;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod tune;

use expected::Expected;
use ledger::Ledger;
use polyject_gpusim::GpuModel;
use report::{Metric, Report};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-item latency samples in milliseconds.
pub type Samples = Vec<f64>;

/// The workloads, in the order the benchmark defines them.
pub const WORKLOADS: [&str; 3] = ["compile", "tune", "serve-warm"];

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Times an in-process workload prepares its inputs before its first
/// pass. It prepares them once more before every later pass, so the
/// median, `setup_s`, samples the whole run and not only its first
/// milliseconds.
pub const SETUP_REPEATS: usize = 5;

/// A directory of the run's own under the working directory (tag, pid
/// and a per-process counter), removed with everything in it on drop —
/// on every exit path, panics included.
pub struct TempRoot {
    path: PathBuf,
}

static TEMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

impl TempRoot {
    /// Creates `.bench_run/<tag>-<pid>-<n>` under the working directory.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn new(tag: &str) -> std::io::Result<TempRoot> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::SeqCst);
        let path = Path::new(".bench_run").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot { path })
    }

    /// The directory (relative to the working directory, which keeps
    /// Unix socket paths short).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the parent too once no other run uses it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// What every workload receives.
pub struct Ctx {
    /// The input seed.
    pub seed: u64,
    /// Seconds the timed section measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The simulated device.
    pub gpu: GpuModel,
    /// The checked-in expected outputs.
    pub expected: Expected,
    /// The run's own directory.
    pub root: TempRoot,
    /// Where the shipped binaries live.
    pub bin_dir: PathBuf,
}

/// A workload's results, before the machine block is added.
#[derive(Default)]
pub struct Outcome {
    /// Correctness accounting and informational lines.
    pub report: Report,
    /// Setup durations (seconds) measured in the run.
    pub setup_s: Vec<f64>,
    /// End-to-end metrics gathered so far.
    pub e2e: Vec<Metric>,
    /// Traced passes' ledgers.
    pub ledgers: Vec<Ledger>,
    /// Tracing slowdown against untraced passes, in percent.
    pub overhead_pct: f64,
    /// Peak RSS in MB of the processes that did the timed work, read
    /// before verification allocates; `None` means this process, read at
    /// the end of the run.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Runs `f` `repeats` times, recording each duration, and returns
    /// the last result.
    pub fn setup<T>(&mut self, repeats: usize, mut f: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..repeats {
            let t = Instant::now();
            let v = f();
            self.setup_s.push(t.elapsed().as_secs_f64());
            last = Some(v);
        }
        last.expect("at least one setup")
    }

    /// Records the workload's size: items per pass, distinct keys, and
    /// the share of repeated keys.
    pub fn size(&mut self, items: usize, distinct: usize, stream_items: usize) {
        let repeated = 1.0 - distinct as f64 / stream_items.max(1) as f64;
        let notes = &mut self.report.notes;
        notes.push(Metric::new("size.items_per_pass", items as f64, "count", 1));
        notes.push(Metric::new(
            "size.distinct_keys",
            distinct as f64,
            "count",
            1,
        ));
        notes.push(Metric::new("size.repeated_key_share", repeated, "ratio", 1));
    }

    /// Records latency samples: the workload-named `<prefix>_p50_ms` and
    /// `<prefix>_p<NN>_ms` (the highest percentile up to `tail` the
    /// sample supports) as notes, and `p50_ms`/`p90_ms` as end-to-end
    /// metrics. Too few samples for a p90 is a failure.
    pub fn latency(&mut self, prefix: &str, samples: &[f64], tail: u32) {
        let n = samples.len();
        let p50 = stats::percentile(samples, 50);
        self.report
            .notes
            .push(Metric::new(&format!("{prefix}_p50_ms"), p50, "ms", n));
        if let Some(p) = stats::highest_supported(n, tail).filter(|&p| p != 50) {
            self.report.notes.push(Metric::new(
                &format!("{prefix}_p{p}_ms"),
                stats::percentile(samples, p),
                "ms",
                n,
            ));
        }
        if !stats::supports(n, 90) {
            self.report
                .fail(format!("{prefix}: {n} samples cannot support a p90"));
        }
        self.e2e.push(Metric::new("p50_ms", p50, "ms", n));
        self.e2e.push(Metric::new(
            "p90_ms",
            stats::percentile(samples, 90),
            "ms",
            n,
        ));
    }

    /// Records a rate as its median over per-pass values, under the
    /// workload-specific name `name` and as `items_per_s`.
    pub fn throughput(&mut self, name: &str, per_pass: &[f64]) {
        let v = stats::median(per_pass);
        let n = per_pass.len();
        self.report.notes.push(Metric::new(name, v, "1/s", n));
        self.e2e.push(Metric::new("items_per_s", v, "1/s", n));
    }

    /// Records the traced passes' ledgers and the tracing overhead
    /// (median traced pass wall against median untraced pass wall).
    pub fn traced(&mut self, ledgers: Vec<Ledger>, plain_walls: &[f64], traced_walls: &[f64]) {
        self.ledgers = ledgers;
        if !traced_walls.is_empty() {
            let plain = stats::median(plain_walls);
            self.overhead_pct = (stats::median(traced_walls) - plain) / plain * 100.0;
        }
    }
}

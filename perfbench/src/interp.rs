//! The independent check: generated code run through the gpusim
//! interpreter against the kernel's reference execution
//! (`check_equivalence` vs `Kernel::execute_reference`).
//!
//! The full population was validated once when `expected.txt` was
//! recorded (`perfbench --validate-all`); every run re-checks a seeded
//! sample, outside the timed section.

use crate::stream::{Rng, CONFIGS};
use crate::{Ctx, Outcome};
use polyject_codegen::Compiled;
use polyject_gpusim::{check_equivalence, seeded_buffers};
use polyject_ir::Kernel;
use std::time::Instant;

/// Artifacts interpreter-checked per run.
pub const SAMPLE: usize = 3;

/// Tensor footprint (bytes at default parameters) above which an
/// artifact is too slow to interpret in every run; the one-time full
/// validation covers those.
pub const MAX_SAMPLE_BYTES: usize = 8 << 20;

/// Total tensor bytes of a kernel at its default parameters — the
/// interpreter's cost scales with it.
pub fn footprint(kernel: &Kernel) -> usize {
    let params = kernel.param_defaults();
    kernel.tensors().iter().map(|t| t.size_bytes(params)).sum()
}

/// Interprets one artifact against the reference.
///
/// # Errors
///
/// The first mismatch or execution failure.
pub fn check(kernel: &Kernel, compiled: &Compiled, seed: u64) -> Result<(), String> {
    let params = kernel.param_defaults().to_vec();
    let inputs = seeded_buffers(kernel, &params, seed);
    check_equivalence(&compiled.ast, kernel, &inputs, &params)
}

/// Checks [`SAMPLE`] artifacts drawn by the run seed from every
/// `(op, config)` pair whose footprint is at most [`MAX_SAMPLE_BYTES`].
pub fn check_sample(ctx: &Ctx, kept: &[(Kernel, Vec<Compiled>)], out: &mut Outcome) {
    let eligible: Vec<(usize, usize)> = kept
        .iter()
        .enumerate()
        .filter(|(_, (k, _))| footprint(k) <= MAX_SAMPLE_BYTES)
        .flat_map(|(i, (_, c))| (0..c.len()).map(move |cfg| (i, cfg)))
        .collect();
    if eligible.is_empty() {
        return;
    }
    let mut rng = Rng::new(ctx.seed ^ 0x1a7e_4b4e_7e55);
    let t = Instant::now();
    for _ in 0..SAMPLE {
        let (i, cfg) = eligible[rng.below(eligible.len())];
        let (kernel, compiled) = &kept[i];
        if let Err(e) = check(kernel, &compiled[cfg], ctx.seed) {
            out.report.fail(format!(
                "interpreter: op {i} {} differs from the reference: {e}",
                CONFIGS[cfg].name()
            ));
        }
    }
    out.report.notes.push(crate::report::Metric::new(
        "check.interpreter_s",
        t.elapsed().as_secs_f64(),
        "s",
        SAMPLE,
    ));
}

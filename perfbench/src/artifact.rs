//! Artifact identity: the canonical rendering and digest of a compile
//! reply's deterministic fields, shared by in-process and served
//! artifacts.
//!
//! A reply is compared on every top-level field except
//! [`IGNORED_FIELDS`]: `compile_ms` is wall clock, `cached` depends on
//! arrival order, `via` on routing and `solver` on what the serving
//! thread compiled before. Everything else — including the simulated
//! `timing` — must match byte for byte.

use polyject_codegen::{render_artifacts, Compiled, Config};
use polyject_gpusim::{estimate, GpuModel};
use polyject_ir::Kernel;
use polyject_serve::Json;

/// Reply fields that artifact comparison ignores (and nothing else).
pub const IGNORED_FIELDS: [&str; 4] = ["compile_ms", "cached", "via", "solver"];

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Canonical rendering: object keys sorted, numbers as IEEE-754 bit
/// patterns, strings length-prefixed. Independent of the program's own
/// JSON writer, so a change in its formatting is not an artifact change.
pub fn canonical(v: &Json) -> String {
    let mut out = String::new();
    write_canonical(v, &mut out);
    out
}

fn write_canonical(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push('n'),
        Json::Bool(b) => out.push(if *b { 't' } else { 'f' }),
        Json::Num(x) => out.push_str(&format!("#{:016x}", x.to_bits())),
        Json::Str(s) => out.push_str(&format!("s{}:{s}", s.len())),
        Json::Arr(items) => {
            out.push('[');
            for item in items {
                write_canonical(item, out);
                out.push(',');
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            let mut sorted: Vec<&(String, Json)> = fields.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            out.push('{');
            for (k, val) in sorted {
                out.push_str(&format!("k{}:{k}=", k.len()));
                write_canonical(val, out);
                out.push(',');
            }
            out.push('}');
        }
    }
}

/// The reply with [`IGNORED_FIELDS`] removed from its top level.
pub fn strip_ignored(reply: &Json) -> Json {
    match reply {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !IGNORED_FIELDS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Digest of a reply's deterministic artifact fields.
pub fn artifact_digest(reply: &Json) -> u64 {
    fnv1a64(canonical(&strip_ignored(reply)).as_bytes())
}

/// The `ok` reply a daemon would send for an in-process compile of
/// `kernel`: the same fields, built from public APIs (front canonical
/// form, serve cache key, codegen artifacts, gpusim timing).
///
/// # Errors
///
/// A kernel the `.pj` language cannot express.
pub fn in_process_reply(
    kernel: &Kernel,
    config: Config,
    compiled: &Compiled,
    gpu: &GpuModel,
) -> Result<Json, String> {
    let canonical_pj = polyject_front::emit_pj(kernel)?;
    let key = polyject_serve::cache_key(&canonical_pj, config.name(), gpu);
    let a = render_artifacts(kernel, compiled);
    let timing = estimate(&compiled.ast, kernel, gpu)
        .to_pairs()
        .iter()
        .map(|&(k, v)| (k.to_string(), Json::Num(v)))
        .collect();
    Ok(Json::obj(vec![
        ("status", Json::Str("ok".to_string())),
        ("key", Json::Str(key)),
        ("kernel", Json::Str(kernel.name().to_string())),
        ("config", Json::Str(config.name().to_string())),
        ("canonical_pj", Json::Str(canonical_pj)),
        ("code", Json::Str(a.code)),
        ("cuda", Json::Str(a.cuda)),
        ("schedule", Json::Str(a.schedule)),
        ("schedule_tree", Json::Str(a.schedule_tree)),
        ("vector_loops", Json::Num(a.vector_loops as f64)),
        ("influenced", Json::Bool(a.influenced)),
        ("timing", Json::Obj(timing)),
    ]))
}

//! The machine block: core count, a write+fsync+rename probe, and
//! per-process CPU seconds and peak resident memory read from `/proc`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux configuration).
const CLK_TCK: f64 = 100.0;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds to write 4 KiB to a temporary file, fsync it and rename
/// it over an existing file inside `dir` — the durability pattern the
/// cache uses for its entries and index (replacing a file frees the old
/// one's blocks, which this disk may discard synchronously).
///
/// # Errors
///
/// Filesystem failures.
pub fn fsync_probe(dir: &Path) -> std::io::Result<f64> {
    let tmp = dir.join("fsync-probe.tmp");
    let dst = dir.join("fsync-probe");
    let write = |path: &Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&[0x5a; 4096])?;
        f.sync_all()
    };
    write(&dst)?;
    let t0 = Instant::now();
    write(&tmp)?;
    std::fs::rename(&tmp, &dst)?;
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

/// User + system CPU seconds of a process (`"self"` or a pid), or
/// `None` if it is gone.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name (which may hold
    // spaces): state is field 3, utime 14 and stime 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Peak resident set size of a process in MB (`VmHWM`), or `None` if it
/// is gone.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

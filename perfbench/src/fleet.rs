//! The serving fleet: the shipped `polyject-router` in front of two
//! shipped `polyjectd` shards (one worker each, default flags, caches
//! on the machine's disk), as child processes of the benchmark.
//!
//! Every child is killed and reaped, and the fleet's directory removed,
//! when the [`Fleet`] drops — on every exit path, panics included.

use crate::machine;
use polyject_serve::{Client, Endpoint, Json};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Shards behind the router.
pub const SHARDS: usize = 2;

/// How long a process may take to answer its first ping.
const STARTUP: Duration = Duration::from_secs(30);

/// One spawned process.
struct Proc {
    name: String,
    child: Child,
    endpoint: Endpoint,
}

/// A running router + daemons fleet.
pub struct Fleet {
    dir: PathBuf,
    daemons: Vec<Proc>,
    router: Option<Proc>,
}

fn spawn(bin: &Path, args: &[String], name: &str, endpoint: Endpoint) -> std::io::Result<Proc> {
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| std::io::Error::other(format!("spawn {}: {e}", bin.display())))?;
    Ok(Proc {
        name: name.to_string(),
        child,
        endpoint,
    })
}

fn wait_ready(p: &mut Proc) -> std::io::Result<()> {
    let deadline = Instant::now() + STARTUP;
    loop {
        if Client::connect(&p.endpoint)
            .and_then(|mut c| c.ping())
            .unwrap_or(false)
        {
            return Ok(());
        }
        if let Ok(Some(status)) = p.child.try_wait() {
            return Err(std::io::Error::other(format!(
                "{} exited: {status}",
                p.name
            )));
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::other(format!("{} never came up", p.name)));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

impl Fleet {
    /// Spawns the daemons and the router under `dir` (created, and
    /// removed on drop) and waits until every process answers a ping.
    ///
    /// # Errors
    ///
    /// Spawn failures or a process that never comes up.
    pub fn spawn(bin_dir: &Path, dir: &Path) -> std::io::Result<Fleet> {
        std::fs::create_dir_all(dir)?;
        let mut fleet = Fleet {
            dir: dir.to_path_buf(),
            daemons: Vec::new(),
            router: None,
        };
        for i in 0..SHARDS {
            let sock = dir.join(format!("d{i}.sock"));
            let args = vec![
                "--socket".to_string(),
                sock.display().to_string(),
                "--cache-dir".to_string(),
                dir.join(format!("cache{i}")).display().to_string(),
                "--workers".to_string(),
                "1".to_string(),
            ];
            fleet.daemons.push(spawn(
                &bin_dir.join("polyjectd"),
                &args,
                &format!("polyjectd {i}"),
                Endpoint::Unix(sock),
            )?);
        }
        let sock = dir.join("router.sock");
        let mut args = vec!["--socket".to_string(), sock.display().to_string()];
        for d in &fleet.daemons {
            args.push("--shard".to_string());
            args.push(d.endpoint.to_string());
        }
        fleet.router = Some(spawn(
            &bin_dir.join("polyject-router"),
            &args,
            "polyject-router",
            Endpoint::Unix(sock),
        )?);
        for d in &mut fleet.daemons {
            wait_ready(d)?;
        }
        if let Some(r) = fleet.router.as_mut() {
            wait_ready(r)?;
        }
        Ok(fleet)
    }

    /// The router's endpoint.
    pub fn router(&self) -> &Endpoint {
        &self.router.as_ref().expect("router spawned").endpoint
    }

    /// The router's `stats` frame (its per-shard counters).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn router_stats(&self) -> std::io::Result<Json> {
        Client::connect(self.router())?.stats()
    }

    /// Every daemon's `stats` frame, in shard order.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn daemon_stats(&self) -> std::io::Result<Vec<Json>> {
        self.daemons
            .iter()
            .map(|d| Client::connect(&d.endpoint)?.stats())
            .collect()
    }

    /// CPU seconds of the router and of each daemon so far.
    pub fn cpu_s(&self) -> (f64, Vec<f64>) {
        let cpu = |p: &Proc| machine::cpu_s(&p.child.id().to_string()).unwrap_or(0.0);
        (
            self.router.as_ref().map_or(0.0, cpu),
            self.daemons.iter().map(cpu).collect(),
        )
    }

    /// Summed peak RSS (MB) of the router and the daemons.
    pub fn peak_rss_mb(&self) -> f64 {
        self.router
            .iter()
            .chain(&self.daemons)
            .map(|p| machine::peak_rss_mb(&p.child.id().to_string()).unwrap_or(0.0))
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in self.router.iter_mut().chain(self.daemons.iter_mut()) {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

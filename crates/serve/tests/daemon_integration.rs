//! End-to-end daemon test: spawn the real `polyjectd` binary on a
//! temporary Unix socket, hammer it with concurrent clients over Table II
//! operators, and check every reply byte-identical to a direct
//! in-process compile.

#![cfg(unix)]

use polyject_front::emit_pj;
use polyject_gpusim::GpuModel;
use polyject_serve::{compile_reply, Client, Endpoint, Json};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    endpoint: Endpoint,
    dir: PathBuf,
}

/// Distinguishes the fixtures of tests running concurrently in this
/// process: each daemon gets a directory (and socket) of its own, so one
/// test's cleanup can never delete another's live socket.
static NEXT_DAEMON: AtomicUsize = AtomicUsize::new(0);

impl Daemon {
    fn spawn(tag: &str) -> Daemon {
        let n = NEXT_DAEMON.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pj-daemon-it-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("d.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_polyjectd"))
            .args([
                "--socket",
                socket.to_str().unwrap(),
                "--cache-dir",
                dir.join("cache").to_str().unwrap(),
                "--workers",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn polyjectd");
        let endpoint = Endpoint::Unix(socket);
        // Wait for the accept loop to come up.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(&endpoint) {
                if c.ping().unwrap_or(false) {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(50));
        }
        Daemon {
            child,
            endpoint,
            dir,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The reply fields a client actually consumes, as one comparable blob.
fn artifact_blob(resp: &Json) -> String {
    let f = |k: &str| resp.str_field(k).unwrap_or("<missing>").to_string();
    format!(
        "key={}\ncanonical={}\ncode={}\ncuda={}\nschedule={}\nschedtree={}\ntiming={}",
        f("key"),
        f("canonical_pj"),
        f("code"),
        f("cuda"),
        f("schedule"),
        f("schedule_tree"),
        resp.get("timing").map(Json::render).unwrap_or_default(),
    )
}

#[test]
fn concurrent_clients_get_byte_identical_replies() {
    let daemon = Daemon::spawn("concurrent");

    // Table II operators (the LSTM network's), expressed as .pj source.
    let sources: Vec<String> = polyject_workloads::lstm()
        .ops
        .iter()
        .filter_map(|op| emit_pj(&op.build()).ok())
        .take(3)
        .collect();
    assert!(
        sources.len() >= 2,
        "need at least two expressible operators"
    );

    // The ground truth: a direct in-process compile of each operator.
    let gpu = GpuModel::v100();
    let expected: Vec<String> = sources
        .iter()
        .map(|src| {
            artifact_blob(&polyject_serve::protocol::ok_response(
                &compile_reply(src, "infl", &gpu).unwrap(),
                false,
            ))
        })
        .collect();

    // Four concurrent clients, each compiling every operator.
    let sources = Arc::new(sources);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let sources = Arc::clone(&sources);
            let endpoint = daemon.endpoint.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                sources
                    .iter()
                    .map(|src| client.compile(src, "infl").unwrap())
                    .collect::<Vec<Json>>()
            })
        })
        .collect();
    for handle in handles {
        let replies = handle.join().unwrap();
        for (resp, want) in replies.iter().zip(&expected) {
            assert_eq!(resp.str_field("status").unwrap(), "ok");
            assert_eq!(artifact_blob(resp), *want);
        }
    }

    // A second round is served entirely out of the persistent cache.
    let mut client = Client::connect(&daemon.endpoint).unwrap();
    for (src, want) in sources.iter().zip(&expected) {
        let resp = client.compile(src, "infl").unwrap();
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(artifact_blob(&resp), *want);
    }

    // Stats reflect the traffic, and shutdown is graceful.
    let stats = client.stats().unwrap();
    let n = |k: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    let total = sources.len() as u64;
    assert_eq!(n("misses"), total, "{}", stats.render());
    assert_eq!(n("hits") + n("coalesced"), 4 * total, "{}", stats.render());
    assert_eq!(n("errors"), 0);

    let bye = client.shutdown().unwrap();
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
    let mut daemon = daemon;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match daemon.child.try_wait().unwrap() {
            Some(status) => {
                assert!(status.success(), "{status:?}");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "daemon ignored shutdown");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[test]
fn daemon_survives_bad_requests() {
    let daemon = Daemon::spawn("bad-requests");
    let mut client = Client::connect(&daemon.endpoint).unwrap();

    // Parse errors and unknown configs come back as error responses …
    let resp = client.compile("kernel broken (", "infl").unwrap();
    assert_eq!(resp.str_field("status").unwrap(), "error");
    let resp = client.compile("kernel k\n", "nonsense").unwrap();
    assert_eq!(resp.str_field("status").unwrap(), "error");

    // … and the worker lives on to serve the next request.
    assert!(client.ping().unwrap());
    let resp = client
        .compile(
            "kernel ok\ntensor t[8]: f32\nstmt S for (i in 0..8)\n  t[i] = (t[i] + 1.0)\n",
            "isl",
        )
        .unwrap();
    assert_eq!(resp.str_field("status").unwrap(), "ok");
}

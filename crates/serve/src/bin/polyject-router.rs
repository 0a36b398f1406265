//! `polyject-router` — the replicated-sharding front for a fleet of
//! `polyjectd` daemons.
//!
//! ```text
//! polyject-router [--socket <path> | --tcp <host:port>]
//!                 --shard <endpoint> [--shard <endpoint> ...]
//!                 [--replication <n>] [--hedge-ms <n>] [--retries <n>]
//!                 [--backoff-ms <n>] [--backoff-cap-ms <n>]
//!                 [--io-timeout-secs <n>] [--seed <n>]
//!                 [--hot-threshold <n>] [--gpu v100|a100|consumer]
//! ```
//!
//! Speaks the same length-prefixed JSON protocol as the daemons:
//! `compile` requests are consistent-hash routed (with hedging, retry,
//! failover, and hot-key replication — see `polyject_serve::router`),
//! `stats` returns the router's shallow per-shard counters, `metrics`
//! additionally probes every shard for replica lag, and `join`/`leave`
//! change membership with a warm transfer of re-homed entries.

use polyject_gpusim::GpuModel;
use polyject_serve::net::{Listener, Stream, ACCEPT_WAKE};
use polyject_serve::protocol::{
    batch_done_response, batch_item_response, error_response, read_frame, write_frame,
};
use polyject_serve::{Endpoint, Json, Request, Router, RouterConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: polyject-router [--socket <path> | --tcp <host:port>] \
     --shard <endpoint> [--shard <endpoint> ...] [--replication <n>] \
     [--hedge-ms <n>] [--retries <n>] [--backoff-ms <n>] [--backoff-cap-ms <n>] \
     [--io-timeout-secs <n>] [--seed <n>] [--hot-threshold <n>] \
     [--gpu v100|a100|consumer]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut endpoint = Endpoint::Unix("polyject-router.sock".into());
    let mut config = RouterConfig::default();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Option<String> {
        *i += 1;
        let v = args.get(*i).cloned();
        if v.is_none() {
            eprintln!("{flag} needs a value\n{USAGE}");
        }
        v
    };
    let int = |args: &[String], i: &mut usize, flag: &str| -> Option<u64> {
        let v = value(args, i, flag).and_then(|v| v.parse().ok());
        if v.is_none() {
            eprintln!("{flag} needs an integer");
        }
        v
    };
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => match value(&args, &mut i, "--socket") {
                Some(p) => endpoint = Endpoint::Unix(p.into()),
                None => return ExitCode::FAILURE,
            },
            "--tcp" => match value(&args, &mut i, "--tcp") {
                Some(a) => endpoint = Endpoint::Tcp(a),
                None => return ExitCode::FAILURE,
            },
            "--shard" => match value(&args, &mut i, "--shard") {
                Some(s) => match Endpoint::parse(&s) {
                    Ok(ep) => config.shards.push(ep),
                    Err(e) => {
                        eprintln!("bad --shard endpoint: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => return ExitCode::FAILURE,
            },
            "--replication" => match int(&args, &mut i, "--replication") {
                Some(n) => config.replication = n as usize,
                None => return ExitCode::FAILURE,
            },
            "--hedge-ms" => match int(&args, &mut i, "--hedge-ms") {
                Some(n) => config.hedge_after = Duration::from_millis(n),
                None => return ExitCode::FAILURE,
            },
            "--retries" => match int(&args, &mut i, "--retries") {
                Some(n) => config.retries = n as u32,
                None => return ExitCode::FAILURE,
            },
            "--backoff-ms" => match int(&args, &mut i, "--backoff-ms") {
                Some(n) => config.backoff_base = Duration::from_millis(n),
                None => return ExitCode::FAILURE,
            },
            "--backoff-cap-ms" => match int(&args, &mut i, "--backoff-cap-ms") {
                Some(n) => config.backoff_cap = Duration::from_millis(n),
                None => return ExitCode::FAILURE,
            },
            "--io-timeout-secs" => match int(&args, &mut i, "--io-timeout-secs") {
                Some(n) => config.io_timeout = Duration::from_secs(n),
                None => return ExitCode::FAILURE,
            },
            "--seed" => match int(&args, &mut i, "--seed") {
                Some(n) => config.seed = n,
                None => return ExitCode::FAILURE,
            },
            "--hot-threshold" => match int(&args, &mut i, "--hot-threshold") {
                Some(n) => config.hot_threshold = n,
                None => return ExitCode::FAILURE,
            },
            "--gpu" => match value(&args, &mut i, "--gpu").as_deref() {
                Some("v100") => config.gpu = GpuModel::v100(),
                Some("a100") => config.gpu = GpuModel::a100(),
                Some("consumer") => config.gpu = GpuModel::consumer(),
                other => {
                    eprintln!("unknown --gpu {other:?} (v100|a100|consumer)");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if config.shards.is_empty() {
        eprintln!("at least one --shard is required\n{USAGE}");
        return ExitCode::FAILURE;
    }
    match run(endpoint, config) {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("polyject-router: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(endpoint: Endpoint, config: RouterConfig) -> Result<Json, String> {
    let listener = Listener::bind(&endpoint).map_err(|e| format!("bind {endpoint}: {e}"))?;
    eprintln!(
        "[polyject-router] listening on {endpoint}, {} shard(s)",
        config.shards.len()
    );
    let router = Arc::new(Router::new(config));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept().map_err(|e| format!("accept: {e}"))? {
            Some(stream) => {
                let router = Arc::clone(&router);
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || {
                    serve_conn(stream, &router, &stop)
                }));
            }
            None => listener.wait(ACCEPT_WAKE),
        }
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }
    if let Endpoint::Unix(path) = &endpoint {
        let _ = std::fs::remove_file(path);
    }
    Ok(router.metrics_json(false))
}

fn serve_conn(mut stream: Stream, router: &Router, stop: &AtomicBool) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return,
            Err(e) => {
                // Garbage on the wire: answer structurally, then drop the
                // poisoned connection.
                let _ = write_frame(&mut stream, &error_response(&format!("bad frame: {e}")));
                return;
            }
        };
        // Batches answer with several frames per request frame, which
        // the single-frame dispatch below cannot express — handle them
        // here, where the stream is in hand. The router scatter-gathers
        // (all shards answered before anything is written), so the
        // per-item frames go out reassembled in request order.
        if frame.str_field("op") == Ok("compile_batch") {
            match Request::from_json(&frame) {
                Ok(Request::CompileBatch { items, .. }) => {
                    let pairs: Vec<(String, String)> =
                        items.into_iter().map(|it| (it.src, it.config)).collect();
                    let replies = router.compile_batch(&pairs);
                    let total = replies.len();
                    let (mut ok, mut errors, mut overloaded) = (0, 0, 0);
                    let mut alive = true;
                    for (i, reply) in replies.into_iter().enumerate() {
                        match reply.get("status").and_then(Json::as_str) {
                            Some("ok") => ok += 1,
                            Some("overloaded") => overloaded += 1,
                            _ => errors += 1,
                        }
                        alive = alive
                            && write_frame(&mut stream, &batch_item_response(i, total, reply))
                                .is_ok();
                    }
                    let done = batch_done_response(total, ok, errors, overloaded);
                    if !alive || write_frame(&mut stream, &done).is_err() {
                        return;
                    }
                }
                Ok(_) => unreachable!("op compile_batch parses as CompileBatch"),
                Err(e) => {
                    let _ = write_frame(&mut stream, &error_response(&e));
                }
            }
            continue;
        }
        let (resp, closing) = dispatch(router, &frame, stop);
        if write_frame(&mut stream, &resp).is_err() || closing {
            return;
        }
    }
}

fn dispatch(router: &Router, frame: &Json, stop: &AtomicBool) -> (Json, bool) {
    let req = match Request::from_json(frame) {
        Ok(r) => r,
        Err(e) => return (error_response(&e), false),
    };
    match req {
        Request::Compile { src, config, .. } => (router.compile(&src, &config), false),
        // Intercepted in `serve_conn` (batches stream multiple frames).
        Request::CompileBatch { .. } => (
            error_response("compile_batch needs a streaming connection"),
            false,
        ),
        Request::Ping => (
            Json::obj(vec![
                ("status", Json::Str("ok".to_string())),
                ("pong", Json::Bool(true)),
            ]),
            false,
        ),
        Request::Stats => (router.metrics_json(false), false),
        Request::Metrics => (router.metrics_json(true), false),
        Request::Join { endpoint } => match Endpoint::parse(&endpoint) {
            Ok(ep) => (router.join(&ep), false),
            Err(e) => (error_response(&format!("bad join endpoint: {e}")), false),
        },
        Request::Leave { endpoint } => match Endpoint::parse(&endpoint) {
            Ok(ep) => (router.leave(&ep), false),
            Err(e) => (error_response(&format!("bad leave endpoint: {e}")), false),
        },
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            (
                Json::obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("stopping", Json::Bool(true)),
                ]),
                true,
            )
        }
        Request::Cancel { .. }
        | Request::Keys
        | Request::Fetch { .. }
        | Request::Transfer { .. } => (
            error_response("cache-entry operations address a polyjectd shard, not the router"),
            false,
        ),
    }
}

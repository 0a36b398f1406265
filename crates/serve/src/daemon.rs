//! The `polyjectd` daemon: accept loop, request dispatch, backpressure,
//! per-request timeouts, and graceful shutdown.
//!
//! One thread per connection reads length-prefixed frames; compile
//! requests are dispatched onto a shared [`WorkerPool`] so concurrency
//! is bounded by worker count, with a bounded pending-job queue that
//! answers `overloaded` instead of buffering without limit. Identical
//! concurrent requests are deduplicated by the service's single-flight
//! layer. SIGTERM/SIGINT (or a `shutdown` request) stops the accept
//! loop, lets in-flight work drain, flushes the cache index, and dumps
//! final stats as JSON.

use crate::cache::DiskCache;
use crate::client::Endpoint;
use crate::faults::{FaultyIo, Io, RealIo};
use crate::hash::hex_digest;
use crate::hot::DEFAULT_HOT_ENTRIES;
use crate::json::Json;
use crate::net::{install_stop_signals, stop_signalled, Listener, Stream, ACCEPT_WAKE};
use crate::pool::{default_workers, WorkerPool};
use crate::protocol::CompileReply;
use crate::protocol::{
    batch_done_response, batch_item_response, error_response, ok_response, overloaded_response,
    retryable_error_response, write_frame, BatchItem, Request, MAX_FRAME,
};
use crate::service::{CompileService, Served};
use crate::stats::ServeStats;
use crate::tuned::{tune_cached, tuned_key};
use polyject_core::Budget;
use polyject_gpusim::GpuModel;
use polyject_tune::TuneOptions;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of one daemon instance.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Compile worker threads.
    pub workers: usize,
    /// Maximum compile requests pending (queued + executing) before new
    /// ones are answered `overloaded`.
    pub queue_bound: usize,
    /// Per-request compile deadline.
    pub request_timeout: Duration,
    /// Persistent cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Cache payload byte budget.
    pub cache_max_bytes: u64,
    /// Maximum accepted request frame size in bytes (capped at the
    /// protocol-wide [`MAX_FRAME`]); larger length prefixes are answered
    /// with a structured error before any allocation.
    pub max_frame: u32,
    /// GPU model requests compile against.
    pub gpu: GpuModel,
    /// Improve hot cache entries while idle: when no requests are
    /// pending, the daemon picks a cached compile entry without a tuned
    /// configuration and runs the autotuner on it (one kernel at a
    /// time, cancelled the moment a request arrives). Only *complete*
    /// outcomes are persisted.
    pub background_tune: bool,
    /// In-memory hot-tier capacity in entries (`0` disables the tier).
    /// Only meaningful with a cache directory — an uncached daemon has
    /// no keys to keep hot.
    pub hot_entries: usize,
    /// Open the disk cache over a fault-injecting filesystem:
    /// `Some((seed, one_in))` faults roughly one in `one_in` data
    /// operations on a seed-deterministic schedule (the multi-node
    /// chaos suite's knob; see [`crate::faults::FaultyIo`]).
    pub cache_faults: Option<(u64, usize)>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            endpoint: Endpoint::Unix(std::env::temp_dir().join("polyjectd.sock")),
            workers: default_workers(),
            queue_bound: 64,
            request_timeout: Duration::from_secs(120),
            cache_dir: None,
            cache_max_bytes: crate::cache::DEFAULT_MAX_BYTES,
            max_frame: MAX_FRAME,
            gpu: GpuModel::v100(),
            background_tune: false,
            hot_entries: DEFAULT_HOT_ENTRIES,
            cache_faults: None,
        }
    }
}

struct Shared {
    service: CompileService,
    pool: WorkerPool,
    stats: Mutex<ServeStats>,
    stop: AtomicBool,
    pending: AtomicUsize,
    queue_bound: usize,
    request_timeout: Duration,
    max_frame: u32,
    /// This daemon's endpoint string — the shard identity `metrics`
    /// reports, matching what routers key their per-shard counters by.
    endpoint: String,
    /// Cancel flags of in-flight compiles that carried a request id,
    /// so a `cancel` request from another connection can trip them.
    cancel_reg: Mutex<HashMap<String, Arc<AtomicBool>>>,
    /// Injected-fault counter of the cache's [`FaultyIo`], when the
    /// daemon was started with `cache_faults`.
    io_faults: Option<Arc<AtomicU64>>,
    /// Idle-time autotuning enabled (`--background-tune`).
    background_tune: bool,
    /// A background tune is in flight (at most one at a time; not
    /// counted in `pending` — tuning never triggers backpressure).
    tuning: AtomicBool,
    /// Tripped on request arrival and shutdown so the background search
    /// yields the machine immediately.
    tune_cancel: Arc<AtomicBool>,
    /// Kernels background-tuned (completed + persisted) this run.
    tuned_count: AtomicU64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || stop_signalled()
    }

    /// The stats report: daemon counters plus the cache's own view.
    fn stats_json(&self) -> Json {
        let io_faults = self
            .io_faults
            .as_ref()
            .map(|c| c.load(Ordering::SeqCst))
            .unwrap_or(0);
        let (hot_entries, hot_hits) = self.service.hot_stats().unwrap_or((0, 0));
        let cache = self.service.with_cache(|c| {
            let s = c.stats();
            Json::obj(vec![
                ("entries", Json::Num(c.len() as f64)),
                ("bytes", Json::Num(c.total_bytes() as f64)),
                ("hits", Json::Num(s.hits as f64)),
                ("misses", Json::Num(s.misses as f64)),
                ("puts", Json::Num(s.puts as f64)),
                ("evictions", Json::Num(s.evictions as f64)),
                ("errors", Json::Num(s.errors as f64)),
                ("hot_entries", Json::Num(hot_entries as f64)),
                ("hot_hits", Json::Num(hot_hits as f64)),
                ("io_faults_injected", Json::Num(io_faults as f64)),
            ])
        });
        let mut stats = self.stats.lock().expect("stats lock poisoned");
        stats.evictions = self
            .service
            .with_cache(|c| c.stats().evictions)
            .unwrap_or(0);
        let gov = self.service.governance();
        let governance = Json::obj(vec![
            ("degraded_solves", Json::Num(gov.degraded_solves as f64)),
            ("cancelled_solves", Json::Num(gov.cancelled_solves as f64)),
            (
                "panics_recovered",
                Json::Num((gov.panics_recovered + self.pool.panics_recovered()) as f64),
            ),
            ("tuned_applied", Json::Num(gov.tuned_applied as f64)),
            (
                "background_tuned",
                Json::Num(self.tuned_count.load(Ordering::SeqCst) as f64),
            ),
        ]);
        Json::obj(vec![
            ("status", Json::Str("ok".to_string())),
            ("stats", stats.to_json()),
            ("governance", governance),
            ("cache", cache.unwrap_or(Json::Null)),
        ])
    }

    /// The `metrics` report: the stats report plus the shard identity,
    /// so a fleet prober can attribute counters to endpoints.
    fn metrics_json(&self) -> Json {
        let mut pairs = vec![
            ("status".to_string(), Json::Str("ok".to_string())),
            ("shard".to_string(), Json::Str(self.endpoint.clone())),
        ];
        if let Json::Obj(fields) = self.stats_json() {
            pairs.extend(fields.into_iter().filter(|(k, _)| k != "status"));
        }
        Json::Obj(pairs)
    }
}

/// Reads exactly `buf.len()` bytes, riding out socket read timeouts so
/// the connection thread can poll the shutdown flag. `Ok(false)` means
/// the peer closed (or shutdown began) cleanly before a frame started.
fn read_full(stream: &mut Stream, buf: &mut [u8], shared: &Shared) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if shared.stopping() {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one frame, tolerant of read-timeout polling. `Ok(None)` = peer
/// closed or shutdown began.
fn read_frame_polling(stream: &mut Stream, shared: &Shared) -> io::Result<Option<Json>> {
    let mut len_buf = [0u8; 4];
    if !read_full(stream, &mut len_buf, shared)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf);
    if len > shared.max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {len} bytes exceeds the {}-byte limit",
                shared.max_frame
            ),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    if !read_full(stream, &mut buf, shared)? {
        return Ok(None);
    }
    let text = String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 frame"))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn dispatch(shared: &Arc<Shared>, frame: &Json) -> (Json, bool) {
    shared.stats.lock().expect("stats lock poisoned").requests += 1;
    let req = match Request::from_json(frame) {
        Ok(r) => r,
        Err(e) => {
            shared.stats.lock().expect("stats lock poisoned").errors += 1;
            return (error_response(&e), false);
        }
    };
    match req {
        Request::Ping => (
            Json::obj(vec![
                ("status", Json::Str("ok".to_string())),
                ("pong", Json::Bool(true)),
            ]),
            false,
        ),
        Request::Stats => (shared.stats_json(), false),
        Request::Metrics => (shared.metrics_json(), false),
        Request::Cancel { req } => {
            let flag = shared
                .cancel_reg
                .lock()
                .expect("cancel registry poisoned")
                .get(&req)
                .cloned();
            let cancelled = match flag {
                Some(f) => {
                    f.store(true, Ordering::SeqCst);
                    shared.stats.lock().expect("stats lock poisoned").cancels += 1;
                    true
                }
                None => false,
            };
            (
                Json::obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("cancelled", Json::Bool(cancelled)),
                ]),
                false,
            )
        }
        Request::Keys => {
            let keys: Vec<Json> = shared
                .service
                .with_cache(|c| {
                    c.list()
                        .into_iter()
                        .map(|(key, kind, _, _)| {
                            Json::obj(vec![("key", Json::Str(key)), ("kind", Json::Str(kind))])
                        })
                        .collect()
                })
                .unwrap_or_default();
            (
                Json::obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("keys", Json::Arr(keys)),
                ]),
                false,
            )
        }
        Request::Fetch { key } => {
            let entry = shared.service.with_cache(|c| c.get(&key)).flatten();
            let resp = match entry {
                Some((kind, payload)) => {
                    let checksum = hex_digest(&payload.render());
                    Json::obj(vec![
                        ("status", Json::Str("ok".to_string())),
                        ("found", Json::Bool(true)),
                        ("key", Json::Str(key)),
                        ("kind", Json::Str(kind)),
                        ("payload", payload),
                        ("checksum", Json::Str(checksum)),
                    ])
                }
                None => Json::obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("found", Json::Bool(false)),
                    ("key", Json::Str(key)),
                ]),
            };
            (resp, false)
        }
        Request::Transfer {
            key,
            kind,
            payload,
            checksum,
        } => (
            serve_transfer(shared, &key, &kind, &payload, &checksum),
            false,
        ),
        Request::Join { .. } | Request::Leave { .. } => (
            error_response("membership changes are a polyject-router operation"),
            false,
        ),
        Request::Compile { src, config, req } => (serve_compile(shared, src, config, req), false),
        Request::CompileBatch { .. } => (
            // Batches stream multiple reply frames per request frame, so
            // they are intercepted in `handle_conn` (which owns the
            // stream) before single-frame dispatch; reaching this arm
            // means a non-streaming caller routed one here.
            error_response("compile_batch needs a streaming connection"),
            false,
        ),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            (
                Json::obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("stopping", Json::Bool(true)),
                ]),
                true,
            )
        }
    }
}

/// Accepts one pushed cache entry after re-verifying the sender's
/// checksum against the payload actually received — a transfer torn in
/// flight fails the comparison and is rejected before it can land, so
/// warm transfers are safe to retry until they stick.
fn serve_transfer(
    shared: &Arc<Shared>,
    key: &str,
    kind: &str,
    payload: &Json,
    checksum: &str,
) -> Json {
    let actual = hex_digest(&payload.render());
    if actual != checksum {
        shared.stats.lock().expect("stats lock poisoned").errors += 1;
        return retryable_error_response(&format!(
            "transfer of {key} torn in flight: payload digests to {actual}, sender claimed {checksum}"
        ));
    }
    match shared.service.with_cache(|c| c.put(key, kind, payload)) {
        None => error_response("no cache attached; transfers need --cache-dir"),
        Some(Err(e)) => {
            shared.stats.lock().expect("stats lock poisoned").errors += 1;
            retryable_error_response(&format!("transfer of {key} failed to persist: {e}"))
        }
        Some(Ok(())) => {
            shared
                .stats
                .lock()
                .expect("stats lock poisoned")
                .transfers_in += 1;
            Json::obj(vec![
                ("status", Json::Str("ok".to_string())),
                ("stored", Json::Bool(true)),
                ("key", Json::Str(key.to_string())),
            ])
        }
    }
}

fn serve_compile(
    shared: &Arc<Shared>,
    src: String,
    config: String,
    req_id: Option<String>,
) -> Json {
    // A request always outranks idle-time work: tell any background
    // search to yield at its next budget check.
    shared.tune_cancel.store(true, Ordering::SeqCst);
    // Backpressure: bound queued-plus-executing compiles instead of
    // buffering arbitrarily many requests behind a busy pool.
    let pending = shared.pending.load(Ordering::SeqCst);
    if pending >= shared.queue_bound {
        shared.stats.lock().expect("stats lock poisoned").overloaded += 1;
        return overloaded_response(pending);
    }
    shared.pending.fetch_add(1, Ordering::SeqCst);
    let (tx, rx) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    // A tagged request is cancellable by id from any connection (a
    // router cancelling the losing hedge leg).
    if let Some(id) = &req_id {
        shared
            .cancel_reg
            .lock()
            .expect("cancel registry poisoned")
            .insert(id.clone(), Arc::clone(&cancel));
    }
    let worker_cancel = Arc::clone(&cancel);
    let worker_shared = Arc::clone(shared);
    let t0 = Instant::now();
    shared.pool.submit(move || {
        // The compile must run wholly on this worker thread: solver
        // counters are thread-local. The cancel-only budget lets the
        // connection thread abort the solve if the request times out.
        let budget = Budget::unlimited().with_cancel(worker_cancel);
        let result = worker_shared
            .service
            .serve_with_budget(&src, &config, &budget);
        worker_shared.pending.fetch_sub(1, Ordering::SeqCst);
        let _ = tx.send(result);
    });
    let resp = match rx.recv_timeout(shared.request_timeout) {
        Ok(Ok((reply, served))) => {
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut stats = shared.stats.lock().expect("stats lock poisoned");
            stats.latency.record(ms);
            match served {
                Served::Hit => stats.hits += 1,
                Served::Fresh => stats.misses += 1,
                Served::Coalesced => stats.coalesced += 1,
            }
            ok_response(&reply, served == Served::Hit)
        }
        Ok(Err(e)) => {
            shared.stats.lock().expect("stats lock poisoned").errors += 1;
            if cancel.load(Ordering::SeqCst) {
                // Aborted by a cancel-by-id: transient from the caller's
                // viewpoint (another replica can still answer).
                retryable_error_response(&e)
            } else {
                error_response(&e)
            }
        }
        Err(_) => {
            // Trip the cancel flag: the solver aborts at its next budget
            // check, so the worker is reclaimed instead of leaking on a
            // runaway compile.
            cancel.store(true, Ordering::SeqCst);
            shared.stats.lock().expect("stats lock poisoned").timeouts += 1;
            retryable_error_response(&format!(
                "request timed out after {:?} (compile cancelled; worker reclaimed)",
                shared.request_timeout
            ))
        }
    };
    if let Some(id) = &req_id {
        shared
            .cancel_reg
            .lock()
            .expect("cancel registry poisoned")
            .remove(id);
    }
    resp
}

/// Reserves up to `want` bounded-queue slots with a CAS loop, so a batch
/// admission is atomic against concurrent singles and other batches: a
/// batch of N ops consumes N slots or reports the shortfall per-item —
/// it can never slip past the `queue_bound` a stream of singles respects.
fn reserve_slots(shared: &Shared, want: usize) -> usize {
    let mut granted = 0;
    while granted < want {
        let cur = shared.pending.load(Ordering::SeqCst);
        if cur >= shared.queue_bound {
            break;
        }
        let take = (shared.queue_bound - cur).min(want - granted);
        if shared
            .pending
            .compare_exchange(cur, cur + take, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            granted += take;
        }
    }
    granted
}

/// Serves one `compile_batch`: admits the batch as N queue slots
/// ([`reserve_slots`]; the unadmitted tail is answered `overloaded`
/// per-item), dedups identical `(src, config)` items in-batch, fans the
/// unique admitted items over the worker pool, and *streams* one
/// [`batch_item_response`] frame per item as results land — the client
/// sees early items while later ones are still compiling — closing with
/// a [`batch_done_response`] summary. Returns `false` when the
/// connection died mid-batch (remaining work is cancelled).
fn serve_compile_batch<W: Write>(
    shared: &Arc<Shared>,
    out: &mut W,
    items: Vec<BatchItem>,
    req_id: Option<String>,
) -> bool {
    shared.tune_cancel.store(true, Ordering::SeqCst);
    let total = items.len();
    {
        let mut stats = shared.stats.lock().expect("stats lock poisoned");
        stats.requests += 1;
        stats.batch_requests += 1;
        stats.batch_items += total as u64;
    }
    if total == 0 {
        return write_frame(out, &batch_done_response(0, 0, 0, 0)).is_ok();
    }

    // In-batch dedup: the first occurrence of each (src, config) is the
    // primary; later occurrences ride its result.
    let mut primary_of: HashMap<(&str, &str), usize> = HashMap::new();
    let mut dup_of: Vec<Option<usize>> = vec![None; total];
    for (i, it) in items.iter().enumerate() {
        match primary_of.entry((it.src.as_str(), it.config.as_str())) {
            std::collections::hash_map::Entry::Occupied(e) => dup_of[i] = Some(*e.get()),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(i);
            }
        }
    }
    let dedup_hits = dup_of.iter().filter(|d| d.is_some()).count();
    shared
        .stats
        .lock()
        .expect("stats lock poisoned")
        .batch_dedup_hits += dedup_hits as u64;

    // Admission: every item — duplicates included — needs a slot, and the
    // slots are taken atomically, so one giant batch cannot bypass the
    // bound. Items are admitted in index order; a duplicate's primary has
    // a lower index, so an admitted duplicate always has an admitted
    // primary.
    let granted = reserve_slots(shared, total);
    let admitted = |i: usize| i < granted;
    // A duplicate holds no worker: its slot is released as soon as the
    // batch is dispatched (it was still counted at admission, which is
    // where the backpressure decision happens).
    let admitted_dups = (0..granted).filter(|&i| dup_of[i].is_some()).count();
    if admitted_dups > 0 {
        shared.pending.fetch_sub(admitted_dups, Ordering::SeqCst);
    }

    let (tx, rx) = mpsc::channel::<(usize, Result<(CompileReply, Served), String>, u64, f64)>();
    let cancel = Arc::new(AtomicBool::new(false));
    if let Some(id) = &req_id {
        shared
            .cancel_reg
            .lock()
            .expect("cancel registry poisoned")
            .insert(id.clone(), Arc::clone(&cancel));
    }
    let mut outstanding = 0usize;
    for (i, item) in items.iter().enumerate() {
        if !admitted(i) || dup_of[i].is_some() {
            continue;
        }
        let tx = tx.clone();
        let worker_cancel = Arc::clone(&cancel);
        let worker_shared = Arc::clone(shared);
        let src = item.src.clone();
        let config = item.config.clone();
        shared.pool.submit(move || {
            // Wholly on this worker thread: solver counters are
            // thread-local, so the session-reuse delta below attributes
            // exactly this item's warm-prefix savings.
            let before = polyject_sets::counters::snapshot();
            let t0 = Instant::now();
            let budget = Budget::unlimited().with_cancel(worker_cancel);
            let result = worker_shared
                .service
                .serve_with_budget(&src, &config, &budget);
            let reuses = polyject_sets::counters::snapshot()
                .delta_since(&before)
                .session_reuses;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            worker_shared.pending.fetch_sub(1, Ordering::SeqCst);
            let _ = tx.send((i, result, reuses, ms));
        });
        outstanding += 1;
    }
    drop(tx);

    let (mut ok_n, mut err_n, mut over_n) = (0usize, 0usize, 0usize);
    let mut conn_ok = true;
    let send = |out: &mut W, frame: &Json, conn_ok: &mut bool| {
        if *conn_ok && write_frame(out, frame).is_err() {
            // The client is gone: stop writing and abort remaining work,
            // but keep draining so counters and slots stay consistent.
            *conn_ok = false;
            cancel.store(true, Ordering::SeqCst);
        }
    };

    // The unadmitted tail is answered immediately (pipelining: the
    // client learns which items to retry before any compile finishes).
    for i in granted..total {
        let queue_len = shared.pending.load(Ordering::SeqCst);
        shared.stats.lock().expect("stats lock poisoned").overloaded += 1;
        over_n += 1;
        send(
            out,
            &batch_item_response(i, total, overloaded_response(queue_len)),
            &mut conn_ok,
        );
    }

    // Duplicates are answered when their primary's result lands.
    let mut dups_of_primary: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, dup) in dup_of.iter().enumerate().take(granted) {
        if let Some(p) = dup {
            dups_of_primary.entry(*p).or_default().push(i);
        }
    }

    let deadline = Instant::now() + shared.request_timeout;
    let mut answered: Vec<usize> = Vec::new();
    while outstanding > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((i, result, reuses, ms)) => {
                outstanding -= 1;
                answered.push(i);
                let frame = match result {
                    Ok((reply, served)) => {
                        let mut stats = shared.stats.lock().expect("stats lock poisoned");
                        stats.latency.record(ms);
                        stats.batch_session_reuses += reuses;
                        match served {
                            Served::Hit => stats.hits += 1,
                            Served::Fresh => stats.misses += 1,
                            Served::Coalesced => stats.coalesced += 1,
                        }
                        ok_n += 1;
                        ok_response(&reply, served == Served::Hit)
                    }
                    Err(e) => {
                        shared.stats.lock().expect("stats lock poisoned").errors += 1;
                        err_n += 1;
                        if cancel.load(Ordering::SeqCst) {
                            retryable_error_response(&e)
                        } else {
                            error_response(&e)
                        }
                    }
                };
                send(
                    out,
                    &batch_item_response(i, total, frame.clone()),
                    &mut conn_ok,
                );
                for &j in dups_of_primary.get(&i).map_or(&[][..], |v| v.as_slice()) {
                    let mut stats = shared.stats.lock().expect("stats lock poisoned");
                    if frame.str_field("status") == Ok("ok") {
                        stats.coalesced += 1;
                        ok_n += 1;
                    } else {
                        stats.errors += 1;
                        err_n += 1;
                    }
                    drop(stats);
                    send(
                        out,
                        &batch_item_response(j, total, frame.clone()),
                        &mut conn_ok,
                    );
                }
            }
            Err(_) => {
                // Batch deadline: trip the shared cancel flag (solvers
                // abort at their next budget check; workers reclaimed)
                // and answer every still-open item retryably.
                cancel.store(true, Ordering::SeqCst);
                let open: Vec<usize> = (0..granted)
                    .filter(|i| dup_of[*i].is_none() && !answered.contains(i))
                    .collect();
                shared.stats.lock().expect("stats lock poisoned").timeouts += open.len() as u64;
                let msg = format!(
                    "batch timed out after {:?} (remaining compiles cancelled; workers reclaimed)",
                    shared.request_timeout
                );
                for i in open {
                    err_n += 1;
                    send(
                        out,
                        &batch_item_response(i, total, retryable_error_response(&msg)),
                        &mut conn_ok,
                    );
                    for &j in dups_of_primary.get(&i).map_or(&[][..], |v| v.as_slice()) {
                        err_n += 1;
                        send(
                            out,
                            &batch_item_response(j, total, retryable_error_response(&msg)),
                            &mut conn_ok,
                        );
                    }
                }
                break;
            }
        }
    }
    if let Some(id) = &req_id {
        shared
            .cancel_reg
            .lock()
            .expect("cancel registry poisoned")
            .remove(id);
    }
    send(
        out,
        &batch_done_response(total, ok_n, err_n, over_n),
        &mut conn_ok,
    );
    conn_ok
}

/// Finds a cached compile entry without a tuned configuration — the
/// next kernel the idle tuner should improve. Returns its canonical
/// source and config name.
fn pick_tune_candidate(shared: &Shared) -> Option<(String, String)> {
    shared
        .service
        .with_cache(|c| {
            let entries = c.list();
            for (key, kind, _, _) in entries {
                if kind != "compile" {
                    continue;
                }
                let Some((_, payload)) = c.get(&key) else {
                    continue;
                };
                let Ok(reply) = CompileReply::from_json(&payload) else {
                    continue;
                };
                let tkey = tuned_key(&reply.canonical_pj, &reply.config, shared.service.gpu());
                if c.get(&tkey).is_none() {
                    return Some((reply.canonical_pj, reply.config));
                }
            }
            None
        })
        .flatten()
}

/// The idle hook of the accept loop: when nothing is pending and no
/// tune is in flight, start tuning the next untuned cached kernel on a
/// detached thread. The search runs under a cancel-only budget that
/// request arrival and shutdown trip; only complete outcomes persist
/// (an interrupted search leaves no partial state, by [`tune_cached`]'s
/// contract).
fn maybe_background_tune(shared: &Arc<Shared>) {
    if !shared.background_tune
        || shared.stopping()
        || shared.pending.load(Ordering::SeqCst) != 0
        || shared.tuning.swap(true, Ordering::SeqCst)
    {
        return;
    }
    let Some((src, config)) = pick_tune_candidate(shared) else {
        shared.tuning.store(false, Ordering::SeqCst);
        return;
    };
    shared.tune_cancel.store(false, Ordering::SeqCst);
    let s = Arc::clone(shared);
    std::thread::spawn(move || {
        let budget = Budget::unlimited().with_cancel(Arc::clone(&s.tune_cancel));
        match tune_cached(
            &s.service,
            &src,
            &config,
            &TuneOptions::default(),
            &budget,
            1,
        ) {
            Ok(report) if !report.cached && report.complete => {
                s.tuned_count.fetch_add(1, Ordering::SeqCst);
                eprintln!(
                    "[polyjectd] background-tuned {} ({config}): speedup {:.3}x over {} candidates",
                    report.key,
                    report.tuned.speedup(),
                    report.tuned.evaluated,
                );
            }
            _ => {}
        }
        s.tuning.store(false, Ordering::SeqCst);
    });
}

fn handle_conn(shared: Arc<Shared>, mut stream: Stream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    loop {
        if shared.stopping() {
            return;
        }
        let frame = match read_frame_polling(&mut stream, &shared) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(e) => {
                let _ = write_frame(&mut stream, &error_response(&e.to_string()));
                return;
            }
        };
        // Batches stream several reply frames per request frame, which
        // single-frame `dispatch` cannot express — intercept them here,
        // where the stream itself is in hand.
        if frame.str_field("op") == Ok("compile_batch") {
            match Request::from_json(&frame) {
                Ok(Request::CompileBatch { items, req }) => {
                    if !serve_compile_batch(&shared, &mut stream, items, req) {
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
        let (resp, closing) = dispatch(&shared, &frame);
        if write_frame(&mut stream, &resp).is_err() || closing {
            return;
        }
    }
}

/// Runs a daemon until SIGTERM/SIGINT or a `shutdown` request, then
/// drains in-flight work, flushes the cache index, removes the Unix
/// socket file, and returns the final stats report.
///
/// # Errors
///
/// Propagates bind/cache-open failures; an already-listening daemon on
/// the same Unix socket is `AddrInUse`.
pub fn run_daemon(config: DaemonConfig) -> io::Result<Json> {
    install_stop_signals();
    let mut io_faults = None;
    let cache = match &config.cache_dir {
        Some(dir) => {
            let io: Box<dyn Io> = match config.cache_faults {
                Some((seed, one_in)) => {
                    let faulty = FaultyIo::new(RealIo, seed, one_in);
                    io_faults = Some(faulty.injected_counter());
                    Box::new(faulty)
                }
                None => Box::new(RealIo),
            };
            Some(DiskCache::open_with_io(dir, config.cache_max_bytes, io)?)
        }
        None => None,
    };
    let hot_entries = if config.cache_dir.is_some() {
        config.hot_entries
    } else {
        0
    };
    let listener = Listener::bind(&config.endpoint)?;
    let shared = Arc::new(Shared {
        service: CompileService::new(cache, config.gpu.clone()).with_hot_tier(hot_entries),
        pool: WorkerPool::new(config.workers),
        stats: Mutex::new(ServeStats::default()),
        stop: AtomicBool::new(false),
        pending: AtomicUsize::new(0),
        queue_bound: config.queue_bound.max(1),
        request_timeout: config.request_timeout,
        max_frame: config.max_frame.clamp(1, MAX_FRAME),
        endpoint: config.endpoint.to_string(),
        cancel_reg: Mutex::new(HashMap::new()),
        io_faults,
        background_tune: config.background_tune && config.cache_dir.is_some(),
        tuning: AtomicBool::new(false),
        tune_cancel: Arc::new(AtomicBool::new(false)),
        tuned_count: AtomicU64::new(0),
    });
    eprintln!(
        "[polyjectd] listening on {} ({} workers, queue bound {}, cache {})",
        config.endpoint,
        shared.pool.workers(),
        shared.queue_bound,
        config
            .cache_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
    );

    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stopping() {
        match listener.accept()? {
            Some(stream) => {
                let shared = Arc::clone(&shared);
                conns.push(std::thread::spawn(move || handle_conn(shared, stream)));
            }
            None => {
                // Nothing waiting: let the background tuner claim the
                // quiet period (throttled by probing only when genuinely
                // nothing is pending), then block until the next
                // connection or the stop-flag check is due.
                maybe_background_tune(&shared);
                listener.wait(ACCEPT_WAKE);
            }
        }
        conns.retain(|h| !h.is_finished());
    }

    eprintln!(
        "[polyjectd] shutting down: draining {} connection(s)",
        conns.len()
    );
    for h in conns {
        let _ = h.join();
    }
    // Wait out compiles still on the pool so their cache writes land,
    // and any background tune (cancelled above at its next budget
    // check) so the tuning thread is not torn down mid-write.
    shared.tune_cancel.store(true, Ordering::SeqCst);
    while shared.pending.load(Ordering::SeqCst) > 0 || shared.tuning.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
    }
    if let Some(Err(e)) = shared.service.with_cache(DiskCache::flush) {
        eprintln!("[polyjectd] cache flush failed: {e}");
    }
    if let Endpoint::Unix(path) = &config.endpoint {
        let _ = std::fs::remove_file(path);
    }
    let report = shared.stats_json();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
kernel axpy
param N = 64
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
";

    fn shared_with_service(service: CompileService, queue_bound: usize) -> Arc<Shared> {
        Arc::new(Shared {
            service,
            pool: WorkerPool::new(2),
            stats: Mutex::new(ServeStats::default()),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            queue_bound,
            request_timeout: Duration::from_secs(30),
            max_frame: MAX_FRAME,
            endpoint: "/tmp/test-shard.sock".to_string(),
            cancel_reg: Mutex::new(HashMap::new()),
            io_faults: None,
            background_tune: false,
            tuning: AtomicBool::new(false),
            tune_cancel: Arc::new(AtomicBool::new(false)),
            tuned_count: AtomicU64::new(0),
        })
    }

    fn test_shared(queue_bound: usize) -> Arc<Shared> {
        shared_with_service(CompileService::new(None, GpuModel::v100()), queue_bound)
    }

    #[test]
    fn dispatch_ping_stats_and_errors() {
        let shared = test_shared(4);
        let (resp, _) = dispatch(&shared, &Request::Ping.to_json());
        assert_eq!(resp.get("pong"), Some(&Json::Bool(true)));
        let (resp, _) = dispatch(&shared, &Json::obj(vec![("op", Json::Str("?".into()))]));
        assert!(resp.render().contains("\"error\""));
        let (resp, _) = dispatch(&shared, &Request::Stats.to_json());
        assert!(resp.get("stats").is_some());
        assert_eq!(resp.get("cache"), Some(&Json::Null), "no cache attached");
        assert_eq!(shared.stats.lock().unwrap().requests, 3);
    }

    #[test]
    fn dispatch_compile_and_shutdown() {
        let shared = test_shared(4);
        let req = Request::Compile {
            src: SRC.to_string(),
            config: "infl".to_string(),
            req: None,
        };
        let (resp, closing) = dispatch(&shared, &req.to_json());
        assert!(!closing);
        assert_eq!(resp.str_field("status").unwrap(), "ok");
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)));
        assert!(resp.str_field("cuda").unwrap().contains("__global__"));
        assert_eq!(shared.stats.lock().unwrap().misses, 1);

        let (resp, closing) = dispatch(&shared, &Request::Shutdown.to_json());
        assert!(closing);
        assert_eq!(resp.get("stopping"), Some(&Json::Bool(true)));
        assert!(shared.stopping());
    }

    #[test]
    fn overload_rejects_instead_of_queueing() {
        let shared = test_shared(1);
        shared.pending.store(1, Ordering::SeqCst);
        let resp = serve_compile(&shared, SRC.to_string(), "infl".to_string(), None);
        assert_eq!(resp.str_field("status").unwrap(), "overloaded");
        assert_eq!(shared.stats.lock().unwrap().overloaded, 1);
        shared.pending.store(0, Ordering::SeqCst);
    }

    #[test]
    fn idle_hook_tunes_cached_kernels_and_respects_arrivals() {
        let dir = std::env::temp_dir().join(format!("pj-bgtune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open_default(&dir).unwrap();
        let shared = Arc::new(Shared {
            service: CompileService::new(Some(cache), GpuModel::v100()),
            pool: WorkerPool::new(2),
            stats: Mutex::new(ServeStats::default()),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            queue_bound: 4,
            request_timeout: Duration::from_secs(30),
            max_frame: MAX_FRAME,
            endpoint: "/tmp/test-shard.sock".to_string(),
            cancel_reg: Mutex::new(HashMap::new()),
            io_faults: None,
            background_tune: true,
            tuning: AtomicBool::new(false),
            tune_cancel: Arc::new(AtomicBool::new(false)),
            tuned_count: AtomicU64::new(0),
        });
        // Nothing cached yet: the hook finds no candidate and stays idle.
        maybe_background_tune(&shared);
        assert!(!shared.tuning.load(Ordering::SeqCst));

        // Cache one compile, then let the idle hook tune it.
        let resp = serve_compile(&shared, SRC.to_string(), "infl".to_string(), None);
        assert_eq!(resp.str_field("status").unwrap(), "ok");
        maybe_background_tune(&shared);
        for _ in 0..600 {
            if !shared.tuning.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!shared.tuning.load(Ordering::SeqCst), "tune finished");
        assert_eq!(shared.tuned_count.load(Ordering::SeqCst), 1);
        let tuned_entries = shared
            .service
            .with_cache(|c| {
                c.list()
                    .iter()
                    .filter(|(_, kind, _, _)| kind == crate::tuned::TUNED_KIND)
                    .count()
            })
            .unwrap();
        assert_eq!(tuned_entries, 1, "complete outcome persisted");

        // Once everything is tuned there is nothing left to pick.
        assert!(pick_tune_candidate(&shared).is_none());
        // A request arrival trips the cancel flag.
        shared.tune_cancel.store(false, Ordering::SeqCst);
        let _ = serve_compile(&shared, SRC.to_string(), "infl".to_string(), None);
        assert!(shared.tune_cancel.load(Ordering::SeqCst));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compile_errors_counted() {
        let shared = test_shared(4);
        let resp = serve_compile(&shared, "kernel".to_string(), "infl".to_string(), None);
        assert_eq!(resp.str_field("status").unwrap(), "error");
        assert_eq!(shared.stats.lock().unwrap().errors, 1);
    }

    #[test]
    fn metrics_reports_shard_identity() {
        let shared = test_shared(4);
        let (resp, _) = dispatch(&shared, &Request::Metrics.to_json());
        assert_eq!(resp.str_field("status").unwrap(), "ok");
        assert_eq!(resp.str_field("shard").unwrap(), "/tmp/test-shard.sock");
        assert!(resp.get("stats").is_some());
        assert!(resp.get("governance").is_some());
    }

    #[test]
    fn cancel_by_id_trips_registered_flag() {
        let shared = test_shared(4);
        // Unknown id: answered, not an error, nothing cancelled.
        let (resp, _) = dispatch(&shared, &Request::Cancel { req: "nope".into() }.to_json());
        assert_eq!(resp.get("cancelled"), Some(&Json::Bool(false)));

        let flag = Arc::new(AtomicBool::new(false));
        shared
            .cancel_reg
            .lock()
            .unwrap()
            .insert("r1".to_string(), Arc::clone(&flag));
        let (resp, _) = dispatch(&shared, &Request::Cancel { req: "r1".into() }.to_json());
        assert_eq!(resp.get("cancelled"), Some(&Json::Bool(true)));
        assert!(flag.load(Ordering::SeqCst), "registered flag tripped");
        assert_eq!(shared.stats.lock().unwrap().cancels, 1);
    }

    #[test]
    fn keys_fetch_and_transfer_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pj-transfer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open_default(&dir).unwrap();
        let shared = shared_with_service(CompileService::new(Some(cache), GpuModel::v100()), 4);

        // Populate one entry via a compile, list it, fetch it raw.
        let resp = serve_compile(&shared, SRC.to_string(), "infl".to_string(), None);
        let key = resp.str_field("key").unwrap().to_string();
        let (listing, _) = dispatch(&shared, &Request::Keys.to_json());
        let keys = listing.get("keys").and_then(Json::as_arr).unwrap();
        assert!(keys
            .iter()
            .any(|k| k.str_field("key").ok() == Some(key.as_str())));
        let (fetched, _) = dispatch(&shared, &Request::Fetch { key: key.clone() }.to_json());
        assert_eq!(fetched.get("found"), Some(&Json::Bool(true)));
        let payload = fetched.get("payload").unwrap().clone();
        let checksum = fetched.str_field("checksum").unwrap().to_string();
        assert_eq!(checksum, hex_digest(&payload.render()));

        // A torn transfer (checksum over different bytes) is rejected...
        let torn = Json::obj(vec![("half", Json::Num(1.0))]);
        let (resp, _) = dispatch(
            &shared,
            &Request::Transfer {
                key: "feedfacefeedface".to_string(),
                kind: "compile".to_string(),
                payload: torn,
                checksum: checksum.clone(),
            }
            .to_json(),
        );
        assert_eq!(resp.str_field("status").unwrap(), "error");
        assert!(resp
            .str_field("message")
            .unwrap()
            .contains("torn in flight"));
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)));

        // ...while the intact payload is stored and re-servable.
        let (resp, _) = dispatch(
            &shared,
            &Request::Transfer {
                key: "feedfacefeedface".to_string(),
                kind: "compile".to_string(),
                payload: payload.clone(),
                checksum,
            }
            .to_json(),
        );
        assert_eq!(resp.get("stored"), Some(&Json::Bool(true)));
        assert_eq!(shared.stats.lock().unwrap().transfers_in, 1);
        let stored = shared
            .service
            .with_cache(|c| c.get("feedfacefeedface"))
            .flatten()
            .unwrap();
        assert_eq!(stored.1, payload);

        // Fetch of a missing key is a structured miss, not an error.
        let (resp, _) = dispatch(
            &shared,
            &Request::Fetch {
                key: "0000000000000000".to_string(),
            }
            .to_json(),
        );
        assert_eq!(resp.get("found"), Some(&Json::Bool(false)));

        // Membership ops are router-only.
        let (resp, _) = dispatch(
            &shared,
            &Request::Join {
                endpoint: "x".into(),
            }
            .to_json(),
        );
        assert_eq!(resp.str_field("status").unwrap(), "error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn parse_frames(buf: &[u8]) -> Vec<Json> {
        let mut cur = std::io::Cursor::new(buf);
        let mut frames = Vec::new();
        while (cur.position() as usize) < buf.len() {
            frames.push(crate::protocol::read_frame(&mut cur).expect("well-formed frame"));
        }
        frames
    }

    fn frame_for_index(frames: &[Json], index: usize) -> &Json {
        frames
            .iter()
            .find(|f| {
                f.str_field("status") == Ok("item")
                    && f.get("index").and_then(Json::as_u64) == Some(index as u64)
            })
            .unwrap_or_else(|| panic!("no item frame for index {index}"))
            .get("reply")
            .expect("item frame has reply")
    }

    #[test]
    fn batch_admission_respects_queue_bound() {
        // Regression for the backpressure bypass: a batch of N ops must
        // consume N bounded-queue slots at admission, exactly as N
        // concurrent singles would — not slip in as one request.
        let shared = test_shared(2);
        let items: Vec<BatchItem> = (0..5)
            .map(|i| {
                BatchItem::new(
                    format!(
                        "
kernel axpy
param N = {}
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
",
                        32 + i
                    ),
                    "infl",
                )
            })
            .collect();
        let mut out = Vec::new();
        assert!(serve_compile_batch(&shared, &mut out, items, None));
        let frames = parse_frames(&out);
        assert_eq!(frames.len(), 6, "5 item frames + batch_done");
        // Only the first `queue_bound` items were admitted; the tail got
        // per-item overloaded answers (streamed first — the client can
        // retry them before any compile finishes).
        for i in 0..2 {
            assert_eq!(frame_for_index(&frames, i).str_field("status"), Ok("ok"));
        }
        for i in 2..5 {
            assert_eq!(
                frame_for_index(&frames, i).str_field("status"),
                Ok("overloaded"),
                "item {i} must be shed, not queued past the bound"
            );
        }
        let done = frames.last().unwrap();
        assert_eq!(done.str_field("status"), Ok("batch_done"));
        assert_eq!(done.get("items").and_then(Json::as_u64), Some(5));
        assert_eq!(done.get("ok").and_then(Json::as_u64), Some(2));
        assert_eq!(done.get("overloaded").and_then(Json::as_u64), Some(3));
        let stats = shared.stats.lock().unwrap();
        assert_eq!(stats.overloaded, 3);
        assert_eq!(stats.batch_requests, 1);
        assert_eq!(stats.batch_items, 5);
        drop(stats);
        assert_eq!(
            shared.pending.load(Ordering::SeqCst),
            0,
            "all slots released after the batch"
        );
    }

    #[test]
    fn batch_dedups_items_and_shares_sessions_across_configs() {
        // One worker so the unique items run serially and the family
        // session built by the first is warm for the second.
        let shared = Arc::new(Shared {
            service: CompileService::new(None, GpuModel::v100()),
            pool: WorkerPool::new(1),
            stats: Mutex::new(ServeStats::default()),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            queue_bound: 8,
            request_timeout: Duration::from_secs(30),
            max_frame: MAX_FRAME,
            endpoint: "/tmp/test-shard.sock".to_string(),
            cancel_reg: Mutex::new(HashMap::new()),
            io_faults: None,
            background_tune: false,
            tuning: AtomicBool::new(false),
            tune_cancel: Arc::new(AtomicBool::new(false)),
            tuned_count: AtomicU64::new(0),
        });
        let items = vec![
            BatchItem::new(SRC, "infl"),
            BatchItem::new(SRC, "infl"), // in-batch duplicate
            BatchItem::new(SRC, "isl"),  // same kernel family, other config
        ];
        let mut out = Vec::new();
        assert!(serve_compile_batch(&shared, &mut out, items, None));
        let frames = parse_frames(&out);
        assert_eq!(frames.len(), 4);
        for i in 0..3 {
            assert_eq!(frame_for_index(&frames, i).str_field("status"), Ok("ok"));
        }
        // The duplicate rode its primary's result byte-for-byte.
        assert_eq!(
            frame_for_index(&frames, 0).render(),
            frame_for_index(&frames, 1).render()
        );
        // And the configs produced distinct artifacts.
        assert_ne!(
            frame_for_index(&frames, 0).str_field("key").unwrap(),
            frame_for_index(&frames, 2).str_field("key").unwrap()
        );
        let stats = shared.stats.lock().unwrap();
        assert_eq!(stats.batch_dedup_hits, 1, "one in-batch duplicate");
        assert_eq!(stats.misses, 2, "two unique compiles");
        assert_eq!(stats.coalesced, 1, "the duplicate is a coalesced serve");
        assert!(
            stats.batch_session_reuses > 0,
            "isl and infl share one schedule session (family reuse), got {}",
            stats.batch_session_reuses
        );
        drop(stats);
        assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
    }
}

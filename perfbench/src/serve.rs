//! The `serve-warm` workload: one closed-loop client — callers are
//! compilers that block on their reply — on one connection to the
//! router replays the served op stream × 3 configs request by request.
//!
//! Setup spawns the fleet and compiles the stream cold, one
//! `compile_batch` per network (the write side: compile, fsynced cache
//! puts, in-batch dedup, session sharing, scatter-gather), then replays
//! it until the router's `transfers_out` stops growing, so every timed
//! request is a steady-state hit.
//!
//! A request's latency is its round trip. A reply that is not `ok`, or
//! whose artifact differs from the expected file, is failed and
//! contributes no latency.

use crate::artifact::artifact_digest;
use crate::expected::Expected;
use crate::fleet::Fleet;
use crate::ledger::{ratio, Ledger};
use crate::report::{Metric, Report};
use crate::stream::{served_networks, served_stream, Population, StreamItem, CONFIGS};
use crate::{machine, stats, Ctx, Outcome, Samples};
use polyject_serve::{BatchItem, Client, DiskCache, Json};
use std::collections::HashMap;
use std::time::Instant;

/// Cache operations timed directly in a traced run.
const CACHE_PROBES: usize = 6;

/// Replays of the warm-up stream before giving up on replication
/// settling.
const MAX_WARM_REPLAYS: usize = 6;

/// The served inputs: one `.pj` source per unique operator class and
/// the seeded stream over them.
pub struct Inputs {
    /// The population.
    pub pop: Population,
    /// `.pj` source per unique op.
    pub srcs: Vec<String>,
    /// The stream, one list per network in seeded order.
    pub batches: Vec<Vec<StreamItem>>,
}

impl Inputs {
    /// Generates the inputs for a seed.
    ///
    /// # Errors
    ///
    /// An operator the `.pj` language cannot express.
    pub fn new(seed: u64) -> Result<Inputs, String> {
        let pop = Population::new();
        let srcs = pop
            .unique
            .iter()
            .map(|op| polyject_front::emit_pj(&op.build()))
            .collect::<Result<Vec<_>, _>>()?;
        let batches = served_stream(&pop, seed);
        Ok(Inputs { pop, srcs, batches })
    }

    /// Items in the whole stream.
    pub fn items(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Distinct `(op, config)` keys in the stream.
    pub fn distinct(&self) -> usize {
        let ops: std::collections::HashSet<usize> =
            self.batches.iter().flatten().map(|it| it.op).collect();
        ops.len() * CONFIGS.len()
    }

    fn batch(&self, items: &[StreamItem]) -> Vec<BatchItem> {
        items
            .iter()
            .map(|it| BatchItem::new(&self.srcs[it.op], CONFIGS[it.config].name()))
            .collect()
    }
}

/// Whether a reply counts as a failure: not `ok`, or an artifact that
/// differs from the expected one. `None` means it checks out.
pub fn reply_failure(expected: &Expected, item: &StreamItem, reply: &Json) -> Option<String> {
    let status = reply.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "ok" {
        return Some(format!(
            "op {} {}: status {status}",
            item.op,
            CONFIGS[item.config].name()
        ));
    }
    let want = expected.artifacts.get(&(item.op, item.config)).copied();
    (Some(artifact_digest(reply)) != want).then(|| {
        format!(
            "op {} {}: served artifact differs from the expected file",
            item.op,
            CONFIGS[item.config].name()
        )
    })
}

/// Sum of one numeric field over a list of JSON objects.
fn total(rows: &[Json], path: &[&str]) -> f64 {
    rows.iter()
        .map(|r| {
            path.iter()
                .try_fold(r, |v, k| v.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        })
        .sum()
}

/// Counter frames and CPU readings taken around a traced pass.
struct Frames {
    daemons: Vec<Json>,
    shards: Vec<Json>,
    router_cpu: f64,
    daemon_cpu: f64,
    self_cpu: f64,
}

impl Frames {
    fn read(fleet: &Fleet) -> Frames {
        let shards = fleet
            .router_stats()
            .ok()
            .and_then(|s| s.get("shards").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .unwrap_or_default();
        let (router_cpu, daemon_cpu) = fleet.cpu_s();
        Frames {
            daemons: fleet.daemon_stats().unwrap_or_default(),
            shards,
            router_cpu,
            daemon_cpu: daemon_cpu.iter().sum(),
            self_cpu: machine::cpu_s("self").unwrap_or(0.0),
        }
    }

    fn transfers_out(&self) -> f64 {
        total(&self.shards, &["transfers_out"])
    }

    /// Folds the counter deltas `since → self` and the CPU deltas
    /// `before → self` over a window of `wall_s` seconds into `l`.
    fn delta_into(&self, since: &Frames, before: &Frames, wall_s: f64, l: &mut Ledger) {
        let d = |rows_a: &[Json], rows_b: &[Json], path: &[&str]| {
            total(rows_a, path) - total(rows_b, path)
        };
        for (name, field) in [
            ("daemon.hits", "hits"),
            ("daemon.misses", "misses"),
            ("daemon.coalesced", "coalesced"),
            ("daemon.overloaded", "overloaded"),
            ("daemon.errors", "errors"),
            ("daemon.timeouts", "timeouts"),
            ("daemon.batch_dedup_hits", "batch_dedup_hits"),
            ("daemon.batch_session_reuses", "batch_session_reuses"),
        ] {
            l.set(name, d(&self.daemons, &since.daemons, &["stats", field]));
        }
        for (name, field) in [
            ("cache.puts", "puts"),
            ("cache.evictions", "evictions"),
            ("cache.quarantined", "errors"),
        ] {
            l.set(name, d(&self.daemons, &since.daemons, &["cache", field]));
        }
        let hot_hits = d(&self.daemons, &since.daemons, &["cache", "hot_hits"]);
        l.set("hot.hit_ratio", ratio(hot_hits, l.get("daemon.hits")));
        for (name, field) in [
            ("router.hedges_fired", "hedges_fired"),
            ("router.hedge_wins", "hedge_wins"),
            ("router.retries", "retries"),
            ("router.failovers", "failovers"),
            ("router.transfers_out", "transfers_out"),
            ("router.connect_failures", "connect_failures"),
        ] {
            l.set(name, d(&self.shards, &since.shards, &[field]));
        }
        l.set(
            "router.hedge_useful_ratio",
            ratio(l.get("router.hedge_wins"), l.get("router.hedges_fired")),
        );
        let router_cpu = self.router_cpu - before.router_cpu;
        let daemon_cpu = self.daemon_cpu - before.daemon_cpu;
        let self_cpu = self.self_cpu - before.self_cpu;
        l.set("router.cpu_s", router_cpu);
        l.set("daemon.cpu_s", daemon_cpu);
        l.set("process.cpu_s", self_cpu);
        l.set(
            "serve.cpu_wall_ratio",
            ratio(router_cpu + daemon_cpu + self_cpu, wall_s),
        );
    }
}

/// Times the front layer a hit also pays — parse, canonical form and
/// cache key — for each request source, in this process.
fn canonicalize_ms(ctx: &Ctx, srcs: &[&str], configs: &[&str]) -> f64 {
    let t = Instant::now();
    for (src, cfg) in srcs.iter().zip(configs) {
        if let Ok(k) = polyject_front::parse(src) {
            if let Ok(c) = polyject_front::emit_pj(&k) {
                std::hint::black_box(polyject_serve::cache_key(&c, cfg, &ctx.gpu));
            }
        }
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `DiskCache::put` and `get` directly on some of the pass's own
/// replies, in a fresh cache under the run's directory.
fn cache_probe(ctx: &Ctx, replies: &[&Json], l: &mut Ledger) {
    let dir = ctx.root.path().join("cache-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let Ok(mut cache) = DiskCache::open_default(&dir) else {
        return;
    };
    let picked: Vec<&Json> = replies.iter().copied().take(CACHE_PROBES).collect();
    let key = |i: usize| format!("{:016x}", 0x9e37_79b9_u64 + i as u64);
    let t = Instant::now();
    for (i, r) in picked.iter().enumerate() {
        let _ = cache.put(&key(i), "compile", r);
    }
    let put = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for i in 0..picked.len() {
        std::hint::black_box(cache.get(&key(i)));
    }
    let get = t.elapsed().as_secs_f64() * 1e3;
    let n = picked.len().max(1) as f64;
    l.set("cache.put_ms", put / n);
    l.set("cache.get_ms", get / n);
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Client-side spans of a pass: per-item round trips and the reply
/// `compile_ms` of freshly compiled items.
#[derive(Default)]
struct Spans {
    rtt_ms: f64,
    compile_ms: f64,
}

impl Spans {
    fn record(&mut self, rtt_ms: f64, reply: &Json) {
        self.rtt_ms += rtt_ms;
        if reply.get("cached").and_then(Json::as_bool) == Some(false) {
            self.compile_ms += reply
                .get("compile_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
    }
}

/// Finishes the traced window's ledger: spans, frame deltas (counters
/// since the fleet spawned, CPU over the window), front and cache
/// probes, and the time no span covers.
#[allow(clippy::too_many_arguments)]
fn finish_ledger(
    ctx: &Ctx,
    inputs: &Inputs,
    fleet: &Fleet,
    (since, before): (&Frames, &Frames),
    wall_s: f64,
    call_ms: f64,
    spans: &Spans,
    answered: &[Answered],
) -> Ledger {
    let after = Frames::read(fleet);
    let mut l = Ledger::default();
    after.delta_into(since, before, wall_s, &mut l);
    l.set("client.rtt_ms", spans.rtt_ms);
    l.set("daemon.compile_ms", spans.compile_ms);
    l.set("serve.transport_ms", spans.rtt_ms - spans.compile_ms);
    l.set("unattributed_ms", wall_s * 1e3 - call_ms);
    let srcs: Vec<&str> = answered
        .iter()
        .map(|(it, _, _)| inputs.srcs[it.op].as_str())
        .collect();
    let cfgs: Vec<&str> = answered
        .iter()
        .map(|(it, _, _)| CONFIGS[it.config].name())
        .collect();
    l.set("front.canonicalize_ms", canonicalize_ms(ctx, &srcs, &cfgs));
    let replies: Vec<&Json> = answered.iter().map(|(_, r, _)| r).collect();
    cache_probe(ctx, &replies, &mut l);
    l
}

/// Sends one network's items as a batch; an I/O failure fails every
/// item.
fn send_batch(client: &mut Client, inputs: &Inputs, items: &[StreamItem]) -> Vec<Json> {
    match client.compile_batch(&inputs.batch(items), None) {
        Ok(r) => r,
        Err(e) => vec![polyject_serve::protocol::error_response(&e.to_string()); items.len()],
    }
}

/// One answered call: the item, its reply and the call's round trip in
/// milliseconds.
pub type Answered = (StreamItem, Json, f64);

/// Checks answered calls against the expected artifacts. Each reply
/// that is not `ok` or differs is recorded as a failed operation and
/// contributes no latency; the others' round trips are returned.
pub fn account(expected: &Expected, report: &mut Report, answered: &[Answered]) -> Samples {
    let mut samples = Samples::new();
    for (it, r, ms) in answered {
        match reply_failure(expected, it, r) {
            Some(why) => report.fail(why),
            None => samples.push(*ms),
        }
    }
    samples
}

/// Table II's headline over the served networks, rebuilt from served
/// replies: per network, summed isl over summed infl simulated time,
/// geomean over networks. `None` if some `(op, isl|infl)` reply is
/// missing.
pub fn served_geomean(pop: &Population, answered: &[Answered]) -> Option<f64> {
    let mut time: HashMap<(usize, usize), f64> = HashMap::new();
    for (it, r, _) in answered {
        if let Some(t) = r
            .get("timing")
            .and_then(|t| t.get("time"))
            .and_then(Json::as_f64)
        {
            time.insert((it.op, it.config), t * 1e3);
        }
    }
    let mut speedups = Vec::new();
    for n in served_networks(pop) {
        let (mut isl, mut infl) = (0.0, 0.0);
        for &op in &pop.op_index[n] {
            isl += time.get(&(op, 0))?;
            infl += time.get(&(op, 2))?;
        }
        speedups.push(isl / infl);
    }
    Some(stats::geomean(&speedups))
}

/// The expected [`served_geomean`], from the expected Table II rows.
pub fn expected_served_geomean(ctx: &Ctx, pop: &Population) -> f64 {
    let speedups: Vec<f64> = served_networks(pop)
        .into_iter()
        .filter_map(|n| ctx.expected.rows.get(n).map(|r| r.infl_speedup()))
        .collect();
    stats::geomean(&speedups)
}

/// Records the served geomean, failing if it differs from Table II's.
fn record_geomean(ctx: &Ctx, out: &mut Outcome, pop: &Population, answered: &[Answered]) {
    let g = served_geomean(pop, answered).unwrap_or(f64::NAN);
    if g.to_bits() != expected_served_geomean(ctx, pop).to_bits() {
        out.report
            .fail(format!("served Table II geomean {g} differs"));
    }
    let g = Metric::new("served_sim_infl_speedup_geomean", g, "x", 1);
    out.report.notes.push(g);
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = match Inputs::new(ctx.seed) {
        Ok(i) => i,
        Err(e) => {
            out.report.fail(format!("inputs: {e}"));
            return out;
        }
    };
    out.size(inputs.items(), inputs.distinct(), inputs.items());

    // Setup: spawn, compile the stream, replay until replication settles.
    let t_setup = Instant::now();
    let fleet = match Fleet::spawn(&ctx.bin_dir, &ctx.root.path().join("fleet")) {
        Ok(f) => f,
        Err(e) => {
            out.report.fail(format!("fleet: {e}"));
            return out;
        }
    };
    let mut client = match Client::connect(fleet.router()) {
        Ok(c) => c,
        Err(e) => {
            out.report.fail(format!("connect: {e}"));
            return out;
        }
    };
    let spawned = ctx.trace.then(|| Frames::read(&fleet));
    let mut transfers = -1.0;
    let mut settled = false;
    let mut replayed = Vec::new();
    for replay in 0..MAX_WARM_REPLAYS {
        replayed.clear();
        let t = Instant::now();
        for items in &inputs.batches {
            let replies = send_batch(&mut client, &inputs, items);
            for (it, r) in items.iter().cloned().zip(replies) {
                if let Some(why) = reply_failure(&ctx.expected, &it, &r) {
                    out.report.fail(format!("warm-up: {why}"));
                }
                replayed.push((it, r, 0.0));
            }
        }
        if replay == 0 {
            // The cold compile of the stream: informational, since its
            // wall time follows the disk's discard latency.
            let rate = inputs.items() as f64 / t.elapsed().as_secs_f64();
            out.report
                .notes
                .push(Metric::new("cold_items_per_s", rate, "1/s", 1));
        }
        let now = Frames::read(&fleet).transfers_out();
        if now == transfers {
            settled = true;
            break;
        }
        transfers = now;
    }
    if !settled {
        out.report
            .fail("warm-up: router transfers_out never stopped growing".to_string());
    }
    out.setup_s.push(t_setup.elapsed().as_secs_f64());

    // Timed: request by request over one connection, cycling the stream.
    let stream: Vec<StreamItem> = inputs.batches.concat();
    let mut rtt = Samples::new();
    let mut rates = Vec::new();
    let (mut plain_walls, mut traced_walls, mut ledgers) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    let windows = if ctx.trace { 2 } else { 1 };
    for w in 0..windows {
        let traced = w == 1;
        let before = traced.then(|| Frames::read(&fleet));
        let mut spans = Spans::default();
        let mut answered = Vec::new();
        let mut sent = 0;
        let mut call_ms = 0.0;
        let budget = ctx.seconds / windows as f64;
        let t0 = Instant::now();
        // Whole passes over the stream only: which shard answers each
        // request, and so the mix of latencies, repeats per pass.
        while t0.elapsed().as_secs_f64() < budget || sent % stream.len() != 0 {
            sent += 1;
            let it = stream[next % stream.len()].clone();
            next += 1;
            let t = Instant::now();
            let resp = client.compile(&inputs.srcs[it.op], CONFIGS[it.config].name());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            call_ms += ms;
            out.report.attempted += 1;
            match resp {
                Ok(r) => {
                    if traced {
                        spans.record(ms, &r);
                    }
                    answered.push((it, r, ms));
                }
                Err(e) => {
                    out.report.fail(format!("request: {e}"));
                    match Client::connect(fleet.router()) {
                        Ok(c) => client = c,
                        Err(_) => break,
                    }
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let window_rtt = account(&ctx.expected, &mut out.report, &answered);
        if let (Some(since), Some(before)) = (&spawned, &before) {
            traced_walls.push(wall_s / answered.len().max(1) as f64);
            ledgers.push(finish_ledger(
                ctx,
                &inputs,
                &fleet,
                (since, before),
                wall_s,
                call_ms,
                &spans,
                &answered,
            ));
        } else {
            plain_walls.push(wall_s / answered.len().max(1) as f64);
            rates.push(answered.len() as f64 / wall_s);
            rtt.extend(window_rtt);
        }
    }
    out.peak_rss_mb = Some(fleet.peak_rss_mb());
    let (router_cpu, daemon_cpu) = fleet.cpu_s();
    let notes = &mut out.report.notes;
    notes.push(Metric::new("run.router_cpu_s", router_cpu, "s", 1));
    for (i, cpu) in daemon_cpu.into_iter().enumerate() {
        notes.push(Metric::new(&format!("run.daemon{i}_cpu_s"), cpu, "s", 1));
    }
    out.latency("warm", &rtt, 99);
    out.throughput("warm_req_per_s", &rates);
    record_geomean(ctx, &mut out, &inputs.pop, &replayed);
    out.traced(ledgers, &plain_walls, &traced_walls);
    out
}

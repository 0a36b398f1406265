//! The daemon client: used by `polyjectc --remote`, `polyject-cache`,
//! tests, and anything else that talks to a running `polyjectd`.

use crate::json::Json;
use crate::membership::{Membership, DEFAULT_VNODES};
use crate::net::Stream;
use crate::protocol::{error_response, read_frame, write_frame, BatchItem, Request};
use polyject_gpusim::GpuModel;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Where a daemon listens: a Unix socket path (the default) or a TCP
/// `host:port` fallback for platforms/namespaces without Unix sockets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port` address.
    Tcp(String),
}

impl Endpoint {
    /// Parses an endpoint string: anything shaped like `host:port` (no
    /// path separator, numeric port suffix) is TCP, everything else is a
    /// Unix socket path.
    ///
    /// # Errors
    ///
    /// A string that *looks* like `host:port` (no `/`, an all-digit
    /// suffix after the last `:`) whose port does not fit in 0-65535 is
    /// rejected here — silently treating `localhost:99999` as a Unix
    /// path would surface much later as a baffling "No such file or
    /// directory" connect error.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if !s.contains('/') {
            if let Some((host, port)) = s.rsplit_once(':') {
                if !host.is_empty() && !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit())
                {
                    return match port.parse::<u16>() {
                        Ok(_) => Ok(Endpoint::Tcp(s.to_string())),
                        Err(_) => Err(format!(
                            "invalid port {port:?} in endpoint {s:?} (expected 0-65535; \
                             for a Unix socket path, include a '/')"
                        )),
                    };
                }
            }
        }
        Ok(Endpoint::Unix(PathBuf::from(s)))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "{a}"),
        }
    }
}

/// A blocking protocol client over one connection. Requests are
/// strictly sequential (one frame out, one frame in).
#[derive(Debug)]
pub struct Client {
    conn: Stream,
}

impl Client {
    /// Connects to a daemon endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (daemon not running, bad address).
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            conn: Stream::connect(endpoint)?,
        })
    }

    /// Sets a read/write timeout on the underlying socket (`None`
    /// blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(timeout)?;
        self.conn.set_write_timeout(timeout)
    }

    /// Sends one request and reads one response frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn request(&mut self, req: &Request) -> io::Result<Json> {
        write_frame(&mut self.conn, &req.to_json())?;
        read_frame(&mut self.conn)
    }

    /// Compiles `.pj` source under a configuration name, returning the
    /// raw response object (check its `"status"`).
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn compile(&mut self, src: &str, config: &str) -> io::Result<Json> {
        self.request(&Request::Compile {
            src: src.to_string(),
            config: config.to_string(),
            req: None,
        })
    }

    /// Compiles with a caller-chosen request id, so the in-flight solve
    /// can be cancelled by id from another connection (hedged requests).
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn compile_tagged(&mut self, src: &str, config: &str, req: &str) -> io::Result<Json> {
        self.request(&Request::Compile {
            src: src.to_string(),
            config: config.to_string(),
            req: Some(req.to_string()),
        })
    }

    /// Compiles a whole batch in one round trip: sends a single
    /// `compile_batch` frame and reads streamed per-item reply frames
    /// until the closing `batch_done` summary. Returns one inner reply
    /// per item, in request order, regardless of the (pipelined,
    /// completion-ordered) arrival order on the wire; an item the server
    /// never answered degrades to a structured error object.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures (a mid-batch disconnect loses
    /// the items already received — retry the batch).
    pub fn compile_batch(
        &mut self,
        items: &[BatchItem],
        req: Option<&str>,
    ) -> io::Result<Vec<Json>> {
        write_frame(
            &mut self.conn,
            &Request::CompileBatch {
                items: items.to_vec(),
                req: req.map(str::to_string),
            }
            .to_json(),
        )?;
        let mut slots: Vec<Option<Json>> = vec![None; items.len()];
        loop {
            let frame = read_frame(&mut self.conn)?;
            match frame.str_field("status") {
                Ok("item") => {
                    let index = frame.num_field("index").map_err(invalid_data)? as usize;
                    let reply = frame
                        .get("reply")
                        .cloned()
                        .ok_or_else(|| invalid_data("item frame missing reply".to_string()))?;
                    if let Some(slot) = slots.get_mut(index) {
                        *slot = Some(reply);
                    }
                }
                Ok("batch_done") => break,
                // A top-level error (malformed batch request) aborts the
                // whole call — there are no per-item results to salvage.
                _ => {
                    return Err(invalid_data(format!(
                        "unexpected batch frame: {}",
                        frame.render()
                    )))
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.unwrap_or_else(|| error_response("server sent no reply for this item")))
            .collect())
    }

    /// Cancels an in-flight compile by request id.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn cancel(&mut self, req: &str) -> io::Result<Json> {
        self.request(&Request::Cancel {
            req: req.to_string(),
        })
    }

    /// Fetches the shard metrics report (stats + identity + governance).
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.request(&Request::Metrics)
    }

    /// Lists `(key, kind)` of every cache entry the daemon holds.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn keys(&mut self) -> io::Result<Json> {
        self.request(&Request::Keys)
    }

    /// Fetches one raw cache entry by key.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn fetch(&mut self, key: &str) -> io::Result<Json> {
        self.request(&Request::Fetch {
            key: key.to_string(),
        })
    }

    /// Stores one raw cache entry on the daemon (checksum re-verified on
    /// the receiving side).
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn transfer(
        &mut self,
        key: &str,
        kind: &str,
        payload: Json,
        checksum: &str,
    ) -> io::Result<Json> {
        self.request(&Request::Transfer {
            key: key.to_string(),
            kind: kind.to_string(),
            payload,
            checksum: checksum.to_string(),
        })
    }

    /// Writes raw bytes straight onto the connection, bypassing framing.
    /// Only the chaos harness uses this — to feed the daemon garbage
    /// frames and prove it answers structurally instead of wedging.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn inject_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.conn.write_all(bytes)?;
        self.conn.flush()
    }

    /// Reads one raw response frame without sending anything first (used
    /// after [`Client::inject_raw`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn read_response(&mut self) -> io::Result<Json> {
        read_frame(&mut self.conn)
    }

    /// Liveness probe; `Ok(true)` when the daemon answered the ping.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn ping(&mut self) -> io::Result<bool> {
        let resp = self.request(&Request::Ping)?;
        Ok(resp.get("pong").and_then(Json::as_bool) == Some(true))
    }

    /// Fetches the daemon's stats report.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&Request::Stats)
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&Request::Shutdown)
    }
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Client-side shard selection: `polyjectc --remote a,b,c` routes each
/// request over the same consistent-hash ring a `polyject-router` uses,
/// trying the key's replicas in health order — no router process needed
/// for the common "N daemons, one client" topology.
pub struct ShardedClient {
    membership: Membership,
    gpu: GpuModel,
    replication: usize,
}

impl ShardedClient {
    /// Builds a sharded client over the daemon endpoints.
    pub fn new(endpoints: Vec<Endpoint>, gpu: GpuModel) -> ShardedClient {
        ShardedClient {
            membership: Membership::new(endpoints, DEFAULT_VNODES),
            gpu,
            replication: 2,
        }
    }

    /// Overrides the failover fan-out (how many replicas are tried).
    pub fn with_replication(mut self, r: usize) -> ShardedClient {
        self.replication = r.max(1);
        self
    }

    /// The replica endpoints (health-ordered) a source would route to.
    pub fn route(&self, src: &str, config: &str) -> Vec<Endpoint> {
        // Routing only needs a stable key; if the source does not parse,
        // hash it raw and let the daemon report the parse error.
        let canonical = polyject_front::canonical_pj(src).unwrap_or_else(|_| src.to_string());
        let key = crate::service::cache_key(&canonical, config, &self.gpu);
        self.membership.replicas_for(&key, self.replication)
    }

    /// Compiles through the owning shard, failing over across replicas
    /// on socket errors. A structured daemon response (any status) is
    /// returned as-is; `Err` means every replica was unreachable.
    ///
    /// # Errors
    ///
    /// The last socket failure when no replica answered a frame.
    pub fn compile(&mut self, src: &str, config: &str) -> io::Result<Json> {
        let replicas = self.route(src, config);
        if replicas.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no shard endpoints configured",
            ));
        }
        let mut last = io::Error::other("unreachable");
        for endpoint in replicas {
            let attempt =
                Client::connect(&endpoint).and_then(|mut client| client.compile(src, config));
            match attempt {
                Ok(resp) => {
                    self.membership.record_success(&endpoint);
                    return Ok(resp);
                }
                Err(e) => {
                    self.membership.record_failure(&endpoint);
                    last = io::Error::new(e.kind(), format!("shard {endpoint} unreachable: {e}"));
                }
            }
        }
        Err(last)
    }

    /// Compiles a whole batch through the fleet with scatter-gather:
    /// items are partitioned by owning shard, each shard gets its
    /// sub-batch in ONE `compile_batch` round trip over one connection,
    /// all sub-batches are in flight concurrently (so the whole fleet's
    /// worker pools crunch at once), and the replies are reassembled in
    /// request order. An item whose sub-batch connection failed falls
    /// back to the per-item [`ShardedClient::compile`] path (which walks
    /// the replicas), so a dead shard degrades that sub-batch instead of
    /// failing the batch.
    ///
    /// Returns the per-item replies plus the number of client round
    /// trips taken (sub-batches + any per-item fallbacks) — the number a
    /// sequential client would spend one-per-item.
    pub fn compile_batch(&mut self, items: &[BatchItem]) -> (Vec<Json>, u64) {
        // Group item indices by primary owner, in first-occurrence order
        // so the scatter is deterministic for a fixed membership.
        let mut groups: Vec<(Endpoint, Vec<usize>)> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let owner = self.route(&item.src, &item.config).into_iter().next();
            let Some(owner) = owner else {
                continue; // no shards configured; handled below
            };
            match groups.iter_mut().find(|(ep, _)| *ep == owner) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((owner, vec![i])),
            }
        }
        let mut slots: Vec<Option<Json>> = vec![None; items.len()];
        let mut round_trips = groups.len() as u64;
        // Concurrent scatter: one thread per sub-batch, gathered before
        // any fallback so membership updates stay on this thread.
        let gathered: Vec<io::Result<Vec<Json>>> = std::thread::scope(|scope| {
            let legs: Vec<_> = groups
                .iter()
                .map(|(endpoint, idxs)| {
                    let sub: Vec<BatchItem> = idxs.iter().map(|&i| items[i].clone()).collect();
                    scope.spawn(move || {
                        Client::connect(endpoint)
                            .and_then(|mut client| client.compile_batch(&sub, None))
                    })
                })
                .collect();
            legs.into_iter()
                .map(|leg| {
                    leg.join()
                        .unwrap_or_else(|_| Err(io::Error::other("leg panicked")))
                })
                .collect()
        });
        for ((endpoint, idxs), attempt) in groups.iter().zip(gathered) {
            match attempt {
                Ok(replies) => {
                    self.membership.record_success(endpoint);
                    for (&i, reply) in idxs.iter().zip(replies) {
                        slots[i] = Some(reply);
                    }
                }
                Err(_) => {
                    self.membership.record_failure(endpoint);
                }
            }
        }
        // Per-item fallback for anything the scatter did not answer.
        let replies = items
            .iter()
            .zip(slots)
            .map(|(item, slot)| match slot {
                Some(reply) => reply,
                None => {
                    round_trips += 1;
                    self.compile(&item.src, &item.config)
                        .unwrap_or_else(|e| error_response(&format!("all replicas failed: {e}")))
                }
            })
            .collect();
        (replies, round_trips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing_heuristic() {
        assert_eq!(
            Endpoint::parse("/tmp/pjd.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/pjd.sock"))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7421").unwrap(),
            Endpoint::Tcp("127.0.0.1:7421".to_string())
        );
        assert_eq!(
            Endpoint::parse("localhost:65535").unwrap(),
            Endpoint::Tcp("localhost:65535".to_string())
        );
        // An out-of-range numeric port is a mistyped TCP address, not a
        // Unix path — reject it up front instead of failing the connect
        // later with a misleading missing-file error.
        let err = Endpoint::parse("localhost:99999").unwrap_err();
        assert!(err.contains("invalid port"), "{err}");
        assert!(Endpoint::parse("host:123456789012").is_err());
        // Portless or non-numeric suffixes are paths (files may contain
        // colons), as are anything with a path separator.
        assert_eq!(
            Endpoint::parse("pjd.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("pjd.sock"))
        );
        assert_eq!(
            Endpoint::parse("some:name").unwrap(),
            Endpoint::Unix(PathBuf::from("some:name"))
        );
        assert_eq!(
            Endpoint::parse("/dir/localhost:99999").unwrap(),
            Endpoint::Unix(PathBuf::from("/dir/localhost:99999"))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7421").unwrap().to_string(),
            "127.0.0.1:7421"
        );
    }

    #[test]
    fn tcp_roundtrip_against_manual_server() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_frame(&mut s).unwrap();
            assert_eq!(Request::from_json(&req).unwrap(), Request::Ping);
            write_frame(
                &mut s,
                &Json::obj(vec![
                    ("status", Json::Str("ok".to_string())),
                    ("pong", Json::Bool(true)),
                ]),
            )
            .unwrap();
        });
        let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
        assert!(client.ping().unwrap());
        server.join().unwrap();
    }

    // Satellite audit of the remote error paths: every socket-level
    // failure must surface as a structured `io::Error` (no panic, no
    // unwrap) that a CLI can turn into stderr + nonzero exit.

    #[test]
    fn connect_to_missing_socket_is_a_structured_error() {
        let err = Client::connect(&Endpoint::Unix(PathBuf::from(
            "/nonexistent/never/pjd.sock",
        )))
        .unwrap_err();
        assert!(
            matches!(err.kind(), io::ErrorKind::NotFound | io::ErrorKind::Other),
            "{err}"
        );
        let err = Client::connect(&Endpoint::Tcp("127.0.0.1:1".to_string())).unwrap_err();
        assert_ne!(err.to_string(), "");
    }

    #[test]
    fn mid_frame_close_is_unexpected_eof() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_frame(&mut s);
            // Promise an 8-byte frame, deliver 3, hang up.
            s.write_all(&8u32.to_be_bytes()).unwrap();
            s.write_all(b"abc").unwrap();
        });
        let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
        let err = client.stats().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        server.join().unwrap();
    }

    #[test]
    fn invalid_utf8_frame_is_invalid_data() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_frame(&mut s);
            s.write_all(&4u32.to_be_bytes()).unwrap();
            s.write_all(&[0x80, 0xfe, 0xff, 0x81]).unwrap();
        });
        let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
        let err = client.stats().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        server.join().unwrap();
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_frame(&mut s);
            // A length prefix far past MAX_FRAME; no body follows.
            s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        });
        let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
        let err = client.stats().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        server.join().unwrap();
    }

    #[test]
    fn sharded_client_routes_deterministically_and_fails_over() {
        let eps = vec![
            Endpoint::parse("/nonexistent/s0.sock").unwrap(),
            Endpoint::parse("/nonexistent/s1.sock").unwrap(),
            Endpoint::parse("/nonexistent/s2.sock").unwrap(),
        ];
        let mut sc = ShardedClient::new(eps.clone(), GpuModel::v100()).with_replication(2);
        let src = "
kernel axpy
param N = 64
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
";
        let route = sc.route(src, "infl");
        assert_eq!(route.len(), 2);
        assert_eq!(route, sc.route(src, "infl"), "routing must be stable");
        // All replicas dead: structured error naming a shard, no panic.
        let err = sc.compile(src, "infl").unwrap_err();
        assert!(err.to_string().contains("unreachable"), "{err}");
        // Unparsable sources still route (hashed raw) instead of panicking.
        assert_eq!(sc.route("kernel {{{ not a kernel", "infl").len(), 2);
        let none = ShardedClient::new(Vec::new(), GpuModel::v100())
            .compile(src, "infl")
            .unwrap_err();
        assert_eq!(none.kind(), io::ErrorKind::NotFound);
    }
}

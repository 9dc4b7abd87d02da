//! # ct-server — HTTP serving layer for the Cubetree engine
//!
//! A long-lived binary front end over the typed [`cubetree`] engine API:
//! hand-rolled HTTP/1.1 on [`std::net`] (the workspace is offline — no
//! tokio, no hyper), JSON and CSV response formats, and an
//! admission-controlled query path.
//!
//! ## Endpoints
//!
//! | method | path | purpose |
//! |---|---|---|
//! | `GET` | `/healthz` | liveness + current generation |
//! | `GET` | `/views` | materialized views of the pinned generation |
//! | `GET` | `/metrics` | [`ct_obs`] metrics snapshot as JSON |
//! | `POST` | `/query` | one slice query (JSON or CSV answer) |
//! | `POST` | `/refresh` | merge-pack a delta; readers keep answering |
//! | `POST` | `/ingest` | stream fact rows into the in-memory delta tier |
//!
//! ## Architecture
//!
//! Connections are handled thread-per-connection with keep-alive. Query
//! requests are validated against the loaded schema, then answered on the
//! connection's own thread through [`admission`]: an answer-cache probe,
//! and on a miss one execution against one pinned generation — one query
//! executes at a time, and at most `max_depth` wait their turn. Beyond
//! that bound the server answers `429` + `Retry-After: 1` instead of letting
//! waiters pile up. `POST /refresh` runs the generation-MVCC
//! merge-pack concurrently with in-flight reads: queries admitted before
//! the flip answer from the old generation, queries after from the new,
//! and every response is stamped with the generation it answered from.
//!
//! `POST /ingest` is the streaming write path: rows land in the engine's
//! in-memory delta tier and are visible to the very next query (merged on
//! top of the pinned generation's tree answers), long before any
//! merge-pack runs. A background [`compactor`] thread folds the tier into
//! the packed trees when it exceeds its row or age threshold, and a hard cap
//! of four times the row threshold turns a lagging compactor into `429`
//! backpressure instead of unbounded memory growth. Shutdown drains: the
//! compactor's final merge-pack persists every acknowledged ingest.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ct_common::{AggFn, Catalog, ViewDef};
//! use ct_cube::Relation;
//! use cubetree::engine::{CubetreeConfig, CubetreeEngine, RolapEngine};
//! use ct_server::{CtServer, ServerConfig};
//!
//! let mut catalog = Catalog::new();
//! let p = catalog.add_attr("partkey", 100);
//! let s = catalog.add_attr("suppkey", 10);
//! let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
//! let mut engine = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
//! engine.load(&Relation::from_fact(vec![p, s], vec![1, 1], &[10])).unwrap();
//! let server = CtServer::start(Arc::new(engine), ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.addr());
//! server.shutdown();
//! ```
//!
//! ## Configuration
//!
//! [`ServerConfig`] has five settable values: the bind `addr`,
//! `admission.max_depth`, `ingest.max_rows`, `ingest.max_age` and
//! `cache.max_bytes` (`0` turns the answer cache off). Everything else is
//! derived from them or constant; SERVING.md lists each with its default.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod cache;
pub mod compactor;
pub mod http;
pub mod json;
pub mod routes;

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ct_common::{CtError, Result};
use cubetree::ServingEngine;

use admission::{Admission, AdmissionConfig};
use cache::{AnswerCache, CacheConfig};
use compactor::{Compactor, IngestConfig};
use http::{read_request, Response};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` asks the OS for an ephemeral port (the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Admission control: the in-flight query bound.
    pub admission: AdmissionConfig,
    /// Delta-tier compaction thresholds (rows, age); the ingest cap derives
    /// from the row threshold.
    pub ingest: IngestConfig,
    /// Answer-cache byte budget (`0` disables the cache).
    pub cache: CacheConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig::default(),
            ingest: IngestConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

struct ServerState {
    engine: Arc<dyn ServingEngine>,
    admission: Admission,
    compactor: Compactor,
    ingest: IngestConfig,
    refresh_lock: Mutex<()>,
    stop: AtomicBool,
}

/// The serving layer. [`CtServer::start`] binds, spawns the accept loop and
/// the compactor, and returns a handle; [`ServerHandle::shutdown`] (or
/// dropping the handle) stops everything.
pub struct CtServer;

/// Handle to a running server.
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: std::net::SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl CtServer {
    /// Binds `config.addr` and starts serving `engine`, typically a loaded
    /// [`cubetree::CubetreeEngine`] (`Arc<ConcreteEngine>` coerces at the
    /// call site).
    ///
    /// # Errors
    /// [`CtError::InvalidArgument`] if the engine has not been loaded;
    /// [`CtError::Io`] if the listener cannot bind.
    pub fn start(engine: Arc<dyn ServingEngine>, config: ServerConfig) -> Result<ServerHandle> {
        if !engine.loaded() {
            return Err(CtError::invalid("load the engine before starting the server"));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = AnswerCache::from_config(&config.cache, engine.recorder());
        let admission = Admission::start(Arc::clone(&engine), config.admission, cache);
        let compactor = Compactor::start(Arc::clone(&engine), config.ingest.clone());
        let state = Arc::new(ServerState {
            engine,
            admission,
            compactor,
            ingest: config.ingest,
            refresh_lock: Mutex::new(()),
            stop: AtomicBool::new(false),
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("ct-server-accept".to_string())
            .spawn(move || accept_loop(listener, accept_state))
            .map_err(|e| CtError::invalid(format!("spawn accept thread: {e}")))?;
        Ok(ServerHandle { state, addr, accept_thread: Some(accept_thread) })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting and admitting (queries already admitted finish on
    /// their connection threads) and drains the compactor. Idempotent.
    pub fn shutdown(&self) {
        if self.state.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Order matters: stopping admission first flips the shared shutdown
        // flag, so /ingest starts answering 503 before the compactor's
        // final drain runs — no acknowledged row can slip in behind the
        // drain and be lost on exit.
        self.state.admission.shutdown();
        self.state.compactor.shutdown();
        // The accept loop blocks in accept(); poke it awake with a
        // throwaway connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Like [`ServerHandle::shutdown`], but also joins the accept thread
    /// (consumes the handle).
    pub fn join(mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                // Back off before retrying: accept errors can be persistent
                // (EMFILE under thread-per-connection), and an immediate
                // retry would busy-spin a core at 100%.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let conn_state = Arc::clone(&state);
        // Thread-per-connection: clients keep their connection alive for
        // many requests, so thread churn is per-client, not per-request.
        let _ = std::thread::Builder::new()
            .name("ct-server-conn".to_string())
            .spawn(move || connection_loop(stream, conn_state));
    }
}

/// Serves one keep-alive connection until the peer closes, asks to close,
/// sends something malformed, or the server stops.
fn connection_loop(stream: TcpStream, state: Arc<ServerState>) {
    // A read timeout lets the loop notice server shutdown even while a
    // client holds its connection open idle.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let recorder = state.engine.recorder().clone();
    let requests = recorder.counter("server.http.requests");
    let latency_us = recorder.histogram("server.http.latency_us");
    let mut reader = BufReader::new(stream);
    loop {
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean EOF between requests
            // Idle keep-alive poll (read timeout before any request byte):
            // loop around so the stop flag is rechecked.
            Err(e) if e.is_idle_timeout() => continue,
            // Other stream failures (reset, broken pipe): the peer is gone,
            // so answering is pointless — just drop the connection.
            Err(http::HttpError::Io(_)) => return,
            Err(e) => {
                requests.inc();
                recorder.add("server.http.status_4xx", 1);
                let resp = Response::json(
                    e.status(),
                    format!("{{\"error\": {}}}", json::escape(&e.message())),
                );
                let _ = resp.write(reader.get_mut(), false);
                return;
            }
        };
        requests.inc();
        let started = Instant::now();
        let response = routes::dispatch(
            state.engine.as_ref(),
            &state.admission,
            &state.refresh_lock,
            &state.ingest,
            &req,
        );
        latency_us.record(started.elapsed().as_micros() as u64);
        if recorder.is_enabled() {
            let class = match response.status {
                429 => "server.http.status_429",
                s if s < 300 => "server.http.status_2xx",
                s if s < 500 => "server.http.status_4xx",
                _ => "server.http.status_5xx",
            };
            recorder.add(class, 1);
        }
        let keep_alive = !req.wants_close();
        if response.write(reader.get_mut(), keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::{AggFn, Catalog, ViewDef};
    use ct_cube::Relation;
    use cubetree::engine::{CubetreeConfig, CubetreeEngine, RolapEngine};
    use std::io::{Read, Write};

    fn tiny_engine() -> Arc<CubetreeEngine> {
        let mut catalog = Catalog::new();
        let p = catalog.add_attr("partkey", 4);
        let s = catalog.add_attr("suppkey", 3);
        let views = vec![ViewDef::new(0, vec![p, s], AggFn::Sum)];
        let mut engine = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
        let fact = Relation::from_fact(vec![p, s], vec![1, 1, 2, 2], &[10, 20]);
        engine.load(&fact).unwrap();
        Arc::new(engine)
    }

    fn roundtrip(addr: std::net::SocketAddr, request: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn starting_an_unloaded_engine_fails() {
        let mut catalog = Catalog::new();
        let p = catalog.add_attr("p", 4);
        let views = vec![ViewDef::new(0, vec![p], AggFn::Sum)];
        let engine =
            Arc::new(CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap());
        assert!(CtServer::start(engine, ServerConfig::default()).is_err());
    }

    #[test]
    fn healthz_views_and_shutdown() {
        let server = CtServer::start(tiny_engine(), ServerConfig::default()).unwrap();
        let health = roundtrip(
            server.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"generation\": 0"), "{health}");
        let views =
            roundtrip(server.addr(), "GET /views HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(views.contains("V{partkey,suppkey}"), "{views}");
        let missing =
            roundtrip(server.addr(), "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let wrong_verb =
            roundtrip(server.addr(), "GET /query HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(wrong_verb.starts_with("HTTP/1.1 405"), "{wrong_verb}");
        server.join();
    }

    #[test]
    fn malformed_http_is_answered_not_crashed() {
        let server = CtServer::start(tiny_engine(), ServerConfig::default()).unwrap();
        let garbage = roundtrip(server.addr(), "GARBAGE\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
        // Server is still healthy afterwards.
        let health = roundtrip(
            server.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        server.join();
    }
}

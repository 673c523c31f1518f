//! The TCP server: accept loop, per-connection reader/writer split,
//! and teardown/shutdown choreography.
//!
//! Every connection owns exactly two threads:
//!
//! * the **reader** serves its own requests to completion: it decodes
//!   every complete frame in its read buffer, submits the valid
//!   requests among them as one [`Engine::submit`] batch, and queues
//!   the encoded responses before it reads again. Protocol errors are
//!   answered with an error frame and — when fatal
//!   ([`lbq_proto::ErrorCode::is_fatal`]) — tear the connection down;
//! * the **writer** drains the connection's outbound queue and owns
//!   the socket's write half; marking the connection *closing* makes
//!   the writer flush what is queued and then shut the socket down, so
//!   an error frame always reaches the peer before the FIN.
//!
//! Batch size follows load with no timer: a lone request goes straight
//! to the engine, a pipelined burst that arrives in one read rides one
//! Hilbert-tiled batch, and concurrent connections submit concurrently,
//! keeping every engine worker busy.
//!
//! A clean client EOF (peer finished sending) does **not** drop
//! in-flight requests: by the time the reader sees it, every request it
//! decoded is answered into the outbound queue, and the writer flushes
//! that queue before it closes — the natural client pattern "pipeline
//! everything, `shutdown(Write)`, read all responses" works.

use crate::NetConfig;
use lbq_proto::{
    decode_frame, encode_error, encode_query_response, request_query, validate_request, Decoded,
    ErrorCode, Frame,
};
use lbq_serve::{Engine, QueryReq};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Read-buffer chunk size of a connection reader: one read holds up to
/// ~400 request frames, which then ride one engine batch.
const READ_CHUNK: usize = 16 * 1024;

/// One accepted connection: the socket plus the outbound queue shared
/// between its reader and its writer.
struct Conn {
    stream: TcpStream,
    out: Mutex<OutQueue>,
    cvar: Condvar,
    /// Frames owed a reply whose reply is not yet written to the socket
    /// (budget: [`NetConfig::max_inflight`]).
    inflight: AtomicUsize,
}

struct OutQueue {
    queue: VecDeque<Vec<u8>>,
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            out: Mutex::new(OutQueue {
                queue: VecDeque::new(),
                closing: false,
            }),
            cvar: Condvar::new(),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Claims an in-flight slot for a frame that will be answered; the
    /// writer returns it once the reply is written. `false` (claiming
    /// nothing) when the budget is spent.
    fn reserve(&self, budget: usize) -> bool {
        if self.inflight.fetch_add(1, Ordering::AcqRel) < budget {
            return true;
        }
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        false
    }

    /// Queues reply frames whose slots are already claimed, in order.
    /// Frames sent to a closing connection are dropped.
    fn send(&self, frames: impl IntoIterator<Item = Vec<u8>>) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if out.closing {
            return;
        }
        out.queue.extend(frames);
        drop(out);
        self.cvar.notify_one();
    }

    /// Queues the error frame that ends the connection (it claims a
    /// slot past the budget: nothing follows it), then closes.
    fn fail(&self, frame: Vec<u8>) {
        lbq_obs::counter("net-protocol-errors").add(1);
        self.inflight.fetch_add(1, Ordering::AcqRel);
        self.send([frame]);
        self.close();
    }

    /// Blocks for the next queued frame; `None` once the connection is
    /// closing and the queue is empty.
    fn next_frame(&self) -> Option<Vec<u8>> {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(b) = out.queue.pop_front() {
                return Some(b);
            }
            if out.closing {
                return None;
            }
            out = self.cvar.wait(out).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks the connection closing: the writer flushes the queue and
    /// shuts the socket down. Idempotent.
    fn close(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        out.closing = true;
        drop(out);
        self.cvar.notify_all();
    }
}

/// Everything the accept, reader and writer threads share.
struct Shared {
    cfg: NetConfig,
    engine: Arc<Engine>,
    stop: AtomicBool,
    /// Live and finished connections; joined at shutdown. Bounded by
    /// the process's connection count (entries are not reaped early —
    /// the fleet scale here is tens of connections, not thousands of
    /// churned ones).
    registry: Mutex<Vec<ConnEntry>>,
}

struct ConnEntry {
    conn: Arc<Conn>,
    reader: Option<std::thread::JoinHandle<()>>,
    writer: Option<std::thread::JoinHandle<()>>,
}

/// A running TCP front-end over an [`Engine`]. Binding spawns the
/// accept loop; [`NetServer::shutdown`] (also run on drop) stops
/// accepting, lets every reader answer what it has decoded, flushes
/// every connection, and joins all threads.
///
/// See the crate docs for a usage example.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and starts serving `engine` with `cfg`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            engine,
            stop: AtomicBool::new(false),
            registry: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lbq-net-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(NetServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, stop the readers once they
    /// have answered everything they decoded, flush every connection's
    /// outbound queue, join every thread. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Stop the readers: a socket read-shutdown makes their blocking
        // read return 0. A reader inside `Engine::submit` finishes the
        // batch and queues its responses first.
        let mut registry = {
            let mut g = self
                .shared
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *g)
        };
        for entry in &registry {
            let _ = entry.conn.stream.shutdown(Shutdown::Read);
        }
        for entry in &mut registry {
            if let Some(h) = entry.reader.take() {
                let _ = h.join();
            }
        }
        // Flush and close every connection.
        for entry in &mut registry {
            entry.conn.close();
            if let Some(h) = entry.writer.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let accepts = lbq_obs::counter("net-accepts");
    let active = lbq_obs::gauge("net-active-conns");
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else {
            continue; // transient accept error
        };
        // Frames are small and latency-sensitive; never Nagle them.
        let _ = stream.set_nodelay(true);
        let Ok(wstream) = stream.try_clone() else {
            continue;
        };
        accepts.add(1);
        active.add(1);
        let conn = Arc::new(Conn::new(stream));
        let reader = {
            let conn = Arc::clone(&conn);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lbq-net-reader".into())
                .spawn(move || reader_loop(conn, shared))
        };
        let writer = {
            let conn = Arc::clone(&conn);
            let active = active.clone();
            std::thread::Builder::new()
                .name("lbq-net-writer".into())
                .spawn(move || writer_loop(conn, wstream, active))
        };
        match (reader, writer) {
            (Ok(r), Ok(w)) => {
                let mut g = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
                g.push(ConnEntry {
                    conn,
                    reader: Some(r),
                    writer: Some(w),
                });
            }
            (r, w) => {
                // Could not staff the connection: close it and reap
                // whichever thread did start.
                conn.close();
                let _ = conn.stream.shutdown(Shutdown::Both);
                if let Ok(h) = r {
                    let _ = h.join();
                }
                if let Ok(h) = w {
                    let _ = h.join();
                }
                active.add(-1);
            }
        }
    }
}

/// The writer half: drains the outbound queue onto the socket, handing
/// back each frame's in-flight slot once the frame is written; once the
/// connection is closing and the queue is empty, shuts the socket down.
/// Owns the active-connection gauge decrement (runs exactly once per
/// connection).
fn writer_loop(conn: Arc<Conn>, mut stream: TcpStream, active: lbq_obs::Gauge) {
    let frames_out = lbq_obs::counter("net-frames-out");
    while let Some(bytes) = conn.next_frame() {
        if stream.write_all(&bytes).is_err() {
            conn.close();
            break;
        }
        conn.inflight.fetch_sub(1, Ordering::AcqRel);
        frames_out.add(1);
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
    active.add(-1);
}

/// The requests decoded from one read buffer, awaiting one engine
/// submit, plus the histograms that submit records into.
struct Batch {
    reqs: Vec<QueryReq>,
    /// `(request_id, decoded at)` per request, index-aligned with `reqs`.
    pending: Vec<(u64, Instant)>,
    /// `net-coalesce-batch`: requests per front-end submit.
    sizes: lbq_obs::Histogram,
    /// `net-socket-latency`: frame decoded → response queued.
    latency: lbq_obs::Histogram,
}

impl Batch {
    fn new() -> Batch {
        Batch {
            reqs: Vec::new(),
            pending: Vec::new(),
            sizes: lbq_obs::histogram("net-coalesce-batch"),
            latency: lbq_obs::histogram("net-socket-latency"),
        }
    }

    /// Submits the batch as one engine call and queues the encoded
    /// responses on `conn`, in request order.
    fn serve(&mut self, engine: &Engine, conn: &Conn) {
        if self.reqs.is_empty() {
            return;
        }
        self.sizes.record_value(self.reqs.len() as u64);
        let resps = engine.submit(std::mem::take(&mut self.reqs));
        let frames: Vec<Vec<u8>> = self
            .pending
            .iter()
            .zip(&resps)
            .map(|(&(request_id, _), resp)| {
                let mut bytes = Vec::with_capacity(crate::RESPONSE_CAPACITY_HINT);
                if let Err(e) = encode_query_response(request_id, resp, &mut bytes) {
                    // Out-of-contract giant response: answer with the
                    // error instead of silently dropping the request.
                    bytes = encode_error(request_id, e.code, e.detail);
                }
                bytes
            })
            .collect();
        conn.send(frames);
        let queued = Instant::now();
        for (_, decoded) in self.pending.drain(..) {
            let ns = queued.saturating_duration_since(decoded).as_nanos();
            self.latency
                .record_ns(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

/// The reader half: decodes every complete frame in the read buffer,
/// serves the batch they form, and only then reads again.
fn reader_loop(conn: Arc<Conn>, shared: Arc<Shared>) {
    let frames_in = lbq_obs::counter("net-frames-in");
    let budget = shared.cfg.max_inflight;
    let mut stream = match conn.stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            conn.close();
            return;
        }
    };
    let mut buf: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let mut chunk = [0u8; READ_CHUNK];
    let mut batch = Batch::new();
    loop {
        // Decode every complete frame currently buffered, stopping at
        // the first fatal one.
        let mut consumed = 0;
        let mut fatal = None;
        while fatal.is_none() {
            match decode_frame(&buf[consumed..], shared.cfg.max_request_payload) {
                Ok(Decoded::Frame { frame, consumed: n }) => {
                    consumed += n;
                    frames_in.add(1);
                    fatal = handle_frame(&conn, budget, frame, &mut batch);
                }
                Ok(Decoded::Unknown {
                    frame_type,
                    request_id,
                    consumed: n,
                }) => {
                    // Forward compatibility: skip the frame, tell the
                    // peer, keep the connection.
                    consumed += n;
                    frames_in.add(1);
                    fatal = reply_error(
                        &conn,
                        budget,
                        request_id,
                        ErrorCode::UnknownFrameType,
                        format!("frame type 0x{frame_type:02x} unknown to this v1 server"),
                    );
                }
                Ok(Decoded::Incomplete { .. }) => break,
                // Framing is broken: report and tear down.
                Err(e) => fatal = Some(encode_error(0, e.code, e.detail)),
            }
        }
        buf.drain(..consumed);
        // Requests decoded before a fatal frame are still answered,
        // ahead of its error frame.
        batch.serve(&shared.engine, &conn);
        if let Some(frame) = fatal {
            conn.fail(frame);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            // Clean EOF, read-shutdown or a socket error: everything
            // decoded is already queued, and closing flushes it.
            _ => break,
        }
    }
    conn.close();
}

/// Handles one decoded frame on the server side: a valid request joins
/// `batch`, anything else is answered with an error frame. Returns the
/// error frame that must end the connection, if any.
fn handle_frame(conn: &Conn, budget: usize, frame: Frame, batch: &mut Batch) -> Option<Vec<u8>> {
    if let Err(e) = validate_request(&frame) {
        return reply_error(conn, budget, frame.request_id(), e.code, e.detail);
    }
    // Unreachable `None`: validate_request only accepts request frames.
    let (request_id, req) = request_query(&frame)?;
    if !conn.reserve(budget) {
        return Some(over_budget(request_id, budget));
    }
    batch.reqs.push(req);
    batch.pending.push((request_id, Instant::now()));
    None
}

/// Answers a frame with an error: queued at once when the error is
/// recoverable and an in-flight slot is free, otherwise returned as
/// the frame that ends the connection.
fn reply_error(
    conn: &Conn,
    budget: usize,
    request_id: u64,
    code: ErrorCode,
    detail: String,
) -> Option<Vec<u8>> {
    let frame = encode_error(request_id, code, detail);
    if code.is_fatal() {
        return Some(frame);
    }
    if !conn.reserve(budget) {
        return Some(over_budget(request_id, budget));
    }
    lbq_obs::counter("net-protocol-errors").add(1);
    conn.send([frame]);
    None
}

fn over_budget(request_id: u64, budget: usize) -> Vec<u8> {
    encode_error(
        request_id,
        ErrorCode::TooManyInFlight,
        format!("connection exceeded its in-flight budget of {budget}"),
    )
}

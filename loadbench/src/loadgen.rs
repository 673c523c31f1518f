//! The open-loop load generator.
//!
//! Each sender thread owns one TCP connection and sends on a schedule
//! (a Poisson stream, or the ticks of its share of a moving fleet),
//! paced by thread sleeps. A reader thread per connection timestamps
//! responses as they arrive. Every request is timed from its *due*
//! time, so a stall also delays the requests queued behind it
//! (coordinated-omission correction), and the sender's lateness is
//! recorded apart.
//!
//! A connection the server closes mid-run is a teardown: its
//! outstanding requests count as lost and the sender reconnects.
//! Requests still unanswered [`DRAIN_TIMEOUT`] after the last send are
//! timeouts.

use crate::workload::Client;
use lbq_core::{NnValidity, WindowValidity};
use lbq_data::Dataset;
use lbq_geom::Point;
use lbq_proto::{
    decode_frame, encode_frame, query_request, CacheTier, Decoded, Frame,
    DEFAULT_CLIENT_MAX_PAYLOAD,
};
use lbq_serve::QueryReq;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a sender waits for outstanding responses after its last
/// send before counting them as timeouts.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// A cached answer's validity region, as a fleet client holds it.
#[derive(Debug, Clone)]
pub enum Region {
    /// Region of a kNN answer.
    Knn(NnValidity),
    /// Region of a window answer.
    Window(WindowValidity),
}

impl Region {
    /// `true` while the cached answer is still exact at `p`.
    pub fn contains(&self, p: Point) -> bool {
        match self {
            Region::Knn(v) => v.contains(p),
            Region::Window(v) => v.contains(p),
        }
    }
}

/// What one sender sends.
pub enum Source {
    /// A precomputed open-loop stream of `(due ns, request)`.
    Stream(Vec<(u64, QueryReq)>),
    /// A share of the moving fleet.
    Fleet(FleetPart),
}

/// One sender's share of the fleet, carried from phase to phase.
pub struct FleetPart {
    /// The clients, sorted by tick phase.
    pub clients: Vec<Client>,
    /// Each client's cached region (`None` before its first answer).
    pub cached: Vec<Option<Region>>,
    /// Tick period, ns.
    pub period_ns: u64,
    /// The dataset, whose points are the clients' waypoints.
    pub data: Arc<Dataset>,
}

impl FleetPart {
    /// Wraps `clients` (sorted here by phase) with empty caches.
    pub fn new(mut clients: Vec<Client>, period_ns: u64, data: Arc<Dataset>) -> FleetPart {
        clients.sort_by(|a, b| a.phase.total_cmp(&b.phase));
        let cached = vec![None; clients.len()];
        FleetPart {
            clients,
            cached,
            period_ns,
            data,
        }
    }
}

/// Settings of one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCfg {
    /// Sending stops at this offset from the phase start, ns.
    pub duration_ns: u64,
    /// Time the proto encode and decode of every request (the traced
    /// run).
    pub trace: bool,
    /// Stop sending once a connection has this many requests
    /// outstanding: the backlog is growing (`usize::MAX` = never).
    pub abort_inflight: usize,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Correlation id.
    pub id: u64,
    /// The request sent.
    pub req: QueryReq,
    /// When it was due, ns from the phase start.
    pub due_ns: u64,
    /// When it was written, ns from the phase start.
    pub sent_ns: u64,
    /// When its response was read, ns from the phase start.
    pub recv_ns: u64,
    /// Time spent in `encode_frame` (traced run only, else 0).
    pub encode_ns: u64,
    /// Time spent in `decode_frame` (traced run only, else 0).
    pub decode_ns: u64,
    /// Serving tier from the wire flags.
    pub tier: CacheTier,
    /// Engine-assigned query id from the frame.
    pub query_id: u64,
    /// Result ids, sorted.
    pub ids: Vec<u64>,
    /// Encoded frame length, bytes.
    pub len: usize,
    /// The exact frame bytes, kept for tree-tier frames only (those are
    /// checked byte for byte).
    pub frame: Option<Vec<u8>>,
}

impl Answer {
    /// Round trip from the due time, ns.
    pub fn rtt_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }
}

/// What one sender observed in one phase.
#[derive(Default)]
pub struct SenderOut {
    /// Answered requests.
    pub answers: Vec<Answer>,
    /// Requests written.
    pub sent: u64,
    /// Error frames received.
    pub errors: u64,
    /// Requests lost to a connection teardown.
    pub lost: u64,
    /// Requests unanswered at the drain deadline.
    pub timeouts: u64,
    /// Connections the server closed mid-phase.
    pub teardowns: u64,
    /// Peak requests outstanding on one connection.
    pub inflight_max: usize,
    /// Sender lateness per request (send minus due), ns.
    pub lags_ns: Vec<u64>,
    /// Fleet location updates checked against a cached region.
    pub updates: u64,
    /// Fleet updates that left the cached region and were sent.
    pub contacts: u64,
    /// Sending stopped early on a growing backlog.
    pub aborted: bool,
    /// The fleet share, handed back for the next phase.
    pub fleet: Option<FleetPart>,
}

/// A request awaiting its response.
struct Pend {
    req: QueryReq,
    due_ns: u64,
    sent_ns: u64,
    encode_ns: u64,
    client: u32,
}

/// State shared by a connection's sender and reader.
struct Shared {
    pending: Mutex<HashMap<u64, Pend>>,
    /// The sender is closing the connection on purpose.
    closing: AtomicBool,
    /// The reader has exited.
    ended: AtomicBool,
    inflight_max: AtomicUsize,
}

impl Shared {
    fn pending(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Pend>> {
        self.pending.lock().expect("a generator thread panicked")
    }
}

struct ReaderOut {
    answers: Vec<Answer>,
    errors: u64,
    lost: u64,
    timeouts: u64,
    teardown: bool,
}

/// A notice to a fleet sender that a client's request completed:
/// with the new region, or `None` when it failed.
type Notice = (u32, Option<Region>);

struct Conn {
    stream: TcpStream,
    shared: Arc<Shared>,
    reader: std::thread::JoinHandle<ReaderOut>,
}

impl Conn {
    fn open(addr: SocketAddr, t0: Instant, trace: bool, notices: mpsc::Sender<Notice>) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
        stream.set_nodelay(true).expect("disable Nagle");
        let shared = Arc::new(Shared {
            pending: Mutex::new(HashMap::new()),
            closing: AtomicBool::new(false),
            ended: AtomicBool::new(false),
            inflight_max: AtomicUsize::new(0),
        });
        let rstream = stream.try_clone().expect("clone the socket");
        let rshared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("loadgen-reader".into())
            .spawn(move || read_loop(rstream, &rshared, t0, trace, &notices))
            .expect("spawn a reader");
        Conn {
            stream,
            shared,
            reader,
        }
    }

    /// Closes the connection on purpose and collects the reader's
    /// record. Requests still outstanding become timeouts.
    fn close(self, out: &mut SenderOut) {
        self.shared.closing.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.collect(out);
    }

    fn collect(self, out: &mut SenderOut) {
        let r = self.reader.join().expect("reader thread panicked");
        out.answers.extend(r.answers);
        out.errors += r.errors;
        out.lost += r.lost;
        out.timeouts += r.timeouts;
        out.teardowns += u64::from(r.teardown);
        out.inflight_max = out
            .inflight_max
            .max(self.shared.inflight_max.load(Ordering::SeqCst));
    }
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

fn read_loop(
    mut stream: TcpStream,
    shared: &Shared,
    t0: Instant,
    trace: bool,
    notices: &mpsc::Sender<Notice>,
) -> ReaderOut {
    let mut out = ReaderOut {
        answers: Vec::new(),
        errors: 0,
        lost: 0,
        timeouts: 0,
        teardown: false,
    };
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut recv_ns = 0u64;
    'conn: loop {
        let mut off = 0;
        loop {
            let t = trace.then(Instant::now);
            let decoded = decode_frame(&buf[off..], DEFAULT_CLIENT_MAX_PAYLOAD);
            let decode_ns = t.map_or(0, |t| ns_since(t, Instant::now()));
            match decoded {
                Ok(Decoded::Frame { frame, consumed }) => {
                    let raw = &buf[off..off + consumed];
                    off += consumed;
                    on_frame(shared, notices, &mut out, frame, raw, recv_ns, decode_ns);
                }
                Ok(Decoded::Unknown { consumed, .. }) => off += consumed,
                Ok(Decoded::Incomplete { .. }) => break,
                Err(_) => break 'conn,
            }
        }
        buf.drain(..off);
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                recv_ns = ns_since(t0, Instant::now());
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
    let closing = shared.closing.load(Ordering::SeqCst);
    let left: Vec<Pend> = shared.pending().drain().map(|(_, p)| p).collect();
    for p in &left {
        let _ = notices.send((p.client, None));
    }
    if closing {
        out.timeouts = left.len() as u64;
    } else {
        out.teardown = true;
        out.lost = left.len() as u64;
    }
    shared.ended.store(true, Ordering::SeqCst);
    out
}

fn on_frame(
    shared: &Shared,
    notices: &mpsc::Sender<Notice>,
    out: &mut ReaderOut,
    frame: Frame,
    raw: &[u8],
    recv_ns: u64,
    decode_ns: u64,
) {
    let (id, tier, query_id, mut ids, region) = match frame {
        Frame::KnnResponse(f) => {
            let ids: Vec<u64> = f.body.result.iter().map(|i| i.id).collect();
            (
                f.request_id,
                f.tier,
                f.query_id,
                ids,
                Region::Knn(f.body.validity),
            )
        }
        Frame::WindowResponse(f) => {
            let ids: Vec<u64> = f.body.result.iter().map(|i| i.id).collect();
            (
                f.request_id,
                f.tier,
                f.query_id,
                ids,
                Region::Window(f.body.validity),
            )
        }
        Frame::Error(e) => {
            out.errors += 1;
            if let Some(p) = shared.pending().remove(&e.request_id) {
                let _ = notices.send((p.client, None));
            }
            return;
        }
        Frame::KnnRequest(_) | Frame::WindowRequest(_) => {
            out.errors += 1;
            return;
        }
    };
    let Some(p) = shared.pending().remove(&id) else {
        out.errors += 1; // a response nobody asked for
        return;
    };
    ids.sort_unstable();
    if p.client != u32::MAX {
        let _ = notices.send((p.client, Some(region)));
    }
    out.answers.push(Answer {
        id,
        req: p.req,
        due_ns: p.due_ns,
        sent_ns: p.sent_ns,
        recv_ns,
        encode_ns: p.encode_ns,
        decode_ns,
        tier,
        query_id,
        ids,
        len: raw.len(),
        frame: (tier == CacheTier::Tree).then(|| raw.to_vec()),
    });
}

/// One sender: a connection plus the bookkeeping of one phase.
struct Sender {
    addr: SocketAddr,
    t0: Instant,
    cfg: PhaseCfg,
    conn: Option<Conn>,
    notices_tx: mpsc::Sender<Notice>,
    next_id: u64,
    buf: Vec<u8>,
    out: SenderOut,
}

impl Sender {
    fn conn(&mut self) -> &Conn {
        let broken = self
            .conn
            .as_ref()
            .is_some_and(|c| c.shared.ended.load(Ordering::SeqCst));
        if broken {
            let old = self.conn.take().expect("checked above");
            old.collect(&mut self.out);
        }
        let (addr, t0, trace) = (self.addr, self.t0, self.cfg.trace);
        let tx = self.notices_tx.clone();
        self.conn
            .get_or_insert_with(|| Conn::open(addr, t0, trace, tx))
    }

    /// Sends `req`, due at `due_ns`, on behalf of fleet client `client`
    /// (`u32::MAX` for stream requests).
    fn send(&mut self, req: QueryReq, due_ns: u64, client: u32) {
        let id = self.next_id;
        self.next_id += 1;
        self.buf.clear();
        let t = self.cfg.trace.then(Instant::now);
        encode_frame(&query_request(id, &req), &mut self.buf).expect("requests always encode");
        let encode_ns = t.map_or(0, |t| ns_since(t, Instant::now()));
        let sent = Instant::now();
        let sent_ns = ns_since(self.t0, sent);
        self.out.lags_ns.push(sent_ns.saturating_sub(due_ns));
        let abort = self.cfg.abort_inflight;
        let buf = std::mem::take(&mut self.buf);
        let conn = self.conn();
        let inflight = {
            let mut pending = conn.shared.pending();
            pending.insert(
                id,
                Pend {
                    req,
                    due_ns,
                    sent_ns,
                    encode_ns,
                    client,
                },
            );
            pending.len()
        };
        conn.shared
            .inflight_max
            .fetch_max(inflight, Ordering::SeqCst);
        // A failed write means the server closed the connection: the
        // reader sees the close and counts this request as lost.
        if (&conn.stream).write_all(&buf).is_err() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.buf = buf;
        self.out.sent += 1;
        if inflight >= abort {
            self.out.aborted = true;
        }
    }

    /// Waits for the outstanding responses (at most [`DRAIN_TIMEOUT`]),
    /// then closes the connection.
    fn finish(&mut self, notices: &mpsc::Receiver<Notice>, fleet: &mut Option<FleetPart>) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        if let Some(conn) = self.conn.take() {
            loop {
                let empty = conn.shared.pending().is_empty();
                if empty || conn.shared.ended.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            conn.close(&mut self.out);
        }
        if let Some(f) = fleet {
            apply_notices(f, notices, &mut []);
        }
    }
}

/// Applies completed-request notices to the fleet's caches and clears
/// the clients' in-flight marks.
fn apply_notices(f: &mut FleetPart, notices: &mpsc::Receiver<Notice>, inflight: &mut [bool]) {
    while let Ok((c, region)) = notices.try_recv() {
        let c = c as usize;
        if let Some(r) = region {
            f.cached[c] = Some(r);
        }
        if let Some(flag) = inflight.get_mut(c) {
            *flag = false;
        }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn run_sender(addr: SocketAddr, t0: Instant, cfg: PhaseCfg, source: Source) -> SenderOut {
    let (tx, rx) = mpsc::channel();
    let mut s = Sender {
        addr,
        t0,
        cfg,
        conn: None,
        notices_tx: tx,
        next_id: 1,
        buf: Vec::with_capacity(64),
        out: SenderOut::default(),
    };
    let mut fleet = None;
    match source {
        Source::Stream(schedule) => {
            for (due, req) in schedule {
                if due >= cfg.duration_ns || s.out.aborted {
                    break;
                }
                sleep_until(t0 + Duration::from_nanos(due));
                s.send(req, due, u32::MAX);
            }
        }
        Source::Fleet(mut f) => {
            let n = f.clients.len();
            let mut inflight = vec![false; n];
            for seq in 0u64.. {
                if n == 0 || s.out.aborted {
                    break;
                }
                let c = (seq % n as u64) as usize;
                let round = seq / n as u64;
                let due = (f.clients[c].phase * f.period_ns as f64) as u64 + round * f.period_ns;
                if due >= cfg.duration_ns {
                    break;
                }
                sleep_until(t0 + Duration::from_nanos(due));
                apply_notices(&mut f, &rx, &mut inflight);
                f.clients[c].advance(&f.data);
                if inflight[c] {
                    continue;
                }
                s.out.updates += 1;
                let pos = f.clients[c].pos;
                if f.cached[c].as_ref().is_some_and(|r| r.contains(pos)) {
                    continue;
                }
                s.out.contacts += 1;
                inflight[c] = true;
                s.send(f.clients[c].request(), due, c as u32);
            }
            fleet = Some(f);
        }
    }
    s.finish(&rx, &mut fleet);
    s.out.fleet = fleet;
    s.out
}

/// Runs one phase: one sender thread and one connection per source,
/// all timed from a common start.
pub fn run_phase(addr: SocketAddr, sources: Vec<Source>, cfg: PhaseCfg) -> Vec<SenderOut> {
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|d| {
                std::thread::Builder::new()
                    .name("loadgen-sender".into())
                    .spawn_scoped(scope, move || run_sender(addr, t0, cfg, d))
                    .expect("spawn a sender")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    })
}

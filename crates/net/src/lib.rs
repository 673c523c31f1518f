//! # lbq-net — the TCP front-end
//!
//! Turns the in-process [`lbq_serve::Engine`] into a network service
//! speaking the `lbq-proto` wire format (normative spec:
//! `docs/PROTOCOL.md`). std-only, zero dependencies, threads all the
//! way down:
//!
//! * an **accept loop** hands each connection a dedicated
//!   reader/writer thread pair (`server` module);
//! * each **reader serves its own requests**: every complete frame in
//!   its read buffer is decoded and submitted as one
//!   [`lbq_serve::Engine::submit`] batch, and the encoded responses go
//!   to the connection's writer. Batch size follows load with no timer
//!   — a lone request goes straight to the engine, a pipelined burst
//!   rides one Hilbert-tiled batch, and concurrent connections keep
//!   every engine worker busy;
//! * **graceful shutdown** answers every decoded request and flushes
//!   every connection before a single thread is abandoned;
//! * per-connection **limits** (in-flight budget, request payload cap)
//!   turn resource abuse into protocol-error teardown, so a client that
//!   never reads its responses costs the server at most
//!   [`NetConfig::max_inflight`] queued frames.
//!
//! ## Observability
//!
//! `net-accepts` / `net-frames-in` / `net-frames-out` (frames written
//! to sockets) / `net-protocol-errors` counters, a `net-active-conns`
//! gauge, a `net-coalesce-batch` histogram (requests per engine submit
//! made by the front end), and a `net-socket-latency` histogram
//! (frame-decoded → response-queued, the server-side slice of a
//! client's round trip) — all in the global [`lbq_obs`] registry, and
//! in every exporter snapshot.
//!
//! # Example
//!
//! ```
//! use lbq_core::LbqServer;
//! use lbq_geom::{Point, Rect};
//! use lbq_net::{NetClient, NetConfig, NetServer};
//! use lbq_rtree::{Item, RTree, RTreeConfig};
//! use lbq_serve::{Engine, EngineConfig, QueryReq};
//! use lbq_proto::Frame;
//! use std::sync::Arc;
//!
//! let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
//! let items: Vec<Item> = (0..100)
//!     .map(|i| Item::new(Point::new((i % 10) as f64, (i / 10) as f64), i))
//!     .collect();
//! let engine = Arc::new(Engine::new(
//!     Arc::new(LbqServer::new(RTree::bulk_load(items, RTreeConfig::tiny()), universe)),
//!     EngineConfig::default(),
//! ));
//! let mut server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! client.send_query(7, &QueryReq::knn(Point::new(4.2, 5.1), 3)).unwrap();
//! match client.recv().unwrap() {
//!     Frame::KnnResponse(resp) => {
//!         assert_eq!(resp.request_id, 7);
//!         assert_eq!(resp.body.result.len(), 3);
//!         assert!(resp.body.validity.contains(Point::new(4.2, 5.1)));
//!     }
//!     other => panic!("unexpected frame {other:?}"),
//! }
//! server.shutdown();
//! ```

mod client;
mod server;

pub use client::NetClient;
pub use server::NetServer;

/// Capacity hint for freshly-encoded response frames (a typical kNN
/// response with a handful of influence pairs).
pub(crate) const RESPONSE_CAPACITY_HINT: usize = 512;

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Per-connection in-flight budget: frames decoded and owed a reply
    /// whose reply is not yet written to the socket. Exceeding it is a
    /// protocol error that tears the connection down
    /// ([`lbq_proto::ErrorCode::TooManyInFlight`]); it also bounds the
    /// outbound queue of a client that stops reading.
    pub max_inflight: usize,
    /// Payload cap applied to incoming frames
    /// ([`lbq_proto::DEFAULT_SERVER_MAX_PAYLOAD`] by default; request
    /// frames are ≤ 40 bytes, the headroom is for skippable future
    /// frame types).
    pub max_request_payload: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_inflight: 1024,
            max_request_payload: lbq_proto::DEFAULT_SERVER_MAX_PAYLOAD,
        }
    }
}

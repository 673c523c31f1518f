//! Loopback integration tests: real sockets against a real engine —
//! the byte-identical serving contract, per-read batching, protocol-
//! error teardown, forward compatibility, per-connection limits, and
//! graceful shutdown.
//!
//! Tests that need several requests in flight at once send them in a
//! single write: the server's reader decodes a whole read buffer before
//! it serves, so one write of a few hundred bytes is one batch.

use lbq_core::LbqServer;
use lbq_geom::{Point, Rect};
use lbq_net::{NetClient, NetConfig, NetServer};
use lbq_proto::{encode_frame, encode_query_response, query_request, ErrorCode, Frame};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, RTree, RTreeConfig};
use lbq_serve::{answer_on, CacheConfig, Engine, EngineConfig, QueryReq, QueryResp};
use std::sync::Arc;

const UNIVERSE: Rect = Rect {
    xmin: 0.0,
    ymin: 0.0,
    xmax: 100.0,
    ymax: 100.0,
};

fn make_server(n: usize, seed: u64) -> Arc<LbqServer> {
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let items: Vec<Item> = (0..n)
        .map(|i| {
            Item::new(
                Point::new(rng.gen_f64() * 100.0, rng.gen_f64() * 100.0),
                i as u64,
            )
        })
        .collect();
    Arc::new(LbqServer::new(
        RTree::bulk_load(items, RTreeConfig::default()),
        UNIVERSE,
    ))
}

/// Engine with the validity cache disabled: every response is a fresh
/// miss, so its answer is the pure function of the request that the
/// byte-identical assertions need (a cache or hot-tier hit would
/// anchor the answer at the *original* query's focus).
fn make_engine(server: &Arc<LbqServer>, workers: usize) -> Arc<Engine> {
    Arc::new(Engine::new(
        Arc::clone(server),
        EngineConfig {
            workers,
            cache: CacheConfig::disabled(),
            tile_size: 8,
            hot: lbq_serve::HotConfig::disabled(),
        },
    ))
}

fn rand_query(rng: &mut Xoshiro256ss) -> QueryReq {
    if rng.gen_bool(0.5) {
        QueryReq::knn(
            Point::new(rng.gen_f64() * 100.0, rng.gen_f64() * 100.0),
            1 + rng.gen_index(8),
        )
    } else {
        QueryReq::window(
            Point::new(rng.gen_f64() * 100.0, rng.gen_f64() * 100.0),
            0.5 + rng.gen_f64() * 5.0,
            0.5 + rng.gen_f64() * 5.0,
        )
    }
}

/// The in-process bytes the byte-identical contract promises for
/// `req`: the baseline answer, encoded exactly as the server encodes
/// it. `query_id` is engine-assigned (scheduling-dependent under
/// concurrency), so it is taken from the received frame; `worker` and
/// `latency_ns` are not on the wire at all; stages are zero because
/// recording is off.
fn expected_bytes(server: &LbqServer, req: &QueryReq, request_id: u64, query_id: u64) -> Vec<u8> {
    let resp = QueryResp {
        answer: Arc::new(answer_on(server, req)),
        from_cache: false,
        tier: lbq_serve::CacheTier::Tree,
        worker: usize::MAX,   // not on the wire
        latency_ns: u64::MAX, // not on the wire
        query_id,
        stages: Default::default(),
    };
    let mut out = Vec::new();
    encode_query_response(request_id, &resp, &mut out).expect("encode");
    out
}

fn frame_query_id(frame: &Frame) -> u64 {
    match frame {
        Frame::KnnResponse(r) => r.query_id,
        Frame::WindowResponse(r) => r.query_id,
        other => panic!("expected a response frame, got {other:?}"),
    }
}

/// `reqs` encoded back to back, to go out in one write.
fn pipelined_bytes(reqs: &[(u64, QueryReq)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (id, req) in reqs {
        encode_frame(&query_request(*id, req), &mut bytes).expect("encode request");
    }
    bytes
}

#[test]
fn single_client_byte_identical_roundtrip() {
    let server = make_server(400, 11);
    let mut net = NetServer::bind("127.0.0.1:0", make_engine(&server, 2), NetConfig::default())
        .expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let mut rng = Xoshiro256ss::seed_from_u64(77);
    for request_id in 0..50u64 {
        let req = rand_query(&mut rng);
        client.send_query(request_id, &req).expect("send");
        let (frame, raw) = client.recv_raw().expect("recv");
        assert_eq!(frame.request_id(), request_id);
        let expected = expected_bytes(&server, &req, request_id, frame_query_id(&frame));
        assert_eq!(
            raw, expected,
            "socket bytes differ from in-process encoding"
        );
    }
    net.shutdown();
}

#[test]
fn multi_connection_pipelined_coalescing() {
    let server = make_server(600, 22);
    let net = NetServer::bind("127.0.0.1:0", make_engine(&server, 4), NetConfig::default())
        .expect("bind");
    let addr = net.local_addr();
    let server = Arc::new(server);
    let handles: Vec<_> = (0..8u64)
        .map(|c| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut rng = Xoshiro256ss::seed_from_u64(1000 + c);
                let mut client = NetClient::connect(addr).expect("connect");
                let reqs: Vec<(u64, QueryReq)> = (0..25u64)
                    .map(|i| (c << 32 | i, rand_query(&mut rng)))
                    .collect();
                // Pipeline everything in one write, half-close, then read
                // it all back.
                client.send_raw(&pipelined_bytes(&reqs)).expect("send");
                client.shutdown_write().expect("half-close");
                let mut seen = std::collections::HashMap::new();
                for _ in 0..reqs.len() {
                    let (frame, raw) = client.recv_raw().expect("recv");
                    seen.insert(frame.request_id(), (frame_query_id(&frame), raw));
                }
                // Every request is answered exactly once, byte-identically.
                assert_eq!(seen.len(), reqs.len());
                for (id, req) in &reqs {
                    let (qid, raw) = &seen[id];
                    assert_eq!(raw, &expected_bytes(&server, req, *id, *qid));
                }
                // The burst rode one engine batch: a submit numbers its
                // requests with consecutive query ids, in request order,
                // while the other connections submit concurrently.
                let first = seen[&reqs[0].0].0;
                for (i, (id, _)) in reqs.iter().enumerate() {
                    assert_eq!(seen[id].0, first + i as u64, "burst split across submits");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    drop(net); // shutdown-on-drop with already-drained connections
}

#[test]
fn malformed_frame_answers_then_tears_down() {
    let server = make_server(100, 33);
    let net = NetServer::bind("127.0.0.1:0", make_engine(&server, 1), NetConfig::default())
        .expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    client
        .send_raw(b"XXXX\x01\x10\x00\x00\x1c\x00\x00\x00")
        .expect("send");
    let frame = client.recv().expect("error frame must arrive before FIN");
    let Frame::Error(e) = frame else {
        panic!("expected an error frame, got {frame:?}")
    };
    assert_eq!(e.code, ErrorCode::BadMagic as u32);
    // The connection is gone: the next read hits EOF.
    let err = client.recv().expect_err("connection must be closed");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn unknown_frame_type_is_survivable() {
    let server = make_server(100, 44);
    let net = NetServer::bind("127.0.0.1:0", make_engine(&server, 1), NetConfig::default())
        .expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    // An unknown-but-well-framed type 0x55 with request_id 9 and an
    // 8-byte payload: the server must skip it, answer with
    // UnknownFrameType, and keep serving.
    let mut raw = Vec::new();
    raw.extend_from_slice(b"LBQ1");
    raw.push(1); // version
    raw.push(0x55);
    raw.extend_from_slice(&[0, 0]);
    raw.extend_from_slice(&8u32.to_le_bytes());
    raw.extend_from_slice(&9u64.to_le_bytes());
    client.send_raw(&raw).expect("send");
    let Frame::Error(e) = client.recv().expect("recv") else {
        panic!("expected an error frame")
    };
    assert_eq!(e.code, ErrorCode::UnknownFrameType as u32);
    assert_eq!(e.request_id, 9, "the unknown frame's id is echoed");
    // Still alive:
    client
        .send_query(10, &QueryReq::knn(Point::new(50.0, 50.0), 2))
        .expect("send");
    let frame = client.recv().expect("recv");
    assert_eq!(frame.request_id(), 10);
    assert!(matches!(frame, Frame::KnnResponse(_)));
}

#[test]
fn invalid_request_is_recoverable() {
    let server = make_server(100, 55);
    let net = NetServer::bind("127.0.0.1:0", make_engine(&server, 1), NetConfig::default())
        .expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    // k = 0 is semantically invalid: rejected, connection survives.
    client
        .send_frame(&Frame::KnnRequest(lbq_proto::KnnRequest {
            request_id: 1,
            q: Point::new(1.0, 1.0),
            k: 0,
        }))
        .expect("send");
    let Frame::Error(e) = client.recv().expect("recv") else {
        panic!("expected an error frame")
    };
    assert_eq!(e.code, ErrorCode::InvalidRequest as u32);
    assert_eq!(e.request_id, 1);
    client
        .send_query(2, &QueryReq::window(Point::new(30.0, 30.0), 4.0, 4.0))
        .expect("send");
    assert_eq!(client.recv().expect("recv").request_id(), 2);
}

#[test]
fn inflight_budget_overflow_tears_down() {
    let server = make_server(100, 66);
    let cfg = NetConfig {
        max_inflight: 3,
        ..NetConfig::default()
    };
    let net = NetServer::bind("127.0.0.1:0", make_engine(&server, 1), cfg).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    // The flood goes out in one write, so the server's first read
    // decodes ten requests against a budget of three.
    let flood: Vec<(u64, QueryReq)> = (0..10u64)
        .map(|id| (id, QueryReq::knn(Point::new(5.0, 5.0), 1)))
        .collect();
    client.send_raw(&pipelined_bytes(&flood)).expect("send");
    // Somewhere in the stream of replies there must be the budget error.
    let mut saw_budget_error = false;
    let mut answered = 0;
    loop {
        match client.recv() {
            Ok(Frame::Error(e)) => {
                assert_eq!(e.code, ErrorCode::TooManyInFlight as u32);
                saw_budget_error = true;
            }
            Ok(_) => answered += 1, // responses to the requests that fit the budget
            Err(_) => break,
        }
    }
    assert!(saw_budget_error, "expected a TooManyInFlight error frame");
    // The requests decoded before the fatal frame are still answered.
    assert_eq!(answered, 3, "the requests within the budget are answered");
}

#[test]
fn graceful_shutdown_answers_everything_accepted() {
    let server = make_server(300, 88);
    let mut net = NetServer::bind("127.0.0.1:0", make_engine(&server, 2), NetConfig::default())
        .expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let mut rng = Xoshiro256ss::seed_from_u64(99);
    let reqs: Vec<(u64, QueryReq)> = (0..20u64).map(|i| (i, rand_query(&mut rng))).collect();
    client.send_raw(&pipelined_bytes(&reqs)).expect("send");
    // Shutdown only guarantees *accepted* (decoded) requests are
    // answered. The one write is one read, served as one batch whose
    // responses are queued together: the first response proves the
    // server accepted all twenty. Shutdown then races the writer.
    let first = client.recv().expect("first response");
    assert!(!matches!(first, Frame::Error(_)), "unexpected {first:?}");
    net.shutdown();
    let mut seen = std::collections::HashSet::from([first.request_id()]);
    for _ in 1..reqs.len() {
        let frame = client.recv().expect("every accepted request is answered");
        assert!(!matches!(frame, Frame::Error(_)), "unexpected {frame:?}");
        seen.insert(frame.request_id());
    }
    assert_eq!(seen.len(), reqs.len());
    assert_eq!(
        client.recv().expect_err("then the server closes").kind(),
        std::io::ErrorKind::UnexpectedEof
    );
}

#[test]
fn clean_eof_lingers_for_inflight_responses() {
    let server = make_server(200, 111);
    let net = NetServer::bind("127.0.0.1:0", make_engine(&server, 1), NetConfig::default())
        .expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let reqs: Vec<(u64, QueryReq)> = (0..5u64)
        .map(|id| (id, QueryReq::knn(Point::new(10.0 + id as f64, 20.0), 3)))
        .collect();
    client.send_raw(&pipelined_bytes(&reqs)).expect("send");
    // Half-close at once, before reading anything: the server sees the
    // EOF with the five responses in flight (being served, or queued
    // and not yet written), and must deliver all of them before it
    // closes.
    client.shutdown_write().expect("half-close");
    let mut seen = std::collections::HashSet::new();
    for _ in 0..5 {
        seen.insert(client.recv().expect("recv").request_id());
    }
    assert_eq!(seen.len(), 5);
    drop(net);
}

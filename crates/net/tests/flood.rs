//! A client that floods requests and never reads its responses. The
//! in-flight budget counts a reply until it is written to the socket,
//! so once the socket buffers fill the budget trips and the server
//! tears the connection down, holding at most the budget meanwhile.
//!
//! Own integration-test process: it reads the process-global
//! `net-*` counters, which no other test may bump.

use lbq_core::LbqServer;
use lbq_geom::{Point, Rect};
use lbq_net::{NetConfig, NetServer};
use lbq_proto::{encode_frame, query_request};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, RTree, RTreeConfig};
use lbq_serve::{CacheConfig, Engine, EngineConfig, HotConfig, QueryReq};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn client_that_never_reads_is_torn_down_within_budget() {
    const BUDGET: usize = 64;
    let mut rng = Xoshiro256ss::seed_from_u64(5);
    let items: Vec<Item> = (0..400)
        .map(|i| Item::new(Point::new(rng.gen_f64() * 20.0, rng.gen_f64() * 20.0), i))
        .collect();
    let server = Arc::new(LbqServer::new(
        RTree::bulk_load(items, RTreeConfig::default()),
        Rect::new(0.0, 0.0, 20.0, 20.0),
    ));
    let engine = Arc::new(Engine::new(
        server,
        EngineConfig {
            workers: 1,
            cache: CacheConfig::disabled(),
            tile_size: 8,
            hot: HotConfig::disabled(),
        },
    ));
    let cfg = NetConfig {
        max_inflight: BUDGET,
        ..NetConfig::default()
    };
    let net = NetServer::bind("127.0.0.1:0", engine, cfg).expect("bind");
    let protocol_errors = lbq_obs::counter("net-protocol-errors");
    let frames_in = lbq_obs::counter("net-frames-in");
    let frames_out = lbq_obs::counter("net-frames-out");

    // Paced bursts of `BUDGET / 8` requests: the reader normally serves
    // each long before the next arrives, so the budget trips on replies
    // the server cannot write. A reader that falls behind instead trips
    // it on one read of more than `BUDGET` frames; the assertions below
    // hold either way.
    let mut burst = Vec::new();
    for i in 0..BUDGET as u64 / 8 {
        let req = QueryReq::window(Point::new(1.0 + 2.0 * i as f64, 7.5), 4.0, 4.0);
        encode_frame(&query_request(i, &req), &mut burst).expect("encode");
    }
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    // No Nagle: each burst leaves as its own segment.
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .expect("write timeout");
    // Flood until the server tears the connection down. Replies of
    // ~2 KB fill the socket buffers within a few thousand requests; a
    // server that never trips lets the cap (40k requests) end the flood.
    let mut bursts = 0u64;
    while protocol_errors.get() == 0 && bursts < 5_000 && stream.write_all(&burst).is_ok() {
        bursts += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        protocol_errors.get(),
        1,
        "one TooManyInFlight teardown after {bursts} bursts"
    );
    // The reader stopped at the frame that tripped the budget; every
    // decoded frame is owed a reply, the error frame included. All but
    // the budget's worth of answers (plus that error frame) are written.
    let unwritten = frames_in.get() - frames_out.get();
    assert!(
        unwritten <= BUDGET as u64 + 1,
        "server held {unwritten} unwritten replies, budget {BUDGET}"
    );
    // Dropping the unread socket resets the connection, which unblocks
    // the server's writer for the shutdown below.
    drop(stream);
    drop(net);
}

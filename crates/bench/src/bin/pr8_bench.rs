//! Loopback fleet harness for the network serving stack
//! (`lbq-proto` + `lbq-net`), emitting machine-readable
//! `BENCH_PR8.json`.
//!
//! The contract under test: a response served over TCP is **byte
//! identical** to the in-process encoding of the baseline answer —
//! `encode_query_response(request_id, resp)` is a pure function of the
//! request (cache disabled, stages unrecorded, `query_id` engine-
//! assigned), so the socket adds transport and nothing else.
//!
//! The harness binds a loopback server, drives a fleet of pipelined
//! client connections through real sockets, verifies every response
//! byte-for-byte against [`lbq_serve::answer_on`], and reports
//! throughput plus the server-side `net-socket-latency` percentiles
//! (frame decoded → response queued) and batch-size stats (requests
//! per front-end engine submit) straight out of the `lbq-obs` registry.
//!
//! Modes:
//!
//! * default (full): 32 connections × 320 requests = 10 240 requests
//!   against a 100 k-point NA-like dataset; writes `BENCH_PR8.json`;
//! * `--quick`: 8 × 64 = 512 requests on a 10 k-point dataset for CI;
//!   writes `target/BENCH_PR8.quick.json`;
//! * `--check <file>`: parses an existing report and asserts the
//!   schema; no serving.

use lbq_bench::jsonv::{self, Json};
use lbq_core::LbqServer;
use lbq_data::na_like_sized;
use lbq_geom::Point;
use lbq_net::{NetClient, NetConfig, NetServer};
use lbq_obs::{metrics_snapshot, HistogramSummary, MetricValue};
use lbq_proto::{encode_query_response, Frame};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{RTree, RTreeConfig};
use lbq_serve::{answer_on, CacheConfig, Engine, EngineConfig, QueryReq, QueryResp};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

struct Report {
    mode: &'static str,
    n: usize,
    connections: u64,
    per_connection: u64,
    requests: u64,
    byte_identical: u64,
    elapsed_s: f64,
    socket_latency: HistogramSummary,
    coalesce: HistogramSummary,
    frames_in: u64,
    frames_out: u64,
    accepts: u64,
    protocol_errors: u64,
}

impl Report {
    fn qps(&self) -> f64 {
        // lbq-check: allow(local-epsilon) — divide-by-zero floor, not a tolerance
        self.requests as f64 / self.elapsed_s.max(1e-9)
    }
}

fn counter_value(snapshot: &[(&str, MetricValue)], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| match v {
            MetricValue::Counter(c) => *c,
            MetricValue::Gauge(g) => u64::try_from(*g).unwrap_or(0),
            MetricValue::Histogram(_) => 0,
        })
}

fn histogram_value(snapshot: &[(&str, MetricValue)], name: &str) -> HistogramSummary {
    snapshot
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, v)| match v {
            MetricValue::Histogram(h) => Some(*h),
            _ => None,
        })
        .unwrap_or_default()
}

fn run(quick: bool) -> Report {
    let (n, connections, per_connection) = if quick {
        (10_000usize, 8u64, 64u64)
    } else {
        (100_000usize, 32u64, 320u64)
    };
    let requests = connections * per_connection;
    println!(
        "pr8_bench: n={n}, {connections} connections × {per_connection} requests = {requests}"
    );

    let data = na_like_sized(n, 42);
    let server = Arc::new(LbqServer::new(
        RTree::bulk_load_packed(data.items.clone(), RTreeConfig::paper()),
        data.universe,
    ));
    // Cache and hot tier disabled: a hit on either anchors its answer
    // at the *original* query's focus — correct, but not bit-comparable
    // to the fresh baseline. With both off, every response is the pure
    // function of its request that the byte-identical contract is
    // stated over.
    let engine = Arc::new(Engine::new(
        Arc::clone(&server),
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(2, |w| w.get().min(8)),
            cache: CacheConfig::disabled(),
            tile_size: 32,
            hot: lbq_serve::HotConfig::disabled(),
        },
    ));
    let mut net =
        NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).expect("bind loopback");
    let addr = net.local_addr();
    let universe = data.universe;
    let span = (universe.xmax - universe.xmin, universe.ymax - universe.ymin);

    let start = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = Xoshiro256ss::seed_from_u64(0x8_BE0C_0DE + c);
                let mut client = NetClient::connect(addr).expect("connect");
                let reqs: Vec<(u64, QueryReq)> = (0..per_connection)
                    .map(|i| {
                        let p = Point::new(
                            universe.xmin + rng.gen_f64() * span.0,
                            universe.ymin + rng.gen_f64() * span.1,
                        );
                        let req = if rng.gen_bool(0.5) {
                            QueryReq::knn(p, 1 + rng.gen_index(10))
                        } else {
                            QueryReq::window(
                                p,
                                span.0 * 0.002 * (0.2 + rng.gen_f64()),
                                span.1 * 0.002 * (0.2 + rng.gen_f64()),
                            )
                        };
                        ((c << 32) | i, req)
                    })
                    .collect();
                // The pipelined fleet pattern: send everything,
                // half-close, read everything back.
                for (id, req) in &reqs {
                    client.send_query(*id, req).expect("send");
                }
                client.shutdown_write().expect("half-close");
                let mut seen: HashMap<u64, (Frame, Vec<u8>)> = HashMap::new();
                for _ in 0..reqs.len() {
                    let (frame, raw) = client.recv_raw().expect("recv");
                    seen.insert(frame.request_id(), (frame, raw));
                }
                (reqs, seen)
            })
        })
        .collect();
    let received: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed_s = start.elapsed().as_secs_f64();
    net.shutdown();

    // Verification outside the timed window: every response byte equals
    // the in-process encoding of the baseline answer.
    let mut byte_identical = 0u64;
    for (reqs, seen) in &received {
        assert_eq!(seen.len(), reqs.len(), "a request went unanswered");
        for (id, req) in reqs {
            let (frame, raw) = &seen[id];
            let query_id = match frame {
                Frame::KnnResponse(r) => r.query_id,
                Frame::WindowResponse(r) => r.query_id,
                other => panic!("request {id}: unexpected frame {other:?}"),
            };
            let resp = QueryResp {
                answer: Arc::new(answer_on(&server, req)),
                from_cache: false,
                tier: lbq_serve::CacheTier::Tree,
                worker: 0,     // not on the wire
                latency_ns: 0, // not on the wire
                query_id,
                stages: Default::default(),
            };
            let mut expected = Vec::new();
            encode_query_response(*id, &resp, &mut expected).expect("encode baseline");
            assert_eq!(
                raw, &expected,
                "request {id}: socket bytes differ from the in-process encoding"
            );
            byte_identical += 1;
        }
    }
    assert_eq!(byte_identical, requests);

    let snapshot = metrics_snapshot();
    Report {
        mode: if quick { "quick" } else { "full" },
        n,
        connections,
        per_connection,
        requests,
        byte_identical,
        elapsed_s,
        socket_latency: histogram_value(&snapshot, "net-socket-latency"),
        coalesce: histogram_value(&snapshot, "net-coalesce-batch"),
        frames_in: counter_value(&snapshot, "net-frames-in"),
        frames_out: counter_value(&snapshot, "net-frames-out"),
        accepts: counter_value(&snapshot, "net-accepts"),
        protocol_errors: counter_value(&snapshot, "net-protocol-errors"),
    }
}

fn render_json(r: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr8-network-serving\",\n");
    s.push_str(&format!("  \"mode\": \"{}\",\n", r.mode));
    s.push_str(&format!(
        "  \"dataset\": {{\"n\": {}, \"connections\": {}, \"per_connection\": {}}},\n",
        r.n, r.connections, r.per_connection
    ));
    s.push_str(&format!(
        "  \"fleet\": {{\"requests\": {}, \"byte_identical\": {}, \"elapsed_s\": {:.3}, \"qps\": {:.0}}},\n",
        r.requests,
        r.byte_identical,
        r.elapsed_s,
        r.qps()
    ));
    s.push_str(&format!(
        "  \"socket_latency_ns\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}}},\n",
        r.socket_latency.count,
        r.socket_latency.p50_ns,
        r.socket_latency.p95_ns,
        r.socket_latency.p99_ns,
        r.socket_latency.mean_ns
    ));
    s.push_str(&format!(
        "  \"coalesce\": {{\"batches\": {}, \"mean_batch\": {}, \"p99_batch\": {}}},\n",
        r.coalesce.count, r.coalesce.mean_ns, r.coalesce.p99_ns
    ));
    s.push_str(&format!(
        "  \"counters\": {{\"accepts\": {}, \"frames_in\": {}, \"frames_out\": {}, \"protocol_errors\": {}}},\n",
        r.accepts, r.frames_in, r.frames_out, r.protocol_errors
    ));
    s.push_str("  \"equivalence\": {\"socket_vs_in_process\": \"byte-identical\"}\n");
    s.push_str("}\n");
    s
}

/// `--check`: the report must be valid JSON with the fleet block (all
/// requests byte-identical), socket-latency percentiles, batch-size
/// stats, and the counter block.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = jsonv::parse(&text)?;
    if v.get("bench").and_then(Json::as_str) != Some("pr8-network-serving") {
        return Err("not a pr8-network-serving report".into());
    }
    let fleet = v.get("fleet").ok_or("missing fleet block")?;
    for field in ["requests", "byte_identical", "elapsed_s", "qps"] {
        if fleet.get(field).and_then(Json::as_f64).is_none() {
            return Err(format!("fleet block missing numeric field {field:?}"));
        }
    }
    let requests = fleet.get("requests").and_then(Json::as_f64).unwrap_or(0.0);
    let identical = fleet
        .get("byte_identical")
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    if identical != requests {
        return Err(format!(
            "byte_identical ({identical}) != requests ({requests})"
        ));
    }
    if v.get("mode").and_then(Json::as_str) == Some("full") && requests < 10_000.0 {
        return Err(format!(
            "full mode must drive ≥ 10 000 requests, got {requests}"
        ));
    }
    let lat = v
        .get("socket_latency_ns")
        .ok_or("missing socket_latency_ns")?;
    for field in ["count", "p50", "p95", "p99", "mean"] {
        if lat.get(field).and_then(Json::as_f64).is_none() {
            return Err(format!("socket_latency_ns missing field {field:?}"));
        }
    }
    for block in ["coalesce", "counters", "equivalence"] {
        if v.get(block).is_none() {
            return Err(format!("missing {block} block"));
        }
    }
    println!("pr8_bench --check {path}: ok ({requests} requests, all byte-identical)");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_PR8.json");
        if let Err(e) = check(path) {
            eprintln!("pr8_bench --check failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let report = run(quick);

    println!(
        "fleet: {} requests in {:.2}s ({:.0} q/s), {} byte-identical",
        report.requests,
        report.elapsed_s,
        report.qps(),
        report.byte_identical
    );
    println!(
        "socket latency: p50 {}ns p95 {}ns p99 {}ns mean {}ns (n={})",
        report.socket_latency.p50_ns,
        report.socket_latency.p95_ns,
        report.socket_latency.p99_ns,
        report.socket_latency.mean_ns,
        report.socket_latency.count
    );
    println!(
        "batching: {} submits, mean size {}, p99 size {}",
        report.coalesce.count, report.coalesce.mean_ns, report.coalesce.p99_ns
    );

    let out = if quick {
        std::path::PathBuf::from("target/BENCH_PR8.quick.json")
    } else {
        std::path::PathBuf::from("BENCH_PR8.json")
    };
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let rendered = render_json(&report);
    jsonv::validate(&rendered).expect("harness emits valid JSON");
    std::fs::write(&out, rendered).expect("writing bench report");
    println!("wrote {}", out.display());
}

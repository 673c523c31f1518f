//! The traced run's spans and its per-layer replay.
//!
//! Spans are recorded by the benchmark's own code around calls into
//! each layer's public entry points: a span has a name, a start, an
//! end, a parent and a request id. They are kept in memory and written
//! out as JSON lines at the end. A layer's self time is its span's
//! duration minus the part of it that its child spans cover.

use crate::loadgen::Answer;
use crate::stats;
use crate::workload::WINDOW_HALF_SHARE;
use lbq_core::LbqServer;
use lbq_geom::{Point, Rect};
use lbq_obs::Heatmap;
use lbq_rtree::hilbert::{hilbert_key, tile_rect, KEY_ORDER};
use lbq_rtree::QueryScratch;
use lbq_serve::{Engine, EngineConfig, QueryReq};
use lbq_voronoi::Delaunay;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Hilbert prefix bits of one hot-tier tile (4096 tiles).
const TILE_BITS: u32 = lbq_obs::HEATMAP_SLOTS.trailing_zeros();
/// The hot tier's default fetch margin, as a share of the tile side.
const HOT_MARGIN: f64 = 0.5;
/// Group size of the Hilbert-tiled group kNN replay (the engine's
/// default tile size).
const GROUP: usize = 32;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `rtree.knn`.
    pub name: &'static str,
    /// Start, ns from the tracer's origin.
    pub start_ns: u64,
    /// End, ns from the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request (or batch) the span belongs to.
    pub req: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span whose times were taken elsewhere; returns its
    /// index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as span `name` of request `req`.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            req,
        });
        out
    }

    /// Self time of every span, ns, grouped by span name.
    pub fn self_times(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let (mut cover, mut reach) = (0u64, s.start_ns);
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    cover += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(cover);
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// Records the socket phase's spans: a `net.rtt` root per answered
/// request (due to receive) with its `proto.encode_req` and
/// `proto.decode_resp` children. Times are relative to the phase start.
pub fn record_socket_spans(tracer: &mut Tracer, answers: &[Answer]) {
    for a in answers {
        let root = tracer.push(Span {
            name: "net.rtt",
            start_ns: a.due_ns,
            end_ns: a.recv_ns.max(a.due_ns),
            parent: None,
            req: a.id,
        });
        let encode_start = a.sent_ns.saturating_sub(a.encode_ns);
        tracer.push(Span {
            name: "proto.encode_req",
            start_ns: encode_start,
            end_ns: a.sent_ns,
            parent: Some(root),
            req: a.id,
        });
        tracer.push(Span {
            name: "proto.decode_resp",
            start_ns: a.recv_ns,
            end_ns: a.recv_ns + a.decode_ns,
            parent: Some(root),
            req: a.id,
        });
    }
}

/// Numbers the replay reads rather than times.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Mean encoded response length, bytes.
    pub resp_bytes: f64,
    /// Mean influence-set size per answer of the workload's own
    /// requests.
    pub influence_per_answer: f64,
    /// Node accesses per kNN-with-validity.
    pub na_per_query: f64,
    /// Sites of the most-requested tile's triangulation.
    pub build_sites: usize,
    /// Longest single `Engine::submit`, ns.
    pub submit_max_ns: f64,
    /// Total `Engine::submit` time over the replay, ns.
    pub submit_total_ns: f64,
}

/// Replays `reqs` through each layer's public entry points, one layer
/// at a time, recording a span around every call.
///
/// * serve: `Engine::submit` on a fresh default engine, in batches of
///   `batch` (the coalesced batch size seen on the socket), and
///   `encode_query_response` on every response;
/// * core: `knn_with_validity_in` / `window_with_validity_in`, one
///   thread, one scratch;
/// * rtree: `knn_in`, `knn_group_in` over Hilbert tiles of 32, and
///   `window_in`;
/// * voronoi: `Delaunay::build` over the most-requested tile's fetch
///   rectangle (tile plus the hot tier's margin).
///
/// A workload without windows replays windows of the fleet's size
/// centred on its kNN foci, so every layer entry point is timed.
pub fn replay(
    server: &Arc<LbqServer>,
    reqs: &[QueryReq],
    batch: usize,
    tracer: &mut Tracer,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let universe = server.universe();

    // serve + proto encode.
    let engine = Engine::new(Arc::clone(server), EngineConfig::default());
    let mut bytes = Vec::with_capacity(4096);
    let (mut encoded, mut total_len) = (0usize, 0usize);
    for (b, chunk) in reqs.chunks(batch.max(1)).enumerate() {
        let start = Instant::now();
        let resps = tracer.time("serve.submit", b as u64, || engine.submit(chunk.to_vec()));
        let ns = start.elapsed().as_nanos() as f64;
        counts.submit_total_ns += ns;
        counts.submit_max_ns = counts.submit_max_ns.max(ns);
        for (i, r) in resps.iter().enumerate() {
            bytes.clear();
            let id = (b * batch + i) as u64;
            tracer
                .time("proto.encode_resp", id, || {
                    lbq_proto::encode_query_response(id, r, &mut bytes)
                })
                .expect("responses encode");
            total_len += bytes.len();
            encoded += 1;
        }
    }
    drop(engine);
    counts.resp_bytes = total_len as f64 / encoded.max(1) as f64;

    let knn: Vec<(Point, usize)> = reqs
        .iter()
        .filter_map(|r| match *r {
            QueryReq::Knn { q, k } => Some((q, k)),
            QueryReq::Window { .. } => None,
        })
        .collect();
    let mut windows: Vec<(Point, f64, f64)> = reqs
        .iter()
        .filter_map(|r| match *r {
            QueryReq::Window { c, hx, hy } => Some((c, hx, hy)),
            QueryReq::Knn { .. } => None,
        })
        .collect();
    let own_windows = windows.len();
    if windows.is_empty() {
        let h = WINDOW_HALF_SHARE * crate::workload::span_of(&universe);
        windows = knn.iter().map(|&(q, _)| (q, h, h)).collect();
    }

    // core.
    let mut scratch = QueryScratch::new();
    let mut influence = 0usize;
    for (i, &(q, k)) in knn.iter().enumerate() {
        let r = tracer.time("core.knn_validity", i as u64, || {
            server.knn_with_validity_in(q, k, &mut scratch)
        });
        influence += r.validity.pairs.len();
    }
    for (i, &(c, hx, hy)) in windows.iter().enumerate() {
        let r = tracer.time("core.window_validity", i as u64, || {
            server.window_with_validity_in(c, hx, hy, &mut scratch)
        });
        if own_windows > 0 {
            influence += r.validity.inner_influence.len() + r.validity.outer_influence.len();
        }
    }
    counts.influence_per_answer = influence as f64 / (knn.len() + own_windows).max(1) as f64;

    // rtree.
    let tree = server.tree();
    for (i, &(q, k)) in knn.iter().enumerate() {
        tracer.time("rtree.knn", i as u64, || {
            black_box(tree.knn_in(q, k, &mut scratch).len())
        });
    }
    let mut order: Vec<usize> = (0..knn.len()).collect();
    order.sort_by_key(|&i| (knn[i].1, hilbert_key(knn[i].0, &universe)));
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in order {
        match groups.last_mut() {
            Some(g) if g.len() < GROUP && knn[g[0]].1 == knn[i].1 => g.push(i),
            _ => groups.push(vec![i]),
        }
    }
    for (g_idx, g) in groups.iter().enumerate() {
        let qs: Vec<Point> = g.iter().map(|&i| knn[i].0).collect();
        let k = knn[g[0]].1;
        tracer.time("rtree.knn_group", g_idx as u64, || {
            black_box(tree.knn_group_in(&qs, k, &mut scratch).len())
        });
    }
    for (i, &(c, hx, hy)) in windows.iter().enumerate() {
        let rect = Rect::centered(c, hx, hy);
        tracer.time("rtree.window", i as u64, || {
            black_box(tree.window_in(&rect, &mut scratch).len())
        });
    }
    let mut na = 0u64;
    for &(q, k) in &knn {
        let (_, st) = server.with_stats(|s| s.knn_with_validity_in(q, k, &mut scratch));
        na += st.node_accesses;
    }
    counts.na_per_query = na as f64 / knn.len().max(1) as f64;

    // voronoi: the most-requested tile, as the hot tier would build it.
    let mut traffic: HashMap<u32, usize> = HashMap::new();
    for &(q, _) in &knn {
        let tile = Heatmap::tile_of_key(hilbert_key(q, &universe), 2 * KEY_ORDER);
        *traffic.entry(tile).or_default() += 1;
    }
    if let Some((&tile, _)) = traffic
        .iter()
        .max_by_key(|&(&t, &n)| (n, std::cmp::Reverse(t)))
    {
        let core = tile_rect(&universe, tile, TILE_BITS);
        let pad = HOT_MARGIN * core.width().max(core.height());
        let fetch = Rect::new(
            (core.xmin - pad).max(universe.xmin),
            (core.ymin - pad).max(universe.ymin),
            (core.xmax + pad).min(universe.xmax),
            (core.ymax + pad).min(universe.ymax),
        );
        // Distinct positions in fetch order, as the hot tier dedups them.
        let mut seen = std::collections::HashSet::new();
        let sites: Vec<Point> = tree
            .window(&fetch)
            .into_iter()
            .map(|i| i.point)
            .filter(|p| seen.insert((p.x.to_bits(), p.y.to_bits())))
            .collect();
        counts.build_sites = sites.len();
        tracer.time("voronoi.build", u64::from(tile), || {
            black_box(Delaunay::build(&sites, fetch).len())
        });
    }
    counts
}

/// Mean self time of spans named `name`, in `unit_ns` units (`NaN` when
/// there are none).
pub fn mean_self(times: &HashMap<&'static str, Vec<f64>>, name: &str, unit_ns: f64) -> f64 {
    times
        .get(name)
        .map_or(f64::NAN, |v| stats::mean(v) / unit_ns)
}

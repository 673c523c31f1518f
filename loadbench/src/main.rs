//! `lbq-loadbench` — the repository's one benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path loadbench/Cargo.toml -- \
//!     --workload <cold-scatter|hot-spot|fleet-na> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it serves one workload over loopback TCP from a
//! server built with the default engine and network configurations,
//! drives it open loop, checks every answer, and reports the
//! end-to-end metrics. With `--trace 1` it reports the per-layer
//! metrics instead, from a traced socket run and a replay of the same
//! inputs through each layer. `--smoke` shrinks every size for a quick
//! end-to-end check. The last line of standard output is one JSON
//! object; see `loadbench/README.md`.

mod loadgen;
mod stats;
mod trace;
mod verify;
mod workload;

use lbq_core::LbqServer;
use lbq_data::Dataset;
use lbq_net::{NetConfig, NetServer};
use lbq_proto::CacheTier;
use lbq_rtree::{RTree, RTreeConfig};
use lbq_serve::{Engine, EngineConfig, QueryReq};
use loadgen::{Answer, FleetPart, PhaseCfg, SenderOut, Source};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workload::Workload;

/// This package's directory, inside the repository checkout it was
/// built from.
const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");
/// Generator threads, each with one connection.
const SENDERS: usize = 2;
/// Latency limit on the tail percentile that defines `max_rate_qps`.
const RTT_LIMIT_MS: f64 = 50.0;
/// A sweep step stops sending once a connection holds this many
/// requests: the backlog is growing. Below the server's default
/// in-flight budget (1024), so the sweep never provokes a teardown.
const ABORT_INFLIGHT: usize = 896;
/// Sweep steps, retries included (see [`Run::max_rate`]).
const SWEEP_STEPS: usize = 10;
/// Rate multipliers of a stream workload's warm-up steps.
const WARM_RAMP: [f64; 3] = [0.1, 0.3, 1.0];
/// Samples per sub-window of a measured phase; latency figures are
/// medians over the sub-windows.
const WINDOW_SAMPLES: usize = 1000;
/// Most sub-windows of a measured phase.
const MAX_WINDOWS: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Most requests replayed through the layers in the traced run (the
/// first ones of the traced socket run, warm-up included, so the
/// replay engine crosses the same promotion thresholds).
const REPLAY_MAX: usize = 12_000;

/// Command-line options.
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 10.0f64, false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Sizes and rates of one run.
#[derive(Debug, Clone, Copy)]
struct Plan {
    points: usize,
    /// Offered rate of a stream workload, requests/s.
    rate: f64,
    /// Rate multiplier the `max_rate_qps` sweep starts from.
    sweep_from: f64,
    fleet_clients: usize,
    /// Fleet tick period, ns.
    tick_ns: u64,
    warm_ns: u64,
    fixed_ns: u64,
    step_ns: u64,
}

fn plan(w: Workload, seconds: f64, smoke: bool) -> Plan {
    let ns = |s: f64| (s * 1e9) as u64;
    // Latency is measured well below capacity (1/9 and 1/18 of
    // `max_rate_qps` on a 2-core machine): nearer the knee, neighbours
    // on a shared machine move the percentiles more than any change to
    // the server would. The sweep starts near half of capacity. The
    // fleet is sized through its client count and tick instead.
    let (rate, sweep_from) = match w {
        Workload::ColdScatter => (1000.0, 4.0),
        Workload::HotSpot => (4000.0, 8.0),
        Workload::FleetNa => (0.0, 1.0),
    };
    Plan {
        points: if smoke { 20_000 } else { 400_000 },
        rate: if smoke { rate / 4.0 } else { rate },
        sweep_from,
        fleet_clients: if smoke { 200 } else { 2000 },
        tick_ns: ns(1.0),
        warm_ns: ns(0.1 * seconds),
        fixed_ns: ns(0.5 * seconds),
        step_ns: ns(0.4 * seconds / SWEEP_STEPS as f64),
    }
}

/// A running server and what it was built from.
struct Served {
    data: Arc<Dataset>,
    server: Arc<LbqServer>,
    engine: Arc<Engine>,
    net: NetServer,
}

/// Dataset generation, tree build, engine and bind: everything until
/// the first request can be served.
fn set_up(w: Workload, points: usize) -> Served {
    let data = w.dataset(points);
    let tree = RTree::bulk_load_packed(data.items.clone(), RTreeConfig::paper());
    let server = Arc::new(LbqServer::new(tree, data.universe));
    serve(Arc::new(data), server)
}

/// A fresh default engine and network front-end over `server`.
fn serve(data: Arc<Dataset>, server: Arc<LbqServer>) -> Served {
    let engine = Arc::new(Engine::new(Arc::clone(&server), EngineConfig::default()));
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&engine), NetConfig::default())
        .expect("bind a loopback port");
    Served {
        data,
        server,
        engine,
        net,
    }
}

/// One phase's merged record.
#[derive(Default)]
struct Phase {
    answers: Vec<Answer>,
    sent: u64,
    failed: u64,
    inflight_max: usize,
    lags_ns: Vec<u64>,
    updates: u64,
    contacts: u64,
    aborted: bool,
    wall_s: f64,
}

impl Phase {
    /// Median over equal sub-windows (by due time) of each window's
    /// round-trip percentile at `q`, where `q = None` takes the highest
    /// percentile with ten samples above it. Windows hold about
    /// [`WINDOW_SAMPLES`] samples each (at most [`MAX_WINDOWS`]), so a
    /// window's p99 still has ten samples above it, and a burst of
    /// interference from outside the benchmark (a shared host steals
    /// CPU from its guests) moves one window, not the figure.
    fn windowed_rtt_ms(&self, q: Option<f64>, duration_ns: u64) -> f64 {
        let count = (self.answers.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
        let mut windows = vec![Vec::new(); count];
        for a in &self.answers {
            let w = (a.due_ns as u128 * count as u128 / duration_ns.max(1) as u128) as usize;
            windows[w.min(count - 1)].push(a.rtt_ns() as f64 / 1e6);
        }
        let per: Vec<f64> = windows
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let w = stats::sorted(w);
                let q = q.unwrap_or_else(|| stats::tail_quantile(w.len()));
                stats::percentile(&w, q)
            })
            .collect();
        stats::median(&per)
    }

    fn reqs_in_send_order(&self) -> Vec<QueryReq> {
        let mut a: Vec<&Answer> = self.answers.iter().collect();
        a.sort_by_key(|a| a.sent_ns);
        a.into_iter().map(|a| a.req).collect()
    }
}

/// The state a run carries between phases.
struct Run {
    w: Workload,
    plan: Plan,
    seed: u64,
    served: Served,
    fleets: Vec<FleetPart>,
    next_label: u64,
    attempted: u64,
    failed: u64,
    teardowns: u64,
}

impl Run {
    fn new(w: Workload, plan: Plan, seed: u64, served: Served) -> Run {
        let fleets = if w.is_fleet() {
            let all = workload::fleet(&served.data, plan.fleet_clients, seed);
            let per = all.len().div_ceil(SENDERS);
            all.chunks(per)
                .map(|c| FleetPart::new(c.to_vec(), plan.tick_ns, Arc::clone(&served.data)))
                .collect()
        } else {
            Vec::new()
        };
        Run {
            w,
            plan,
            seed,
            served,
            fleets,
            next_label: 1,
            attempted: 0,
            failed: 0,
            teardowns: 0,
        }
    }

    /// Runs one verified phase at `mult` times the workload's rate.
    fn phase(
        &mut self,
        duration_ns: u64,
        mult: f64,
        trace: bool,
        abort: usize,
    ) -> Result<Phase, String> {
        let label = self.next_label;
        self.next_label += 1;
        let sources: Vec<Source> = if self.w.is_fleet() {
            std::mem::take(&mut self.fleets)
                .into_iter()
                .map(|mut f| {
                    f.period_ns = (self.plan.tick_ns as f64 / mult) as u64;
                    Source::Fleet(f)
                })
                .collect()
        } else {
            (0..SENDERS as u64)
                .map(|s| {
                    let rate = self.plan.rate * mult / SENDERS as f64;
                    Source::Stream(workload::stream(
                        self.w,
                        rate,
                        duration_ns,
                        self.seed,
                        label * 16 + s,
                    ))
                })
                .collect()
        };
        let cfg = PhaseCfg {
            duration_ns,
            trace,
            abort_inflight: abort,
        };
        let outs = loadgen::run_phase(self.served.net.local_addr(), sources, cfg);
        let mut p = Phase {
            wall_s: duration_ns as f64 / 1e9,
            ..Phase::default()
        };
        for o in outs {
            let SenderOut {
                answers,
                sent,
                errors,
                lost,
                timeouts,
                teardowns,
                inflight_max,
                lags_ns,
                updates,
                contacts,
                aborted,
                fleet,
            } = o;
            p.answers.extend(answers);
            p.sent += sent;
            p.failed += errors + lost + timeouts;
            if errors + lost + timeouts > 0 {
                eprintln!("phase {label}: errors {errors} lost {lost} timeouts {timeouts} teardowns {teardowns} inflight_max {inflight_max} sent {sent}");
            }
            self.teardowns += teardowns;
            p.inflight_max = p.inflight_max.max(inflight_max);
            p.lags_ns.extend(lags_ns);
            p.updates += updates;
            p.contacts += contacts;
            p.aborted |= aborted;
            self.fleets.extend(fleet);
        }
        self.attempted += p.sent;
        self.failed += p.failed;
        verify::check_all(&self.served.server, &p.answers, SENDERS)?;
        for a in &mut p.answers {
            a.frame = None;
        }
        Ok(p)
    }

    /// The unmeasured warm-up. A stream workload ramps up to its rate,
    /// so the tree does not meet the full rate before the reuse tiers
    /// have filled; the fleet starts at its own rate, every client
    /// contacting the server once on its first tick.
    ///
    /// Returns the warm-up requests in send order.
    fn warm(&mut self, trace: bool) -> Result<Vec<QueryReq>, String> {
        let ramp: &[f64] = if self.w.is_fleet() {
            &[1.0]
        } else {
            &WARM_RAMP
        };
        let mut reqs = Vec::new();
        for &mult in ramp {
            let ns = self.plan.warm_ns / ramp.len() as u64;
            reqs.extend(
                self.phase(ns, mult, trace, usize::MAX)?
                    .reqs_in_send_order(),
            );
        }
        Ok(reqs)
    }

    /// The measured phase at the workload's own rate.
    fn fixed(&mut self, trace: bool) -> Result<Phase, String> {
        self.phase(self.plan.fixed_ns, 1.0, trace, usize::MAX)
    }

    /// The highest offered rate whose tail round trip stays within
    /// [`RTT_LIMIT_MS`] with no growing backlog and no failure: ramp by
    /// 1.5× from the workload's sweep start until a step fails, then
    /// bisect, within [`SWEEP_STEPS`] steps. A failed step is run once
    /// more before it counts as failed, so one burst of interference
    /// does not end the ramp. A fleet's rate is the request rate it
    /// achieved, with its tick period scaled.
    fn max_rate(&mut self) -> Result<f64, String> {
        let mut pass: Option<(f64, f64)> = None; // (multiplier, rate)
        let mut fail: Option<f64> = None;
        let mut mult = self.plan.sweep_from;
        let mut steps = SWEEP_STEPS;
        while steps > 0 {
            let mut passed = None;
            for _ in 0..2.min(steps) {
                steps -= 1;
                if let Some(rate) = self.sweep_step(mult)? {
                    passed = Some(rate);
                    break;
                }
            }
            match passed {
                Some(rate) if pass.is_none_or(|(_, r)| rate > r) => pass = Some((mult, rate)),
                Some(_) => {}
                None => fail = Some(fail.map_or(mult, |f: f64| f.min(mult))),
            }
            mult = match (pass, fail) {
                (Some((lo, _)), Some(hi)) => (lo * hi).sqrt(),
                (Some((lo, _)), None) => lo * 1.5,
                (None, Some(hi)) => hi / 1.5,
                (None, None) => unreachable!("a step either passes or fails"),
            };
        }
        Ok(pass.map_or(0.0, |(_, r)| r))
    }

    /// One sweep step at `mult` times the workload's rate: the rate it
    /// offered if it passed.
    fn sweep_step(&mut self, mult: f64) -> Result<Option<f64>, String> {
        let p = self.phase(self.plan.step_ns, mult, false, ABORT_INFLIGHT)?;
        let tail = p.windowed_rtt_ms(None, self.plan.step_ns);
        let ok = !p.aborted && p.failed == 0 && !p.answers.is_empty() && tail <= RTT_LIMIT_MS;
        let rate = if self.w.is_fleet() {
            p.contacts as f64 / p.wall_s
        } else {
            self.plan.rate * mult
        };
        eprintln!(
            "sweep: x{mult:.3} rate {rate:.1}/s n {} tail {tail:.3} ms failed {} aborted {} -> {}",
            p.answers.len(),
            p.failed,
            p.aborted,
            if ok { "pass" } else { "fail" }
        );
        Ok(ok.then_some(rate))
    }
}

/// Peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Non-blank lines of the repository's `crates/**/*.rs`.
fn workspace_lines() -> Result<u64, String> {
    fn walk(dir: &std::path::Path, total: &mut u64) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, total)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path)?;
                *total += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
            }
        }
        Ok(())
    }
    let mut total = 0;
    walk(&Path::new(PACKAGE_DIR).join("../crates"), &mut total)
        .map_err(|e| format!("counting crates/: {e}"))?;
    Ok(total)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Part of the JSON result (`false`: printed for reading only).
    in_result: bool,
}

/// The run's result: metrics plus the request accounting.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            in_result: true,
        });
    }

    /// A metric printed for reading but left out of the JSON result.
    fn note(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.add(name, value, unit, samples);
        if let Some(m) = self.metrics.last_mut() {
            m.in_result = false;
        }
    }

    /// Human-readable lines, then the one-line JSON result.
    fn print(&self, w: Workload) {
        println!(
            "workload {}: attempted {}, failed {}",
            w.name(),
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            let note = if m.in_result {
                ""
            } else {
                "  [not in the JSON result]"
            };
            println!(
                "  {:<28} {:>14.6} {:<6} (n = {}){note}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let mut json = String::new();
        for (i, m) in self.metrics.iter().filter(|m| m.in_result).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

fn set_up_median(w: Workload, plan: &Plan) -> (Served, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let s = set_up(w, plan.points);
        times.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    (kept.expect("at least one set-up"), times)
}

/// The untraced run: the end-to-end metrics.
fn end_to_end(o: &Opts, plan: Plan) -> Result<Report, String> {
    let (served, setups) = set_up_median(o.workload, &plan);
    let mut run = Run::new(o.workload, plan, o.seed, served);
    run.warm(false)?;
    let fixed = run.fixed(false)?;
    // Peak memory before the sweep: its steps keep a varying number of
    // answers (at rates that depend on where the knee falls) in memory.
    let peak_rss = peak_rss_mb();
    let max_rate = run.max_rate()?;
    let n = fixed.answers.len();
    let bytes: Vec<f64> = fixed.answers.iter().map(|a| a.len as f64).collect();
    let contact_share = if o.workload.is_fleet() {
        fixed.contacts as f64 / fixed.updates.max(1) as f64
    } else {
        1.0 // every stream request is a contact: its clients keep no cache
    };
    let mut r = Report {
        metrics: Vec::new(),
        attempted: run.attempted,
        failed: run.failed,
    };
    r.add("setup_s", stats::median(&setups), "s", setups.len());
    r.add(
        "rtt_p50_ms",
        fixed.windowed_rtt_ms(Some(0.5), plan.fixed_ns),
        "ms",
        n,
    );
    // The tail is printed but not gated: on a shared 2-core virtual
    // machine it moves 3-fold between quiet runs (see README.md).
    r.note(
        "rtt_p99_ms",
        fixed.windowed_rtt_ms(None, plan.fixed_ns),
        "ms",
        n,
    );
    r.add("max_rate_qps", max_rate, "req/s", SWEEP_STEPS);
    r.add(
        "answered_share",
        1.0 - run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
        run.attempted as usize,
    );
    r.note(
        "failed_share",
        run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
        run.attempted as usize,
    );
    r.add("bytes_per_answer", stats::mean(&bytes), "B", bytes.len());
    r.add(
        "contact_share",
        contact_share,
        "ratio",
        fixed.updates.max(fixed.sent) as usize,
    );
    r.add("peak_rss_mb", peak_rss, "MiB", 1);
    Ok(r)
}

/// The traced run: the per-layer metrics.
fn per_layer(o: &Opts, plan: Plan) -> Result<Report, String> {
    let w = o.workload;
    let (served, _) = set_up_median(w, &plan);
    let (data, server) = (Arc::clone(&served.data), Arc::clone(&served.server));

    // Untraced baseline on its own fresh engine.
    let mut run = Run::new(w, plan, o.seed, served);
    run.warm(false)?;
    let base = run.fixed(false)?;
    let (mut attempted, mut failed, mut teardowns) = (run.attempted, run.failed, run.teardowns);
    drop(run);

    // Traced socket run on another fresh engine, same inputs.
    let mut run = Run::new(
        w,
        plan,
        o.seed,
        serve(Arc::clone(&data), Arc::clone(&server)),
    );
    let mut reqs = run.warm(true)?;
    let coalesce = lbq_obs::histogram("net-coalesce-batch");
    let (c0, s0) = (coalesce.count(), coalesce.sum_ns());
    let busy = |e: &Engine| -> u64 { e.worker_summaries().iter().map(|s| s.busy_ns).sum() };
    let busy0 = busy(&run.served.engine);
    let traced = run.fixed(true)?;
    let busy1 = busy(&run.served.engine);
    let batch_mean = (coalesce.sum_ns() - s0) as f64 / (coalesce.count() - c0).max(1) as f64;
    let hot = run.served.engine.hot_stats();
    let cache = run.served.engine.cache().stats();
    let workers = run.served.engine.workers();
    attempted += run.attempted;
    failed += run.failed;
    teardowns += run.teardowns;
    drop(run);

    let mut tracer = Tracer::new(Instant::now());
    trace::record_socket_spans(&mut tracer, &traced.answers);
    reqs.extend(traced.reqs_in_send_order());
    reqs.truncate(REPLAY_MAX);
    let batch = batch_mean.round().max(1.0) as usize;
    let counts = trace::replay(&server, &reqs, batch, &mut tracer);
    let times = tracer.self_times();
    let spans_path =
        Path::new(PACKAGE_DIR).join(format!("out/spans-{}-{}.jsonl", w.name(), o.seed));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    let self_us = |name: &str| trace::mean_self(&times, name, 1e3);
    let self_ns = |name: &str| trace::mean_self(&times, name, 1.0);
    let count = |name: &str| times.get(name).map_or(0, Vec::len);
    let rtt_base = base.windowed_rtt_ms(Some(0.5), plan.fixed_ns);
    let rtt_traced = traced.windowed_rtt_ms(Some(0.5), plan.fixed_ns);
    let n_batches = reqs.len().div_ceil(batch).max(1);
    // Medians, to set against the median round trip: a promotion build
    // inside one submit would otherwise dominate a mean.
    let median_us = |name: &str| times.get(name).map_or(0.0, |v| stats::median(v) / 1e3);
    let proto_us = median_us("proto.encode_req")
        + median_us("proto.decode_resp")
        + median_us("proto.encode_resp");
    let serve_batch_us = median_us("serve.submit");
    let n = traced.answers.len();
    let tier_share = |t: CacheTier| {
        traced.answers.iter().filter(|a| a.tier == t).count() as f64 / n.max(1) as f64
    };
    let lags = stats::sorted(traced.lags_ns.iter().map(|&l| l as f64 / 1e6).collect());
    let share = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let knn_us = self_us("rtree.knn");
    let group_total: f64 = times.get("rtree.knn_group").map_or(0.0, |v| v.iter().sum());
    let nr = reqs.len();

    let mut r = Report {
        metrics: Vec::new(),
        attempted,
        failed,
    };
    r.add(
        "net.rtt_p99_ms",
        base.windowed_rtt_ms(None, plan.fixed_ns),
        "ms",
        base.answers.len(),
    );
    r.add(
        "loadgen.lag_p99_ms",
        stats::percentile(&lags, stats::tail_quantile(lags.len())),
        "ms",
        lags.len(),
    );
    r.add(
        "net.unattributed_us",
        rtt_traced * 1e3 - proto_us - serve_batch_us,
        "us",
        n,
    );
    r.add(
        "net.coalesce_batch_mean",
        batch_mean,
        "count",
        (coalesce.count() - c0) as usize,
    );
    r.add("net.inflight_max", traced.inflight_max as f64, "count", n);
    r.add("net.teardowns", teardowns as f64, "count", n);
    r.add(
        "proto.encode_req_ns",
        self_ns("proto.encode_req"),
        "ns",
        count("proto.encode_req"),
    );
    r.add(
        "proto.decode_resp_ns",
        self_ns("proto.decode_resp"),
        "ns",
        count("proto.decode_resp"),
    );
    r.add(
        "proto.encode_resp_ns",
        self_ns("proto.encode_resp"),
        "ns",
        count("proto.encode_resp"),
    );
    r.add("proto.resp_bytes", counts.resp_bytes, "B", nr);
    r.add(
        "serve.submit_us_per_query",
        counts.submit_total_ns / nr.max(1) as f64 / 1e3,
        "us",
        nr,
    );
    r.add(
        "serve.submit_max_ms",
        counts.submit_max_ns / 1e6,
        "ms",
        n_batches,
    );
    r.add(
        "serve.tier_share.tree",
        tier_share(CacheTier::Tree),
        "ratio",
        n,
    );
    r.add(
        "serve.tier_share.cache",
        tier_share(CacheTier::Cache),
        "ratio",
        n,
    );
    r.add(
        "serve.tier_share.hot",
        tier_share(CacheTier::HotVoronoi),
        "ratio",
        n,
    );
    r.add(
        "serve.hot.hit_share",
        share(hot.hits, hot.misses),
        "ratio",
        (hot.hits + hot.misses) as usize,
    );
    r.add("serve.hot.promotions", hot.promotions as f64, "count", 1);
    r.add(
        "serve.cache.hit_share",
        share(cache.hits, cache.misses),
        "ratio",
        (cache.hits + cache.misses) as usize,
    );
    r.add(
        "serve.worker_busy_share",
        (busy1 - busy0) as f64 / (workers as f64 * traced.wall_s * 1e9),
        "ratio",
        workers,
    );
    r.add(
        "core.knn_validity_us",
        self_us("core.knn_validity"),
        "us",
        count("core.knn_validity"),
    );
    r.add(
        "core.region_us",
        self_us("core.knn_validity") - knn_us,
        "us",
        count("core.knn_validity"),
    );
    r.add(
        "core.window_validity_us",
        self_us("core.window_validity"),
        "us",
        count("core.window_validity"),
    );
    r.add(
        "core.influence_per_answer",
        counts.influence_per_answer,
        "count",
        nr,
    );
    r.add("rtree.knn_us", knn_us, "us", count("rtree.knn"));
    r.add(
        "rtree.knn_group_us",
        group_total / count("rtree.knn").max(1) as f64 / 1e3,
        "us",
        count("rtree.knn_group"),
    );
    r.add(
        "rtree.window_us",
        self_us("rtree.window"),
        "us",
        count("rtree.window"),
    );
    r.add(
        "rtree.na_per_query",
        counts.na_per_query,
        "count",
        count("rtree.knn"),
    );
    r.add(
        "voronoi.build_ms_max",
        self_us("voronoi.build") / 1e3,
        "ms",
        count("voronoi.build"),
    );
    r.add("voronoi.build_sites", counts.build_sites as f64, "count", 1);
    r.add(
        "trace.overhead_share",
        rtt_traced / rtt_base - 1.0,
        "ratio",
        n,
    );
    r.add("workspace.lines", workspace_lines()? as f64, "lines", 1);
    Ok(r)
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn run(o: &Opts) -> Result<Report, String> {
    let plan = plan(o.workload, o.seconds, o.smoke);
    let before = cpu_ticks();
    let mut r = if o.trace {
        per_layer(o, plan)
    } else {
        end_to_end(o, plan)
    }?;
    // CPU time a hypervisor gave to other guests: when it is high, every
    // wall-clock figure of the run reads slow.
    if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        r.note("host_steal_share", share, "ratio", 1);
    }
    match r
        .metrics
        .iter()
        .find(|m| m.in_result && !m.value.is_finite())
    {
        Some(m) => Err(format!("{} has no value (nothing measured)", m.name)),
        None => Ok(r),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lbq-loadbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(report) => report.print(opts.workload),
        Err(e) => {
            eprintln!("lbq-loadbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_end_to_end() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let o = Opts {
                    workload: w,
                    seed: 3,
                    seconds: 2.0,
                    trace,
                    smoke: true,
                };
                let r = run(&o).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(r.attempted > 0, "{}: nothing sent", w.name());
                assert_eq!(r.failed, 0, "{}: failed requests", w.name());
                assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o =
            parse_args(&args("--workload hot-spot --seed 9 --seconds 4 --trace 1")).expect("valid");
        assert_eq!(o.workload, Workload::HotSpot);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 4.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}

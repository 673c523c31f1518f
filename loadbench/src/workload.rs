//! The three named workloads: their datasets, their seeded request
//! streams, and the moving fleet of `fleet-na`.
//!
//! Datasets use fixed seeds, so every run serves the same points; the
//! `--seed` argument varies only the traffic. A seed fixes the Poisson
//! schedules, the query foci, and the fleet's clients, paths and tick
//! phases. Which fleet updates turn into requests also depends on the
//! validity regions the server returns.

use lbq_data::Dataset;
use lbq_geom::{Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_serve::QueryReq;

/// Data seed of the uniform datasets (the `pr9_bench` hotspot data).
const UNIFORM_DATA_SEED: u64 = 0xC0FFEE;
/// Data seed of the NA-like dataset.
const NA_DATA_SEED: u64 = 42;
/// Clusters of the `hot-spot` foci (the `pr9_bench` hotspot shape).
const HOT_CLUSTERS: usize = 32;
/// Half-side of a `hot-spot` cluster, in unit-universe coordinates.
const HOT_RADIUS: f64 = 0.002;
/// k of the `cold-scatter` and `hot-spot` kNN requests.
const STREAM_K: usize = 10;
/// Window half-extent of fleet clients, as a share of the universe span.
pub const WINDOW_HALF_SHARE: f64 = 0.002;
/// Share of fleet clients asking kNN (the rest ask windows).
const FLEET_KNN_SHARE: f64 = 0.7;
/// Distance a fleet client travels per tick, as a share of the universe
/// span (drawn per client from this range).
const FLEET_STEP_SHARE: (f64, f64) = (2.0e-6, 2.0e-5);

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform data, uniform never-repeated kNN foci: the reuse tiers
    /// miss and never promote, so the tree and core do all the work.
    ColdScatter,
    /// Uniform data, kNN foci in 32 small fixed clusters: after warm-up
    /// the reuse tiers answer most requests.
    HotSpot,
    /// NA-like data, a fleet of moving clients that re-query only when
    /// they leave their cached validity region.
    FleetNa,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::ColdScatter, Workload::HotSpot, Workload::FleetNa];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScatter => "cold-scatter",
            Workload::HotSpot => "hot-spot",
            Workload::FleetNa => "fleet-na",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset the server indexes (fixed seed; `points` items).
    pub fn dataset(self, points: usize) -> Dataset {
        match self {
            Workload::ColdScatter | Workload::HotSpot => {
                lbq_data::uniform_unit(points, UNIFORM_DATA_SEED)
            }
            Workload::FleetNa => lbq_data::na_like_sized(points, NA_DATA_SEED),
        }
    }

    /// `true` for the fleet workload (ticks and cached regions instead
    /// of a Poisson stream).
    pub fn is_fleet(self) -> bool {
        self == Workload::FleetNa
    }
}

/// Derives an independent stream seed from the run seed and a label
/// (phase, sender, purpose), so streams never overlap.
pub fn derive_seed(seed: u64, label: u64) -> u64 {
    let mut sm = lbq_rng::SplitMix64::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

/// Due times (ns from the phase start) of a Poisson arrival process at
/// `rate` requests per second over `duration_ns`.
pub fn poisson_schedule(rate: f64, duration_ns: u64, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0_f64;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen_f64()).ln() / rate * 1e9;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Seeded generator of one stream workload's query foci.
pub struct FociGen {
    workload: Workload,
    rng: Xoshiro256ss,
    centers: Vec<Point>,
}

impl FociGen {
    /// A generator for `workload` (not the fleet). The hot-spot cluster
    /// centres depend only on `seed`; `stream` picks an independent
    /// sequence of foci among them.
    pub fn new(workload: Workload, seed: u64, stream: u64) -> FociGen {
        let mut crng = Xoshiro256ss::seed_from_u64(derive_seed(seed, 0xC1));
        let centers = (0..HOT_CLUSTERS)
            .map(|_| Point::new(0.1 + 0.8 * crng.gen_f64(), 0.1 + 0.8 * crng.gen_f64()))
            .collect();
        FociGen {
            workload,
            rng: Xoshiro256ss::seed_from_u64(derive_seed(seed, stream)),
            centers,
        }
    }

    /// The next request of the stream.
    pub fn next_req(&mut self) -> QueryReq {
        let p = match self.workload {
            Workload::HotSpot => {
                let c = self.centers[self.rng.gen_index(self.centers.len())];
                Point::new(
                    c.x + HOT_RADIUS * (2.0 * self.rng.gen_f64() - 1.0),
                    c.y + HOT_RADIUS * (2.0 * self.rng.gen_f64() - 1.0),
                )
            }
            _ => Point::new(self.rng.gen_f64(), self.rng.gen_f64()),
        };
        QueryReq::knn(p, STREAM_K)
    }
}

/// A seeded open-loop stream: `(due ns, request)` pairs at `rate`.
pub fn stream(
    workload: Workload,
    rate: f64,
    duration_ns: u64,
    seed: u64,
    label: u64,
) -> Vec<(u64, QueryReq)> {
    let mut foci = FociGen::new(workload, seed, derive_seed(label, 0xF0C1));
    poisson_schedule(rate, duration_ns, derive_seed(seed, label))
        .into_iter()
        .map(|due| (due, foci.next_req()))
        .collect()
}

/// What a fleet client asks the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ask {
    /// kNN with this k.
    Knn(usize),
    /// A window with these half-extents.
    Window(f64, f64),
}

/// One moving client of the fleet: a random-waypoint walker whose
/// waypoints are data points, so it dwells where data is dense.
#[derive(Debug, Clone)]
pub struct Client {
    /// Current position.
    pub pos: Point,
    waypoint: Point,
    step: f64,
    /// The query this client repeats.
    pub ask: Ask,
    /// Offset of this client's ticks within the tick period, as a share
    /// of the period.
    pub phase: f64,
    rng: Xoshiro256ss,
}

impl Client {
    /// Moves one tick along the path, picking a new waypoint (a random
    /// data point) on arrival.
    pub fn advance(&mut self, data: &Dataset) {
        let d = self.pos.dist(self.waypoint);
        if d <= self.step {
            self.pos = self.waypoint;
            self.waypoint = data.items[self.rng.gen_index(data.items.len())].point;
        } else {
            let t = self.step / d;
            self.pos = Point::new(
                self.pos.x + (self.waypoint.x - self.pos.x) * t,
                self.pos.y + (self.waypoint.y - self.pos.y) * t,
            );
        }
    }

    /// The request this client sends from its current position.
    pub fn request(&self) -> QueryReq {
        match self.ask {
            Ask::Knn(k) => QueryReq::knn(self.pos, k),
            Ask::Window(hx, hy) => QueryReq::window(self.pos, hx, hy),
        }
    }
}

/// A seeded fleet of `n` clients over `data`. Each client starts at a
/// random data point and walks towards another.
pub fn fleet(data: &Dataset, n: usize, seed: u64) -> Vec<Client> {
    let span = span_of(&data.universe);
    let mut rng = Xoshiro256ss::seed_from_u64(derive_seed(seed, 0xF1EE7));
    (0..n)
        .map(|i| {
            let pick = |rng: &mut Xoshiro256ss| data.items[rng.gen_index(data.items.len())].point;
            let pos = pick(&mut rng);
            let waypoint = pick(&mut rng);
            let ask = if rng.gen_f64() < FLEET_KNN_SHARE {
                Ask::Knn([1, 4, 10][rng.gen_index(3)])
            } else {
                let h = WINDOW_HALF_SHARE * span;
                Ask::Window(h, h)
            };
            Client {
                pos,
                waypoint,
                step: span * rng.gen_range(FLEET_STEP_SHARE.0..FLEET_STEP_SHARE.1),
                ask,
                phase: rng.gen_f64(),
                rng: Xoshiro256ss::seed_from_u64(derive_seed(seed, i as u64)),
            }
        })
        .collect()
}

/// The larger side of a universe.
pub fn span_of(universe: &Rect) -> f64 {
    universe.width().max(universe.height())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_schedule_and_stream() {
        for w in [Workload::ColdScatter, Workload::HotSpot] {
            let a = stream(w, 800.0, 2_000_000_000, 7, 3);
            let b = stream(w, 800.0, 2_000_000_000, 7, 3);
            assert!(a.len() > 1000, "{} arrivals", a.len());
            assert_eq!(a, b);
            let c = stream(w, 800.0, 2_000_000_000, 8, 3);
            assert_ne!(a, c, "another seed must give another stream");
        }
        let data = Workload::FleetNa.dataset(5_000);
        let f1 = fleet(&data, 50, 7);
        let f2 = fleet(&data, 50, 7);
        let walk = |mut f: Vec<Client>| -> Vec<(Point, QueryReq)> {
            let mut out = Vec::new();
            for _ in 0..100 {
                for c in &mut f {
                    c.advance(&data);
                    out.push((c.pos, c.request()));
                }
            }
            out
        };
        assert_eq!(walk(f1), walk(f2));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate() {
        let s = poisson_schedule(1000.0, 10_000_000_000, 1);
        let n = s.len() as f64;
        assert!(
            (n - 10_000.0).abs() < 400.0,
            "{n} arrivals in 10 s at 1000/s"
        );
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }
}

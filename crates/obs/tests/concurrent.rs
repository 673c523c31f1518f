//! Concurrency torture for the v2 observability primitives: histogram
//! records racing snapshots, flight-recorder writers racing seqlock
//! readers across wraparound, and heatmap updates from arbitrary tile
//! ids. Own integration-test process: it arms the process-global
//! recorder.

use lbq_obs::{QueryEvent, QueryKind, RecorderConfig, StageNanos};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn histogram_records_race_snapshots_without_loss() {
    let h = lbq_obs::histogram("conc-latency");
    const THREADS: u64 = 4;
    const PER: u64 = 50_000;
    let stop = Arc::new(AtomicBool::new(false));
    // A reader thread snapshotting mid-storm: counts must only grow,
    // and every intermediate summary must stay internally consistent.
    let reader = {
        let h = h.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let s = h.summary();
                assert!(s.count >= last, "count went backwards");
                assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
                last = s.count;
            }
            last
        })
    };
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..PER {
                    // Spread across buckets: 100ns .. ~100µs.
                    h.record_ns(100 + (i % 1000) * 100 + t);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader");
    assert_eq!(h.summary().count, THREADS * PER, "records lost in the race");
}

#[test]
fn recorder_wraparound_under_concurrent_readers() {
    let rec = lbq_obs::init_recorder(RecorderConfig {
        capacity: 128, // small ring: heavy wraparound
        slow_min_samples: 64,
        slow_multiplier: 2,
        slow_floor_ns: 0,
    });
    const THREADS: u64 = 4;
    const PER: u64 = 20_000;
    let stop = Arc::new(AtomicBool::new(false));
    // Every field of an event is a pure function of its query_id, so a
    // torn read — slot words mixed from two different writes slipping
    // past the seqlock — shows up as an internally inconsistent event.
    fn stamp(v: u64) -> QueryEvent {
        QueryEvent {
            query_id: v,
            kind: if v % 2 == 0 {
                QueryKind::Knn
            } else {
                QueryKind::Window
            },
            k: (v % 1_000) as u32,
            tier: lbq_obs::CacheTier::Tree,
            tile: (v % 4096) as u32,
            latency_ns: 1_000 + v % 7,
            node_accesses: (v % 97) as u32,
            page_accesses: (v % 13) as u32,
            stages: StageNanos::default(),
        }
    }
    // Readers race the wrapping writers.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let rec = lbq_obs::recorder().expect("armed");
                while !stop.load(Ordering::Relaxed) {
                    for (_, ev) in rec.recent() {
                        assert_eq!(ev, stamp(ev.query_id), "torn read survived the seqlock");
                    }
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let rec = lbq_obs::recorder().expect("armed");
                for i in 0..PER {
                    rec.record(&stamp(t * PER + i));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader");
    }
    let stats = rec.stats();
    assert_eq!(stats.total, THREADS * PER, "every record counted");
    // At rest each slot holds its final generation: a slot's writers
    // take it one at a time, and one whose ticket is older than the
    // slot's drops its record, so a stalled writer can never put an
    // older record back over a newer one.
    let recent = rec.recent();
    assert_eq!(recent.len(), 128);
    for (i, (ticket, ev)) in recent.iter().enumerate() {
        assert_eq!(
            *ticket,
            THREADS * PER - 128 + i as u64,
            "slot lags its final generation"
        );
        assert_eq!(*ev, stamp(ev.query_id));
    }
    assert!(stats.threshold_ns > 0, "threshold armed after warmup");
}

#[test]
fn heatmap_concurrent_arbitrary_tiles_stay_in_bounds() {
    let heat = lbq_obs::heatmap("conc-heat");
    const THREADS: u64 = 4;
    const PER: u64 = 100_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let heat = heat.clone();
            std::thread::spawn(move || {
                let mut x: u32 = 0x9E37_79B9u32.wrapping_mul(t as u32 + 1) | 1;
                for _ in 0..PER {
                    // Full-range u32 tile ids: record() must mask, not
                    // index out of bounds.
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    heat.record(x, 10);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer");
    }
    let tiles = heat.snapshot();
    let hits: u64 = tiles.iter().map(|t| t.hits).sum();
    let ns: u64 = tiles.iter().map(|t| t.total_ns).sum();
    assert_eq!(hits, THREADS * PER, "hits lost");
    assert_eq!(ns, THREADS * PER * 10, "latency mass lost");
    assert!(tiles
        .iter()
        .all(|t| (t.tile as usize) < lbq_obs::HEATMAP_SLOTS));
}

#!/bin/sh
# Workspace gate: formatting, release build, project lints, tests.
# Run from the repository root. Any failing step aborts the run.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo build --release"
cargo build --workspace --release

echo "== lbq-check (json, diffed against committed baseline)"
# Exit codes: 0 clean, 1 fresh findings beyond the baseline, 2 the
# analyzer itself failed (parse/IO/CLI error) — distinguish them so a
# broken analyzer is never mistaken for a lint regression.
rc=0
cargo run --release -q -p lbq-check -- --format json --baseline lbq-check.baseline.json || rc=$?
if [ "$rc" -eq 2 ]; then
    echo "ci: lbq-check itself failed (parse/IO error) — fix the analyzer or the source it chokes on" >&2
    exit 2
elif [ "$rc" -ne 0 ]; then
    echo "ci: lbq-check found violations beyond lbq-check.baseline.json (listed above)" >&2
    exit 1
fi

echo "== miri (optional: runs when the component is installed)"
if rustup component list --installed 2>/dev/null | grep -q "^miri"; then
    cargo miri test -p lbq-geom -q
else
    echo "ci: miri not installed; skipping (rustup component add miri)"
fi

echo "== thread sanitizer (optional: needs nightly + rust-src)"
if rustc --version | grep -q nightly \
    && rustup component list --installed 2>/dev/null | grep -q "^rust-src"; then
    RUSTFLAGS="-Zsanitizer=thread" cargo test -Zbuild-std -q -p lbq-serve --test stress \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
else
    echo "ci: not a nightly toolchain with rust-src; skipping TSan stage"
fi

echo "== cargo test"
cargo test --workspace -q

echo "== concurrency suites on one core and at default parallelism"
# A pass that depends on scheduling (two cores racing, a test harness
# running tests side by side) fails here instead of after merge.
command -v taskset >/dev/null || {
    echo "ci: taskset (util-linux) is needed to pin the concurrency suites to one core" >&2
    exit 1
}
for suite in "lbq-net --test loopback" "lbq-net --test flood" \
    "lbq-obs --test concurrent" "lbq-serve --test stress"; do
    # shellcheck disable=SC2086 # $suite is a package and a test flag
    taskset -c 0 cargo test -q -p $suite
    # shellcheck disable=SC2086
    cargo test -q -p $suite
done

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== serve stress tests"
cargo test --release -q -p lbq-serve --test stress

echo "== serve_sweep smoke"
out="$(cargo run --release -q -p lbq-bench --bin serve_sweep -- --quick)"
echo "$out" | grep -q "== lbq-obs profile ==" || {
    echo "ci: serve_sweep --quick did not print a profile table" >&2
    exit 1
}

echo "== examples (text tracing + profile tables)"
for ex in quickstart moving_client city_window geofence_region; do
    out="$(LBQ_TRACE=text cargo run --release -q -p lbq-core --example "$ex" 2>/dev/null)"
    echo "$out" | grep -q "== lbq-obs profile ==" || {
        echo "ci: example $ex did not print a profile table" >&2
        exit 1
    }
done
out="$(cargo run --release -q -p lbq-serve --example moving_fleet 2>/dev/null)"
echo "$out" | grep -q "== lbq-obs profile ==" || {
    echo "ci: example moving_fleet did not print a profile table" >&2
    exit 1
}

echo "== pr4 bench smoke (zero-allocation steady state)"
cargo run --release -q -p lbq-bench --bin pr4_bench -- --quick >/dev/null

echo "== pr4 bench artifact check"
cargo run --release -q -p lbq-bench --bin pr4_bench -- --check BENCH_PR4.json

echo "== pr5 bench smoke (tiled dispatch + packed-arena equivalence)"
cargo run --release -q -p lbq-bench --bin pr5_bench -- --quick >/dev/null

echo "== pr5 bench artifact check"
cargo run --release -q -p lbq-bench --bin pr5_bench -- --check BENCH_PR5.json

echo "== pr7 bench smoke (observability overhead micro-benches)"
cargo run --release -q -p lbq-bench --bin pr7_bench -- --quick >/dev/null

echo "== pr7 bench artifact check"
cargo run --release -q -p lbq-bench --bin pr7_bench -- --check BENCH_PR7.json

echo "== pr8 bench smoke (loopback TCP serving)"
cargo run --release -q -p lbq-bench --bin pr8_bench -- --quick >/dev/null

echo "== pr8 bench artifact check"
cargo run --release -q -p lbq-bench --bin pr8_bench -- --check BENCH_PR8.json

echo "== pr9 bench smoke (hot-tile Voronoi fast path)"
cargo run --release -q -p lbq-bench --bin pr9_bench -- --quick >/dev/null

echo "== pr9 bench artifact check"
cargo run --release -q -p lbq-bench --bin pr9_bench -- --check BENCH_PR9.json

echo "== bench trend (speedup trajectory across all reports)"
cargo run --release -q -p lbq-bench --bin bench_trend

echo "== loopback_fleet (byte-identical network serving + hotspot tiers)"
out="$(cargo run --release -q -p lbq-net --example loopback_fleet 2>/dev/null)"
echo "$out" | grep -q "byte-identical" || {
    echo "ci: loopback_fleet did not report byte-identical responses" >&2
    exit 1
}
echo "$out" | grep -q "hot-voronoi" || {
    echo "ci: loopback_fleet hotspot phase did not report the hot-voronoi tier" >&2
    exit 1
}
echo "$out" | grep -q "== lbq-obs profile ==" || {
    echo "ci: loopback_fleet did not print a profile table" >&2
    exit 1
}

echo "== serve hot-tier equivalence tests"
cargo test --release -q -p lbq-serve --test hot

echo "== pr7 serve smoke (exporter schema + slow-query capture)"
# A live engine under the snapshot exporter: bit-identical results
# obs-on vs obs-off, an injected pathological query must be captured,
# and every exported JSONL line must validate against the v1 schema.
snap="$(mktemp -u).jsonl"
cargo run --release -q -p lbq-bench --bin pr7_bench -- --serve-smoke "$snap" >/dev/null
rm -f "$snap"

echo "== moving_fleet under the snapshot exporter"
snap="$(mktemp -u).jsonl"
LBQ_OBS_SNAPSHOT="$snap,200ms" cargo run --release -q -p lbq-serve --example moving_fleet >/dev/null 2>&1
grep -q '"type":"snapshot"' "$snap" && grep -q '"type":"snapshot-end"' "$snap" || {
    echo "ci: moving_fleet exported no complete snapshot block to $snap" >&2
    exit 1
}
grep -q '"type":"heatmap"' "$snap" || {
    echo "ci: moving_fleet snapshots carry no heatmap line" >&2
    exit 1
}
rm -f "$snap"

echo "== moving_client jsonl trace"
trace="$(mktemp)"
LBQ_TRACE=jsonl cargo run --release -q -p lbq-core --example moving_client 2>"$trace" >/dev/null
for name in rtree-tpnn nn-influence-set tpnn-iteration client-cache-hit client-cache-miss; do
    grep -q "\"name\":\"$name\"" "$trace" || {
        echo "ci: jsonl trace is missing \"$name\" records" >&2
        rm -f "$trace"
        exit 1
    }
done
rm -f "$trace"

echo "ci: ok"

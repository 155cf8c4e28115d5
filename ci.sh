#!/usr/bin/env bash
# Hermetic CI: every step runs with --offline — the workspace has no
# third-party dependencies, so a fresh checkout must build, test, lint,
# and document with zero network access.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
# The full suite must pass regardless of pool width: once serially, once
# with the exec engine fanned out to four workers.
EXEC_THREADS=1 cargo test -q --offline
EXEC_THREADS=4 cargo test -q --offline
# headbench is a workspace of its own (it builds against these crates by
# path), so the suites above do not reach it: run its generator-purity,
# short-run and relay wire tests here. Its Cargo.lock changes only with
# the benchmark, but cargo rewrites it on these steps whenever a
# workspace crate's dependency list changed since it was written: save
# it first and put it back after them, so a passing run leaves the tree
# clean.
headbench_lock="$(mktemp)"
cp headbench/Cargo.lock "$headbench_lock"
cargo test --release --offline --manifest-path headbench/Cargo.toml
# headbench's own workspace is out of reach of the clippy and fmt steps
# of this one too, so both also run on it by its manifest.
cargo clippy --offline --all-targets --manifest-path headbench/Cargo.toml -- -D warnings
if ! cmp -s "$headbench_lock" headbench/Cargo.lock; then
  echo "ci: headbench/Cargo.lock is stale; refresh it with the next benchmark change"
  cp "$headbench_lock" headbench/Cargo.lock
fi
rm -f "$headbench_lock"
cargo clippy --offline --all-targets -- -D warnings
# First-party static analysis: determinism, unit-safety, panic-freedom,
# job-purity, and dataflow contracts (rules R1–R8 plus the call-graph and
# taint passes; see DESIGN.md "Enforced invariants", "Semantic analysis
# layer", and "Dataflow analysis layer"), and `unreached-pub`: a pub fn
# in library source that no other file (headbench's included) names is
# a warn-tier finding, ratcheted like the rest. The rule fixtures under
# tests/xlint_fixtures — one seeded firing and one reasoned suppression
# per rule, including the three dataflow rules — ran inside the test
# suites above (crates/xlint/tests). Lint the real tree once: that run
# writes the SARIF artifact, and its summary line gives the finding
# census.
xlint_log="$(mktemp)"
if ! cargo run -p gigatest-xlint --release --offline -- --format sarif \
    > xlint.sarif 2> "$xlint_log"; then
  cat "$xlint_log" >&2
  exit 1
fi
xlint_summary="$(grep '^xlint:' "$xlint_log" | head -n 1)"
rm -f "$xlint_log"
echo "$xlint_summary"
# The census goes to the committed BENCH_xlint.json. It holds no
# timings, so a run on an unchanged tree rewrites the same bytes. Every
# field must parse: a summary line in another shape fails here rather
# than recording a silent 0.
xlint_files="$(echo "$xlint_summary" | sed -n 's/^xlint: \([0-9]*\) files, .*/\1/p')"
xlint_deny="$(echo "$xlint_summary" | sed -n 's/.* files, \([0-9]*\) deny, .*/\1/p')"
xlint_warn="$(echo "$xlint_summary" | sed -n 's/.* deny, \([0-9]*\) warn (.*/\1/p')"
xlint_supp="$(echo "$xlint_summary" | sed -n 's/.* warn (\([0-9]*\) suppressed .*/\1/p')"
for field in "$xlint_files" "$xlint_deny" "$xlint_warn" "$xlint_supp"; do
  if [ -z "$field" ]; then
    echo "ci: cannot read the finding census from: $xlint_summary" >&2
    exit 1
  fi
done
cat > BENCH_xlint.json <<EOF
{
  "files": $xlint_files,
  "findings": { "deny": $xlint_deny, "warn": $xlint_warn, "suppressed": $xlint_supp }
}
EOF
# A suppression must carry its justification. The linter rejects a
# reasonless allow that covers a finding (bad-allow); this catches the
# rest — an allow with no reason is debt even when nothing fires under
# it today. Fixtures are exempt: they seed reasonless allows on purpose.
if grep -rn "xlint::allow([a-z-]*)" --include='*.rs' crates tests \
    | grep -v "tests/xlint_fixtures" | grep -v "crates/xlint/src" \
    | grep -v "crates/xlint/tests"; then
  echo "ci: reasonless xlint::allow — every suppression needs a reason" >&2
  exit 1
fi
echo "xlint: every suppression carries a reason"
# rustc's dead_code lint is the other half of the unreached-pub ratchet:
# once xlint has a pub fn made private, rustc finds whatever is left
# unused, with full type resolution. An allow(dead_code) or
# allow(unused...) attribute would switch that half off, so none may
# appear outside the xlint fixtures.
if grep -rnE "(allow|expect)\([^)]*\b(dead_code|unused)" --include='*.rs' crates tests examples \
    | grep -v "tests/xlint_fixtures"; then
  echo "ci: allow(dead_code)/allow(unused...) hides code rustc would report dead" >&2
  exit 1
fi
echo "rustc: no dead_code or unused lint is silenced"
# One boot per process: the paper's DLC is configured once and then
# driven through registers, and every service job runs on the one
# instrument `MiniTester::shared` boots. Library code (outside its
# #[cfg(test)] module, tests, examples and the bench crate) may call
# `MiniTester::new` or `MiniTesterDatapath::new` only at that one
# construction site: the shared tester's boot and the datapath boot
# inside it. Comment lines (doc examples) do not count.
boot_sites="$(grep -rlE '(MiniTesterDatapath|MiniTester)::new' --include='*.rs' crates \
    | grep -v '^crates/bench/' | grep -v '/tests/' \
    | xargs -r awk '/^#\[cfg\(test\)\]/ { nextfile } /^[[:space:]]*\/\// { next }
      /(^|[^A-Za-z0-9_])(MiniTesterDatapath|MiniTester)::new([^A-Za-z0-9_]|$)/ {
        sub(/^[[:space:]]+/, ""); print FILENAME ": " $0 }' || true)"
allowed_boot_sites="crates/minitester/src/tester.rs: datapath: MiniTesterDatapath::new()?,
crates/minitester/src/tester.rs: SHARED.get_or_init(MiniTester::new).as_ref().map_err(Clone::clone)"
if [ "$boot_sites" != "$allowed_boot_sites" ]; then
  echo "ci: instrument boots outside the shared construction site (want < / got >):" >&2
  diff <(echo "$allowed_boot_sites") <(echo "$boot_sites") >&2 || true
  exit 1
fi
echo "ci: no request path boots an instrument"
# A crate names only the workspace crates it uses: every workspace crate
# in a [dependencies] or [dev-dependencies] table must appear as a
# `name::` path in some .rs file under the crate or in a target its
# manifest points at by `path` (the shared tests/ and examples/).
ws_crates="$(sed -n '/^\[workspace.dependencies\]/,/^\[/s/^\([a-z][a-z0-9_-]*\) *=.*/\1/p' Cargo.toml)"
unused_deps=0
for manifest in crates/*/Cargo.toml; do
  dir="$(dirname "$manifest")"
  deps="$(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
    on && /^[a-z]/ { sub(/[ .=].*/, ""); print }' "$manifest")"
  targets="$(sed -n "s|^path *= *\"\(.*\.rs\)\"|$dir/\1|p" "$manifest")"
  for dep in $deps; do
    grep -qx "$dep" <<<"$ws_crates" || continue
    # $targets is unquoted on purpose: one word per target path.
    if ! grep -rqE "(^|[^A-Za-z0-9_:])${dep//-/_}::" --include='*.rs' "$dir" $targets; then
      echo "ci: $manifest depends on $dep, but no .rs file of the crate names it" >&2
      unused_deps=1
    fi
  done
done
if [ "$unused_deps" != 0 ]; then
  exit 1
fi
echo "cargo: every workspace dependency edge is used"
# Rustdoc warnings fail CI, so an intra-doc link to a deleted name cannot
# outlive the item it named.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps
cargo fmt --check
cargo fmt --check --manifest-path headbench/Cargo.toml
# Thread-count invariance canary: the deterministic sweep outputs (shmoo
# plot, wafer map, eye scan, jitter report, BER digest) must be
# byte-identical whether the exec pool runs 1 worker or 4.
canary_dir="$(mktemp -d)"
trap 'rm -rf "$canary_dir"' EXIT
EXEC_THREADS=1 cargo run -q --release --offline -p gigatest-bench --bin bench_exec > "$canary_dir/t1.txt"
EXEC_THREADS=4 cargo run -q --release --offline -p gigatest-bench --bin bench_exec > "$canary_dir/t4.txt"
diff "$canary_dir/t1.txt" "$canary_dir/t4.txt"
echo "canary: sweep outputs identical at EXEC_THREADS=1 and 4"
# Figure invariance: the paper-vs-measured table (EXPERIMENTS.md) is part
# of the determinism contract, so it too must be byte-identical at 1 and
# 4 workers.
EXEC_THREADS=1 cargo run -q --release --offline -p gigatest-bench --bin figures > "$canary_dir/figures1.txt"
EXEC_THREADS=4 cargo run -q --release --offline -p gigatest-bench --bin figures > "$canary_dir/figures4.txt"
diff "$canary_dir/figures1.txt" "$canary_dir/figures4.txt"
echo "canary: figures identical at EXEC_THREADS=1 and 4"
# Example invariance: the wafer_probe example prints a shmoo plot (one
# pool job per phase column, every row of the column inside it) and a
# wafer map (one job per die), so a change to how the pool splits either
# sweep shows up here byte for byte.
EXEC_THREADS=1 cargo run -q --release --offline -p gigatest-ate --example wafer_probe > "$canary_dir/wafer1.txt"
EXEC_THREADS=4 cargo run -q --release --offline -p gigatest-ate --example wafer_probe > "$canary_dir/wafer4.txt"
diff "$canary_dir/wafer1.txt" "$canary_dir/wafer4.txt"
echo "canary: wafer_probe output identical at EXEC_THREADS=1 and 4"
# Service-layer invariance: the atd integration suites (golden THP/2
# wire vectors plus the loopback protocol walk) ran under both thread
# counts above; here atd-load's deterministic loopback row —
# result digests, cache/batch counters — must also be byte-identical
# whether the daemon's pool runs 1 worker or 4.
EXEC_THREADS=1 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- loopback > "$canary_dir/atd1.txt"
EXEC_THREADS=4 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- loopback > "$canary_dir/atd4.txt"
diff "$canary_dir/atd1.txt" "$canary_dir/atd4.txt"
echo "canary: atd service outputs identical at EXEC_THREADS=1 and 4"
# TCP invariance: the same specs through pipelined TCP sessions —
# chunked streaming, out-of-order completion, reassembly — must be
# byte-identical regardless of pool width (and, below, must reproduce
# the loopback canary's digests exactly).
EXEC_THREADS=1 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- tcp > "$canary_dir/thp2_1.txt"
EXEC_THREADS=4 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- tcp > "$canary_dir/thp2_4.txt"
diff "$canary_dir/thp2_1.txt" "$canary_dir/thp2_4.txt"
echo "canary: atd pipelined outputs identical at EXEC_THREADS=1 and 4"
# Farm invariance: the coordinator's merged digests must not depend on
# the fleet shape (1 head = pass-through, 3 heads = shard + re-merge) or
# on the pool width inside each head. Two diffs pin both axes.
EXEC_THREADS=4 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- farm 1 > "$canary_dir/farm_h1.txt"
EXEC_THREADS=4 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- farm 3 > "$canary_dir/farm_h3.txt"
diff "$canary_dir/farm_h1.txt" "$canary_dir/farm_h3.txt"
echo "canary: farm outputs identical at 1 and 3 heads"
EXEC_THREADS=1 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- farm 3 > "$canary_dir/farm_t1.txt"
diff "$canary_dir/farm_t1.txt" "$canary_dir/farm_h3.txt"
echo "canary: farm outputs identical at EXEC_THREADS=1 and 4"
# Store invariance: a store-backed daemon is killed after half the
# campaign, its newest segment gets a torn record tail (a crash
# mid-write), and a fresh daemon reboots over the same directory to
# serve the full stream. The output must be byte-identical at 1 and 4
# workers, and the per-spec digest table must match the in-memory
# canary's exactly — the durable tier may never change a result byte,
# even across a crash/recover boundary.
EXEC_THREADS=1 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- restart > "$canary_dir/store_t1.txt"
EXEC_THREADS=4 cargo run -q --release --offline -p gigatest-atd-farm --bin atd-load -- restart > "$canary_dir/store_t4.txt"
diff "$canary_dir/store_t1.txt" "$canary_dir/store_t4.txt"
echo "canary: store outputs identical at EXEC_THREADS=1 and 4"
grep -E '^[a-z]+ +[0-9a-f]{16} [0-9a-f]{16}' "$canary_dir/atd1.txt" > "$canary_dir/mem_digests.txt"
grep -E '^[a-z]+ +[0-9a-f]{16} [0-9a-f]{16}' "$canary_dir/store_t1.txt" > "$canary_dir/store_digests.txt"
diff "$canary_dir/mem_digests.txt" "$canary_dir/store_digests.txt"
echo "canary: store-backed digests identical to the in-memory run across a kill/restart"
# One request path: the loopback runs the daemon's own session code over
# in-memory buffers, so its digest table must equal the TCP daemon's.
grep -E '^[a-z]+ +[0-9a-f]{16} [0-9a-f]{16}' "$canary_dir/thp2_1.txt" > "$canary_dir/tcp_digests.txt"
diff "$canary_dir/mem_digests.txt" "$canary_dir/tcp_digests.txt"
echo "canary: loopback digests identical to the TCP daemon's"
# The farm's merged digests (3 heads, one pool worker) must equal the
# loopback's too: sharding and re-merging may never change a result byte.
grep -E '^[a-z]+ +[0-9a-f]{16} [0-9a-f]{16}' "$canary_dir/farm_t1.txt" > "$canary_dir/farm_digests.txt"
diff "$canary_dir/mem_digests.txt" "$canary_dir/farm_digests.txt"
echo "canary: farm merged digests identical to the loopback's"

//! One integration test per rule R1–R8 and the semantic passes against
//! the seeded fixture workspace in `tests/xlint_fixtures/`, plus binary
//! exit-code, SARIF-shape, and cache cold/warm byte-identity checks.

use std::path::{Path, PathBuf};
use std::process::Command;

use xlint::{analyze_root, Analysis, Finding, Severity};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/xlint_fixtures").join(name)
}

fn violations() -> Analysis {
    analyze_root(&fixture("violations")).expect("fixture analyzes")
}

fn with_rule<'a>(analysis: &'a Analysis, rule: &str) -> Vec<&'a Finding> {
    analysis.findings.iter().filter(|f| f.rule_id == rule).collect()
}

#[test]
fn r1_adhoc_seed_arithmetic_detected() {
    let a = violations();
    let hits = with_rule(&a, "no-adhoc-rng");
    assert!(
        hits.iter().any(|f| f.rel_path.ends_with("core/src/lib.rs")),
        "expected seed-xor hit in core/src/lib.rs, got {hits:?}"
    );
    assert!(hits.iter().all(|f| f.severity == Severity::Deny));
}

#[test]
fn r2_duplicate_stream_label_detected() {
    let a = violations();
    let hits = with_rule(&a, "stream-id-unique");
    assert!(!hits.is_empty(), "duplicate label fixture.duplicate must fire");
    assert!(hits.iter().all(|f| f.severity == Severity::Deny));
    assert!(hits.iter().any(|f| f.message.contains("fixture.duplicate")), "{hits:?}");
}

#[test]
fn r3_raw_ps_arithmetic_detected() {
    let a = violations();
    let hits = with_rule(&a, "no-raw-time-volt");
    assert!(
        hits.iter().any(|f| f.message.contains("edge_ps")),
        "raw f64 math on edge_ps must fire, got {hits:?}"
    );
}

#[test]
fn r4_library_panic_detected() {
    let a = violations();
    let hits = with_rule(&a, "no-panic-in-lib");
    assert!(
        hits.iter()
            .any(|f| f.rel_path.ends_with("core/src/lib.rs") && f.severity == Severity::Deny),
        "unwrap in library code must fire, got {hits:?}"
    );
}

#[test]
fn r5_lossy_cast_tiering() {
    let a = violations();
    let hits = with_rule(&a, "no-lossy-cast");
    let warn = hits.iter().find(|f| f.rel_path.ends_with("core/src/lib.rs"));
    let deny = hits.iter().find(|f| f.rel_path.ends_with("pstime/src/duration.rs"));
    assert_eq!(warn.expect("cast outside timing paths fires").severity, Severity::Warn);
    assert_eq!(deny.expect("cast in a timing path fires").severity, Severity::Deny);
}

#[test]
fn r6_hash_iteration_detected() {
    let a = violations();
    let hits = with_rule(&a, "no-wall-clock");
    assert!(
        hits.iter().any(|f| f.message.contains("HashMap")),
        "HashMap in library code must fire, got {hits:?}"
    );
}

/// A seeded exec-style worker-pool crate — ad-hoc per-worker seed
/// arithmetic plus wall-clock-driven chunk sizing — trips both the
/// determinism rules that matter most for a parallel engine.
#[test]
fn exec_style_pool_crate_trips_adhoc_rng_and_wall_clock() {
    let a = violations();
    let rng_hits = with_rule(&a, "no-adhoc-rng");
    assert!(
        rng_hits.iter().any(|f| f.rel_path.ends_with("parpool/src/lib.rs")),
        "worker-seed xor arithmetic must fire, got {rng_hits:?}"
    );
    let clock_hits = with_rule(&a, "no-wall-clock");
    assert!(
        clock_hits
            .iter()
            .any(|f| f.rel_path.ends_with("parpool/src/lib.rs") && f.severity == Severity::Deny),
        "std::time in pool scheduling must fire as deny, got {clock_hits:?}"
    );
}

#[test]
fn r7_missing_forbid_unsafe_detected() {
    let a = violations();
    let hits = with_rule(&a, "forbid-unsafe-everywhere");
    assert!(
        hits.iter().any(|f| f.rel_path.ends_with("core/src/lib.rs")),
        "crate root without forbid(unsafe_code) must fire, got {hits:?}"
    );
    // Conforming roots stay silent.
    assert!(!hits.iter().any(|f| f.rel_path.ends_with("other/src/lib.rs")), "{hits:?}");
}

#[test]
fn reasoned_allow_suppresses_and_reasonless_allow_is_deny() {
    let a = violations();
    assert!(a.suppressed >= 1, "the reasoned allow must suppress its finding");
    let panics = with_rule(&a, "no-panic-in-lib");
    assert!(
        !panics.iter().any(|f| f.rel_path.ends_with("core/src/allowed.rs")),
        "both allowed.rs unwraps are covered by directives, got {panics:?}"
    );
    let bad = with_rule(&a, "bad-allow");
    assert!(
        bad.iter().any(|f| f.rel_path.ends_with("core/src/allowed.rs")),
        "a reasonless allow must surface as bad-allow, got {bad:?}"
    );
    assert!(bad.iter().all(|f| f.severity == Severity::Deny));
}

#[test]
fn r8_racy_pool_job_detected_and_reasoned_allow_suppresses() {
    let a = violations();
    let hits = with_rule(&a, "exec-job-racy");
    let racy: Vec<_> = hits.iter().filter(|f| f.rel_path.ends_with("racy/src/lib.rs")).collect();
    assert!(
        racy.iter().any(|f| f.severity == Severity::Deny && f.message.contains("lock")),
        "the Mutex-mutating job must fire as deny, got {hits:?}"
    );
    // The reasoned-allow counter job stays silent: exactly the one finding.
    assert_eq!(racy.len(), 1, "counted_copy's allow must suppress its finding: {racy:?}");
}

/// A seeded atd-style scheduler crate: a drain job mutating a shared
/// cache and a frame decoder indexing raw wire bytes trip exactly the two
/// rules that guard the service layer, while its wholesale error wrap
/// keeps the bridge rule silent.
#[test]
fn atd_style_scheduler_crate_trips_racy_job_and_reachable_panic() {
    let a = violations();
    let racy = with_rule(&a, "exec-job-racy");
    assert!(
        racy.iter()
            .any(|f| f.rel_path.ends_with("atdsched/src/lib.rs") && f.severity == Severity::Deny),
        "the cache-mutating drain job must fire, got {racy:?}"
    );
    let reachable = with_rule(&a, "panic-reachable");
    let entry = reachable
        .iter()
        .find(|f| f.rel_path.ends_with("atdsched/src/lib.rs") && f.message.contains("frame_type"))
        .expect("the unchecked header read must be flagged at its pub entry point");
    assert_eq!(entry.severity, Severity::Deny);
    assert!(
        entry.message.contains("header_byte"),
        "the diagnostic must show the indexing root: {}",
        entry.message
    );
    let bridge = with_rule(&a, "error-bridge-exhaustive");
    assert!(
        !bridge.iter().any(|f| f.rel_path.ends_with("atdsched/src/lib.rs")),
        "the wholesale wrap is a complete bridge, got {bridge:?}"
    );
}

#[test]
fn panic_reachable_deep_chain_flagged_at_entry_with_chain() {
    let a = violations();
    let hits = with_rule(&a, "panic-reachable");
    let entry = hits
        .iter()
        .find(|f| f.rel_path.ends_with("deep/src/lib.rs") && f.message.contains("header_word"))
        .expect("the cross-file chain must be flagged at its pub entry point");
    assert_eq!(entry.severity, Severity::Deny);
    assert!(
        entry.message.contains("nth_word") && entry.message.contains("sink.rs"),
        "the diagnostic must show the offending call chain and root: {}",
        entry.message
    );
    assert!(
        !hits.iter().any(|f| f.message.contains("checked_word")),
        "a reasoned allow at the root site must clear the whole chain, got {hits:?}"
    );
}

#[test]
fn error_bridge_incomplete_match_flagged_and_wholesale_or_allowed_pass() {
    let a = violations();
    let hits = with_rule(&a, "error-bridge-exhaustive");
    let b = hits
        .iter()
        .find(|f| f.rel_path.ends_with("bridge/src/lib.rs"))
        .expect("the one-variant match bridge must be flagged");
    assert_eq!(b.severity, Severity::Deny);
    assert!(
        b.message.contains("WorkerPanicked") && b.message.contains("MissingResult"),
        "the diagnostic must name the missing variants: {}",
        b.message
    );
    assert!(
        !hits.iter().any(|f| f.rel_path.ends_with("racy/src/lib.rs")),
        "a wholesale wrap is a complete bridge, got {hits:?}"
    );
    assert!(
        !hits.iter().any(|f| f.rel_path.ends_with("relay/src/lib.rs")),
        "the reasoned allow at the invoke site must suppress, got {hits:?}"
    );
}

#[test]
fn r11_wire_taint_fires_and_sanitized_or_allowed_paths_stay_silent() {
    let a = violations();
    let hits = with_rule(&a, "wire-taint");
    let frameio: Vec<_> =
        hits.iter().filter(|f| f.rel_path.ends_with("frameio/src/lib.rs")).collect();
    assert!(
        frameio.iter().any(|f| f.severity == Severity::Deny && f.message.contains("with_capacity")),
        "the unchecked decoded length must fire, got {hits:?}"
    );
    assert_eq!(
        frameio.len(),
        1,
        "the limits-checked and reasoned-allow flows must stay silent: {frameio:?}"
    );
}

/// v4 interprocedural taint: the decoded count crosses two private call
/// hops, the diagnostic lands at the call site in the pub entry with the
/// whole chain, and the bounding/clamping callees clean their callers.
#[test]
fn wire_taint_crosses_function_boundaries_and_callee_bounds_clean() {
    let a = violations();
    let hits: Vec<_> = with_rule(&a, "wire-taint")
        .into_iter()
        .filter(|f| f.rel_path.ends_with("xprochain/src/lib.rs"))
        .collect();
    assert_eq!(hits.len(), 1, "only the unbounded chain may fire: {hits:?}");
    let hit = hits[0];
    assert_eq!(hit.severity, Severity::Deny);
    assert!(
        hit.message.contains("build_table")
            && hit.message.contains("reserve_slots")
            && hit.message.contains("with_capacity"),
        "the diagnostic must spell out the two-hop chain to the sink: {}",
        hit.message
    );
    assert_eq!(hit.related.len(), 3, "two fn hops plus the sink: {:?}", hit.related);
    assert!(
        !hit.message.contains("ingest_bounded") && !hit.message.contains("ingest_clamped"),
        "callee-side bounds must clean their callers: {}",
        hit.message
    );
}

/// R15 `stale-allow` and the unknown-rule arm of R8 `bad-allow`: a
/// reasoned directive that suppresses nothing is deny-tier, a typo'd
/// rule id is deny-tier, and a same-line reasoned stale-allow pin keeps
/// a stale directive alive.
#[test]
fn stale_allow_flags_dead_directives_and_pin_keeps_one_alive() {
    let a = violations();
    let stale: Vec<_> = with_rule(&a, "stale-allow")
        .into_iter()
        .filter(|f| f.rel_path.ends_with("staleallow/src/lib.rs"))
        .collect();
    assert_eq!(stale.len(), 1, "only STALE_DEAD may fire: {stale:?}");
    assert_eq!(stale[0].severity, Severity::Deny);
    assert!(
        stale[0].message.contains("no-wall-clock") && stale[0].message.contains("delete"),
        "the diagnostic names the dead rule and the fix: {}",
        stale[0].message
    );
    let bad: Vec<_> = with_rule(&a, "bad-allow")
        .into_iter()
        .filter(|f| f.rel_path.ends_with("staleallow/src/lib.rs"))
        .collect();
    assert_eq!(bad.len(), 1, "only the typo'd id may fire: {bad:?}");
    assert!(
        bad[0].message.contains("no-lossy-caste") && bad[0].message.contains("unknown rule id"),
        "{}",
        bad[0].message
    );
    // The used directive and the pinned-stale pair surface as neither
    // stale-allow nor a resurfaced base finding.
    assert!(
        !with_rule(&a, "no-lossy-cast")
            .iter()
            .any(|f| f.rel_path.ends_with("staleallow/src/lib.rs")),
        "the used allow must keep suppressing its cast"
    );
}

#[test]
fn r12_event_loop_blocking_fires_with_chain_and_allow_suppresses() {
    let a = violations();
    let hits = with_rule(&a, "event-loop-blocking");
    let join = hits
        .iter()
        .find(|f| f.rel_path.ends_with("evloop/src/lib.rs"))
        .expect("the blocking join must fire");
    assert_eq!(join.severity, Severity::Deny);
    assert!(
        join.message.contains("`.join()`") && join.message.contains("poll_once → drain_backlog"),
        "the diagnostic must show the loop-to-site chain: {}",
        join.message
    );
    assert!(
        !hits.iter().any(|f| f.message.contains("write_all")),
        "the reasoned allow must suppress the teardown flush, got {hits:?}"
    );
}

#[test]
fn r13_codec_symmetry_flags_the_orphan_and_allow_suppresses() {
    let a = violations();
    let hits = with_rule(&a, "codec-symmetry");
    let orphan =
        hits.iter().find(|f| f.message.contains("ORPHAN")).expect("the decode-only code must fire");
    assert_eq!(orphan.severity, Severity::Deny);
    assert!(
        orphan.message.contains("an encode path") && orphan.message.contains("golden-vector"),
        "the diagnostic must name what is missing: {}",
        orphan.message
    );
    assert!(
        !hits.iter().any(|f| f.message.contains("TRACE")),
        "the reasoned allow must suppress the one-way code, got {hits:?}"
    );
    assert!(
        !hits.iter().any(|f| f.message.contains("PING")),
        "the fully symmetric code must stay silent, got {hits:?}"
    );
}

#[test]
fn build_scripts_are_bound_by_hermeticity_rules() {
    let a = violations();
    let hits = with_rule(&a, "no-wall-clock");
    assert!(
        hits.iter().any(|f| f.rel_path == "build.rs"),
        "the SystemTime read in build.rs must fire, got {hits:?}"
    );
}

/// Acceptance check: a tree seeded with an ad-hoc seed, a duplicate
/// StreamId, raw `_ps` f64 arithmetic, and the semantic-rule crates
/// yields the corresponding rule-id diagnostics, and the binary exits
/// non-zero on it.
#[test]
fn seeded_violations_fail_the_binary_with_distinct_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_xlint"))
        .args(["--root", fixture("violations").to_str().expect("utf8 path"), "--no-cache"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "seeded violations must exit 1");
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    for rule in [
        "no-adhoc-rng",
        "stream-id-unique",
        "no-raw-time-volt",
        "exec-job-racy",
        "panic-reachable",
        "error-bridge-exhaustive",
    ] {
        assert!(stdout.contains(rule), "diagnostics must mention {rule}:\n{stdout}");
    }
}

#[test]
fn clean_tree_passes_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_xlint"))
        .args(["--root", fixture("clean").to_str().expect("utf8 path"), "--no-cache"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean fixture must exit 0: {out:?}");
}

#[test]
fn sarif_output_is_schema_shaped_and_byte_stable() {
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_xlint"))
            .args([
                "--root",
                fixture("violations").to_str().expect("utf8 path"),
                "--no-cache",
                "--format",
                "sarif",
            ])
            .output()
            .expect("binary runs")
    };
    let (first, second) = (run(), run());
    assert_eq!(first.stdout, second.stdout, "SARIF output must be byte-stable");
    let doc = xlint::json::parse(&String::from_utf8(first.stdout).expect("utf8"))
        .expect("SARIF parses as JSON");
    assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
    let run0 = doc.get("runs").and_then(|r| r.as_arr()).and_then(<[_]>::first).expect("one run");
    let driver = run0.get("tool").and_then(|t| t.get("driver")).expect("driver");
    assert_eq!(driver.get("name").and_then(|n| n.as_str()), Some("gigatest-xlint"));
    let results = run0.get("results").and_then(|r| r.as_arr()).expect("results");
    assert!(!results.is_empty(), "the violations tree must produce results");
    for rule in ["exec-job-racy", "panic-reachable", "error-bridge-exhaustive"] {
        assert!(
            results.iter().any(|r| r.get("ruleId").and_then(|v| v.as_str()) == Some(rule)),
            "SARIF results must include {rule}"
        );
    }
}

/// Cold run populates the cache; the warm run reuses it — and the findings
/// documents must be byte-identical.
#[test]
fn warm_cache_run_is_byte_identical_to_cold() {
    let cache = std::env::temp_dir().join(format!("xlint-warm-cache-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_xlint"))
            .args([
                "--root",
                fixture("violations").to_str().expect("utf8 path"),
                "--cache",
                cache.to_str().expect("utf8 path"),
                "--format",
                "json",
            ])
            .output()
            .expect("binary runs")
    };
    let cold = run();
    let warm = run();
    let _ = std::fs::remove_file(&cache);
    assert_eq!(cold.status.code(), Some(1));
    assert_eq!(warm.status.code(), Some(1));
    assert_eq!(cold.stdout, warm.stdout, "warm-cache findings must be byte-identical");
    let cold_summary = String::from_utf8(cold.stderr).expect("utf8");
    let warm_summary = String::from_utf8(warm.stderr).expect("utf8");
    assert!(cold_summary.contains("(0 from cache)"), "cold run starts empty: {cold_summary}");
    assert!(
        !warm_summary.contains("(0 from cache)"),
        "warm run must reuse cached facts: {warm_summary}"
    );
}

/// The persistent store's record grammar is wire-grade hostile input:
/// `decode_header` is a taint source, so a disk-decoded length sizing a
/// buffer unvalidated fires, while the `limits::`-checked and
/// reasoned-allow flows stay silent.
#[test]
fn store_reader_fixture_pins_wire_taint_firing_and_suppressed() {
    let a = violations();
    let storeio: Vec<_> = with_rule(&a, "wire-taint")
        .into_iter()
        .filter(|f| f.rel_path.ends_with("storeio/src/lib.rs"))
        .collect();
    assert!(
        storeio.iter().any(|f| f.severity == Severity::Deny && f.message.contains("with_capacity")),
        "the unchecked disk-decoded length must fire, got {storeio:?}"
    );
    assert_eq!(
        storeio.len(),
        1,
        "the limits-checked and reasoned-allow readers must stay silent: {storeio:?}"
    );
}

#[test]
fn farm_router_fixture_pins_wire_taint_and_panic_reachable() {
    let a = violations();
    let taint: Vec<_> = with_rule(&a, "wire-taint")
        .into_iter()
        .filter(|f| f.rel_path.ends_with("farmring/src/lib.rs"))
        .collect();
    assert!(
        taint.iter().any(|f| f.severity == Severity::Deny && f.message.contains("with_capacity")),
        "the unchecked decoded head count must fire, got {taint:?}"
    );
    assert_eq!(
        taint.len(),
        1,
        "the limits-checked and reasoned-allow rings must stay silent: {taint:?}"
    );
    let reachable = with_rule(&a, "panic-reachable");
    let entry = reachable
        .iter()
        .find(|f| f.rel_path.ends_with("farmring/src/lib.rs") && f.message.contains("point_at"))
        .expect("the unchecked ring lookup must be flagged at its pub entry point");
    assert_eq!(entry.severity, Severity::Deny);
    assert!(
        entry.message.contains("route"),
        "the diagnostic must name the pub routing entry: {}",
        entry.message
    );
    assert!(
        !reachable
            .iter()
            .any(|f| f.rel_path.ends_with("farmring/src/lib.rs")
                && f.message.contains("point_guarded")),
        "the reasoned allow at the root must clear the guarded chain, got {reachable:?}"
    );
}

/// R16 `unreached-pub`: a bare `pub fn` in library source that no other
/// file names fires, even when its own crate re-exports it; a function
/// named only by another crate's integration test, an example, a
/// `.method()` call or a headbench-shaped user stays silent, as do
/// `pub(crate)` fns, binaries and a reasoned suppression.
#[test]
fn unreached_pub_fires_on_orphans_and_counts_every_outside_name() {
    let a = violations();
    let hits: Vec<_> = with_rule(&a, "unreached-pub")
        .into_iter()
        .filter(|f| f.rel_path.starts_with("crates/unreached/"))
        .collect();
    let named = |name: &str| hits.iter().any(|f| f.message.contains(&format!("`pub fn {name}`")));
    assert!(named("orphan"), "a fn no other file names must fire: {hits:?}");
    assert!(named("reexported_only"), "its own crate's pub use is not a use: {hits:?}");
    assert_eq!(hits.len(), 2, "everything else in the fixture is reached or suppressed: {hits:?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Warn));
    assert!(
        !a.findings.iter().any(|f| f.rel_path.starts_with("headbench/")),
        "a headbench-shaped user is read for names, never linted"
    );
    assert!(
        !a.findings.iter().any(|f| f.rule_id == "stale-allow" && f.rel_path.ends_with("api.rs")),
        "the reasoned allow on `held` must suppress its finding"
    );
}

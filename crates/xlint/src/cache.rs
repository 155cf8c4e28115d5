//! Content-hash incremental cache (`target/xlint-cache.json`).
//!
//! The cache stores the [`FileFacts`] of every analyzed file keyed by the
//! FNV-1a 64 hash of its bytes. On a warm run, an unchanged file skips
//! lexing, parsing, and the per-file rules entirely; the cross-file passes
//! (stream uniqueness, panic reachability, error bridges) are *always*
//! recomputed from the full fact set, so cold and warm runs emit
//! byte-identical findings.
//!
//! The cache is strictly best-effort: any read, parse, shape, or version
//! mismatch is treated as an absent cache, and a failed write never fails
//! the lint.

use std::collections::BTreeMap;
use std::path::Path;

use crate::facts::FileFacts;
use crate::json::{parse, Json};

/// Bumped whenever rules, facts, or serialization change shape, so stale
/// caches from older binaries self-invalidate.
pub const CACHE_VERSION: i64 = 4;

/// FNV-1a 64 fingerprint of the active rule set plus the binary's build
/// identity (crate version, the `XLINT_BUILD_ID` source hash emitted by
/// `build.rs`, and the cache schema). Folded into the cache key so a
/// rule-set change — or any analyzer source change at all — can never
/// serve findings computed under the old rules, even if someone forgets
/// the manual [`CACHE_VERSION`] bump.
fn fingerprint_for(rules: &[&str]) -> u64 {
    let mut bytes = Vec::new();
    for r in rules {
        bytes.extend_from_slice(r.as_bytes());
        bytes.push(0);
    }
    bytes.extend_from_slice(env!("CARGO_PKG_VERSION").as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(env!("XLINT_BUILD_ID").as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&CACHE_VERSION.to_be_bytes());
    crate::facts::fnv1a(&bytes)
}

/// The fingerprint of the rules this binary was built with.
pub fn fingerprint() -> u64 {
    fingerprint_for(crate::facts::RULE_IDS)
}

/// Load a cache file into a by-path map. Any problem yields an empty map.
pub fn load(path: &Path) -> BTreeMap<String, FileFacts> {
    let mut map = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else { return map };
    let Some(doc) = parse(&text) else { return map };
    if doc.get("version").and_then(Json::as_int) != Some(CACHE_VERSION) {
        return map;
    }
    let fp = doc.get("fingerprint").and_then(Json::as_str);
    if fp != Some(format!("{:016x}", fingerprint()).as_str()) {
        return map;
    }
    let Some(files) = doc.get("files").and_then(Json::as_arr) else { return map };
    for entry in files {
        let Some(facts) = FileFacts::from_json(entry) else {
            // One malformed entry means the whole file is untrustworthy.
            return BTreeMap::new();
        };
        map.insert(facts.rel_path.clone(), facts);
    }
    map
}

/// Render the cache document for a fact set (already path-sorted).
pub fn render(facts: &[FileFacts]) -> String {
    Json::obj(vec![
        ("version", Json::Int(CACHE_VERSION)),
        ("fingerprint", Json::Str(format!("{:016x}", fingerprint()))),
        ("files", Json::Arr(facts.iter().map(FileFacts::to_json).collect())),
    ])
    .render()
}

/// Write the cache, creating the parent directory if needed. Best-effort:
/// failures are swallowed — an unwritable target dir must not fail a lint.
pub fn save(path: &Path, facts: &[FileFacts]) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(path, render(facts));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, SourceFile};
    use crate::facts::build_facts;
    use std::path::PathBuf;

    #[test]
    fn round_trips_and_rejects_bad_versions() {
        let rel = "crates/alpha/src/lib.rs";
        let file = SourceFile {
            rel_path: rel.to_string(),
            abs_path: PathBuf::from(rel),
            class: classify(rel).expect("classifiable"),
        };
        let facts = build_facts(&file, "pub fn f() -> u64 { 1 }\n").expect("facts");
        let rendered = render(std::slice::from_ref(&facts));

        let dir = std::env::temp_dir().join("xlint-cache-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cache.json");
        std::fs::write(&path, &rendered).expect("write");
        let loaded = load(&path);
        assert_eq!(loaded.get(rel), Some(&facts));

        std::fs::write(
            &path,
            rendered.replace(&format!("\"version\":{CACHE_VERSION}"), "\"version\":999"),
        )
        .expect("write");
        assert!(load(&path).is_empty());

        std::fs::write(&path, "not json at all").expect("write");
        assert!(load(&path).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rule_set_change_flips_the_fingerprint_and_forces_recompute() {
        // Flipping any rule (here: dropping the last one) must change the
        // fingerprint, and a cache written under a different rule set
        // must load as empty — i.e. every file recomputes.
        let current = fingerprint_for(crate::facts::RULE_IDS);
        let mut flipped: Vec<&str> = crate::facts::RULE_IDS.to_vec();
        flipped.pop();
        assert_ne!(current, fingerprint_for(&flipped));
        let renamed: Vec<&str> = crate::facts::RULE_IDS
            .iter()
            .map(|r| if *r == "wire-taint" { "wire-taintt" } else { *r })
            .collect();
        assert_ne!(current, fingerprint_for(&renamed));

        let rel = "crates/alpha/src/lib.rs";
        let file = SourceFile {
            rel_path: rel.to_string(),
            abs_path: PathBuf::from(rel),
            class: classify(rel).expect("classifiable"),
        };
        let facts = build_facts(&file, "pub fn f() -> u64 { 1 }\n").expect("facts");
        let rendered = render(std::slice::from_ref(&facts));
        let dir = std::env::temp_dir().join("xlint-cache-fp-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cache.json");

        // Same fingerprint: served. Foreign fingerprint: recomputed.
        std::fs::write(&path, &rendered).expect("write");
        assert!(!load(&path).is_empty());
        let foreign = format!("{:016x}", fingerprint_for(&flipped));
        let ours = format!("{:016x}", fingerprint());
        std::fs::write(&path, rendered.replace(&ours, &foreign)).expect("write");
        assert!(load(&path).is_empty(), "a rule flip must invalidate the cache");
        let _ = std::fs::remove_file(&path);
    }
}

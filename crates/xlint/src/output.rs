//! Machine-readable renderings of an [`Analysis`]: plain findings JSON
//! (what CI diffs for cold/warm byte-identity) and SARIF 2.1.0 (what CI
//! uploads for code-scanning annotations).
//!
//! Both renderings go through [`crate::json::Json`], whose objects keep
//! insertion order — the same analysis always serializes to the same bytes.

use crate::engine::Analysis;
use crate::json::Json;
use crate::rules::{Finding, Severity};

/// One-line description per rule id, embedded in the SARIF rule table.
pub const RULE_DESCRIPTIONS: &[(&str, &str)] = &[
    ("no-adhoc-rng", "All randomness flows through rng::SeedTree named streams"),
    ("stream-id-unique", "A SeedTree stream label names exactly one component"),
    ("no-raw-time-volt", "Picosecond/millivolt math uses the pstime newtypes"),
    ("no-panic-in-lib", "Library code returns the crate error type instead of panicking"),
    ("no-lossy-cast", "No silently-truncating `as` casts; use From/try_from or justify"),
    ("no-wall-clock", "No wall-clock reads or hash-order iteration in result-producing code"),
    ("forbid-unsafe-everywhere", "Every crate root carries #![forbid(unsafe_code)]"),
    ("bad-allow", "Every xlint::allow carries a written reason"),
    ("exec-job-racy", "ExecPool job closures stay pure: no shared-mutation primitives"),
    ("panic-reachable", "No pub fn transitively reaches a panic through workspace calls"),
    (
        "error-bridge-exhaustive",
        "Crates invoking exec bridge ExecError completely into their error type",
    ),
    ("wire-taint", "Wire-decoded values pass validate/limits before sizing or exec sinks"),
    ("event-loop-blocking", "Nothing reachable from the server event loop calls a blocking API"),
    ("codec-symmetry", "Every wire message type encodes, decodes, and has a golden vector"),
    ("stale-allow", "Every reasoned xlint::allow still suppresses at least one finding"),
    ("unreached-pub", "Every pub fn in library source is named by some other file"),
];

fn finding_json(f: &Finding) -> Json {
    let mut pairs = vec![
        ("rule", Json::str(f.rule_id)),
        ("severity", Json::str(f.severity.label())),
        ("path", Json::str(&f.rel_path)),
        ("line", Json::Int(i64::from(f.line))),
        ("col", Json::Int(i64::from(f.col))),
        ("message", Json::str(&f.message)),
    ];
    if !f.related.is_empty() {
        pairs.push((
            "related",
            Json::Arr(
                f.related
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("path", Json::str(&r.rel_path)),
                            ("line", Json::Int(i64::from(r.line))),
                            ("col", Json::Int(i64::from(r.col))),
                            ("note", Json::str(&r.note)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(pairs)
}

/// The `--format json` document.
pub fn findings_json(analysis: &Analysis) -> Json {
    Json::obj(vec![
        ("tool", Json::str("gigatest-xlint")),
        ("files", Json::Int(i64::try_from(analysis.files).unwrap_or(i64::MAX))),
        ("suppressed", Json::Int(i64::try_from(analysis.suppressed).unwrap_or(i64::MAX))),
        ("findings", Json::Arr(analysis.findings.iter().map(finding_json).collect())),
    ])
}

/// The `--format sarif` document (SARIF 2.1.0, one run, one driver).
pub fn sarif(analysis: &Analysis) -> Json {
    let rules = RULE_DESCRIPTIONS
        .iter()
        .map(|(id, desc)| {
            Json::obj(vec![
                ("id", Json::str(id)),
                ("shortDescription", Json::obj(vec![("text", Json::str(desc))])),
            ])
        })
        .collect();
    let results = analysis
        .findings
        .iter()
        .map(|f| {
            let level = match f.severity {
                Severity::Deny => "error",
                Severity::Warn => "warning",
            };
            let mut pairs = vec![
                ("ruleId", Json::str(f.rule_id)),
                ("level", Json::str(level)),
                ("message", Json::obj(vec![("text", Json::str(&f.message))])),
                (
                    "locations",
                    Json::Arr(vec![Json::obj(vec![(
                        "physicalLocation",
                        Json::obj(vec![
                            ("artifactLocation", Json::obj(vec![("uri", Json::str(&f.rel_path))])),
                            (
                                "region",
                                Json::obj(vec![
                                    ("startLine", Json::Int(i64::from(f.line))),
                                    ("startColumn", Json::Int(i64::from(f.col))),
                                ]),
                            ),
                        ]),
                    )])]),
                ),
            ];
            if !f.related.is_empty() {
                pairs.push((
                    "relatedLocations",
                    Json::Arr(
                        f.related
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    (
                                        "physicalLocation",
                                        Json::obj(vec![
                                            (
                                                "artifactLocation",
                                                Json::obj(vec![("uri", Json::str(&r.rel_path))]),
                                            ),
                                            (
                                                "region",
                                                Json::obj(vec![
                                                    ("startLine", Json::Int(i64::from(r.line))),
                                                    ("startColumn", Json::Int(i64::from(r.col))),
                                                ]),
                                            ),
                                        ]),
                                    ),
                                    ("message", Json::obj(vec![("text", Json::str(&r.note))])),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Json::obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("$schema", Json::str("https://json.schemastore.org/sarif-2.1.0.json")),
        ("version", Json::str("2.1.0")),
        (
            "runs",
            Json::Arr(vec![Json::obj(vec![
                (
                    "tool",
                    Json::obj(vec![(
                        "driver",
                        Json::obj(vec![
                            ("name", Json::str("gigatest-xlint")),
                            ("rules", Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", Json::Arr(results)),
            ])]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::RULE_IDS;

    fn sample() -> Analysis {
        Analysis {
            findings: vec![Finding {
                rule_id: "panic-reachable",
                severity: Severity::Deny,
                rel_path: "crates/alpha/src/lib.rs".to_string(),
                line: 3,
                col: 1,
                message: "pub fn `f` can reach a panic".to_string(),
                related: vec![crate::rules::Related {
                    rel_path: "crates/alpha/src/sink.rs".to_string(),
                    line: 9,
                    col: 5,
                    note: "the root panic site (indexing)".to_string(),
                }],
            }],
            suppressed: 2,
            files: 5,
            cache_hits: 0,
        }
    }

    #[test]
    fn every_rule_id_has_a_sarif_description() {
        for id in RULE_IDS {
            assert!(
                RULE_DESCRIPTIONS.iter().any(|(r, _)| r == id),
                "missing SARIF description for {id}"
            );
        }
        assert_eq!(RULE_DESCRIPTIONS.len(), RULE_IDS.len());
    }

    #[test]
    fn sarif_is_schema_shaped_and_stable() {
        let doc = sarif(&sample());
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
        let run = runs.first().expect("one run");
        let driver = run.get("tool").and_then(|t| t.get("driver")).expect("driver");
        assert_eq!(driver.get("name").and_then(Json::as_str), Some("gigatest-xlint"));
        let results = run.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.get("ruleId").and_then(Json::as_str), Some("panic-reachable"));
        assert_eq!(r.get("level").and_then(Json::as_str), Some("error"));
        let rel = r.get("relatedLocations").and_then(Json::as_arr).expect("relatedLocations");
        assert_eq!(rel.len(), 1);
        let note = rel[0].get("message").and_then(|m| m.get("text")).and_then(Json::as_str);
        assert_eq!(note, Some("the root panic site (indexing)"));
        // Byte stability: rendering twice is identical.
        assert_eq!(doc.render(), sarif(&sample()).render());
    }

    #[test]
    fn findings_json_carries_counts_and_positions() {
        let doc = findings_json(&sample());
        assert_eq!(doc.get("files").and_then(Json::as_int), Some(5));
        assert_eq!(doc.get("suppressed").and_then(Json::as_int), Some(2));
        let fs = doc.get("findings").and_then(Json::as_arr).expect("findings");
        assert_eq!(fs[0].get("line").and_then(Json::as_int), Some(3));
    }
}

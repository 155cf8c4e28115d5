//! Orchestration: walk, build per-file facts, run the cross-file passes,
//! apply suppressions.
//!
//! Analysis is two-phase. The per-file phase (lex → parse → local rules)
//! is a pure function of each file's bytes. The cross-file phase
//! (stream-label uniqueness, call-graph panic reachability, error-bridge
//! completeness) runs over the complete fact set.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::classify::{collect_sources, FileClass, SourceFile};
use crate::dataflow::check_codec_symmetry;
use crate::error::XlintError;
use crate::facts::{build_facts, intern_rule, FileFacts};
use crate::graph::{check_error_bridges, check_event_loop_blocking, check_panic_reachable};
use crate::rules::{check_stream_uniqueness, check_unreached_pub, Finding, Severity, StreamUse};

/// The post-suppression result of linting a tree.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings that survived suppression, deny first, then by path/line.
    pub findings: Vec<Finding>,
    /// Number of findings silenced by a reasoned `xlint::allow`.
    pub suppressed: usize,
    /// Number of files linted.
    pub files: usize,
}

/// Lint every in-scope file under `root`: build each file's facts, then
/// run the cross-file phase over all of them.
pub fn analyze_root(root: &Path) -> Result<Analysis, XlintError> {
    let facts = collect_sources(root)?
        .iter()
        .map(|file| build_facts(file, &read_source(file)?))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(analyze_facts(facts))
}

fn read_source(file: &SourceFile) -> Result<String, XlintError> {
    std::fs::read_to_string(&file.abs_path).map_err(|e| XlintError::Io {
        path: file.abs_path.display().to_string(),
        msg: e.to_string(),
    })
}

/// The cross-file phase: merge local findings, run the workspace-wide
/// rules, apply suppressions, sort deterministically.
fn analyze_facts(facts: Vec<FileFacts>) -> Analysis {
    let mut findings: Vec<Finding> = Vec::new();
    for fact in &facts {
        findings.extend(fact.local_findings.iter().cloned());
    }

    // R2: stream-label uniqueness across files.
    let mut streams: BTreeMap<String, Vec<StreamUse>> = BTreeMap::new();
    for fact in &facts {
        for s in &fact.streams {
            streams.entry(s.label.clone()).or_default().push(StreamUse {
                rel_path: fact.rel_path.clone(),
                line: s.line,
                col: s.col,
            });
        }
    }
    check_stream_uniqueness(&streams, &mut findings);
    check_unreached_pub(&facts, &mut findings);

    // Semantic passes over the call graph and the exec bridges.
    check_panic_reachable(&facts, &mut findings);
    check_error_bridges(&facts, &mut findings);
    check_event_loop_blocking(&facts, &mut findings);
    check_codec_symmetry(&facts, &mut findings);
    crate::summary::check_wire_taint(&facts, &mut findings);

    // R8 `bad-allow`, unknown-rule arm: a directive naming a rule id the
    // linter does not define suppresses nothing, forever — a typo'd rule
    // is a silent hole in the ratchet. Pushed pre-suppression so a
    // reasoned same-line bad-allow directive can still justify it.
    for fact in &facts {
        for d in &fact.allows {
            if intern_rule(&d.rule_id).is_none() {
                findings.push(Finding {
                    rule_id: "bad-allow",
                    severity: Severity::Deny,
                    rel_path: fact.rel_path.clone(),
                    line: d.line,
                    col: 1,
                    message: format!(
                        "xlint::allow({}) names an unknown rule id — it suppresses nothing; \
                         fix the id (see the README rule table) or delete the directive",
                        d.rule_id
                    ),
                    related: Vec::new(),
                });
            }
        }
    }

    let linted = facts.iter().filter(|f| f.class != FileClass::External).count();
    let mut analysis = Analysis { files: linted, ..Analysis::default() };
    // Directives that suppressed at least one finding, keyed by
    // (file, rule, directive line). Seeded with the directives consumed
    // at fact-build time (panic/blocking sites dropped at the source),
    // which this pass otherwise could not observe.
    let mut used: BTreeSet<(String, String, u32)> = BTreeSet::new();
    for fact in &facts {
        for (rule, line) in &fact.used_allows {
            used.insert((fact.rel_path.clone(), rule.clone(), *line));
        }
    }
    for finding in findings {
        let covering = facts.iter().find(|f| f.rel_path == finding.rel_path).and_then(|f| {
            f.allows.iter().find(|d| d.covers(&f.token_lines, finding.rule_id, finding.line))
        });
        match covering {
            Some(directive) if directive.reason.is_empty() => {
                // An allow with no reason is itself a contract violation:
                // the audit trail is the point.
                analysis.findings.push(Finding {
                    rule_id: "bad-allow",
                    severity: Severity::Deny,
                    rel_path: finding.rel_path.clone(),
                    line: directive.line,
                    col: 1,
                    message: format!(
                        "xlint::allow({}) has no reason — write \
                         xlint::allow({}, \"why this is sound\")",
                        finding.rule_id, finding.rule_id
                    ),
                    related: Vec::new(),
                });
            }
            Some(directive) => {
                used.insert((finding.rel_path.clone(), directive.rule_id.clone(), directive.line));
                analysis.suppressed += 1;
            }
            None => analysis.findings.push(finding),
        }
    }

    // R15 `stale-allow`: a reasoned directive that suppressed nothing is
    // the ratchet's garbage — under v4's stronger analysis the justified
    // finding may simply no longer exist. Deletion is the fix; a reasoned
    // same-line stale-allow directive keeps one alive (e.g. for in-flight
    // work), and is itself exempt, as are unknown rule ids (bad-allow
    // already owns those) and reasonless directives.
    for fact in &facts {
        for d in &fact.allows {
            if d.reason.is_empty()
                || d.rule_id == "stale-allow"
                || intern_rule(&d.rule_id).is_none()
                || used.contains(&(fact.rel_path.clone(), d.rule_id.clone(), d.line))
            {
                continue;
            }
            let kept = fact
                .allows
                .iter()
                .any(|a| a.rule_id == "stale-allow" && !a.reason.is_empty() && a.line == d.line);
            if kept {
                analysis.suppressed += 1;
                continue;
            }
            analysis.findings.push(Finding {
                rule_id: "stale-allow",
                severity: Severity::Deny,
                rel_path: fact.rel_path.clone(),
                line: d.line,
                col: 1,
                message: format!(
                    "xlint::allow({}, ..) suppresses zero findings — the justified violation \
                     no longer exists; delete the stale directive (or pin it with a same-line \
                     xlint::allow(stale-allow, reason) while a fix is in flight)",
                    d.rule_id
                ),
                related: Vec::new(),
            });
        }
    }
    analysis.findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rel_path.cmp(&b.rel_path))
            .then_with(|| (a.line, a.col).cmp(&(b.line, b.col)))
            .then_with(|| a.rule_id.cmp(b.rule_id))
    });
    analysis.findings.dedup();
    analysis
}

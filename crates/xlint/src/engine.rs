//! Orchestration: walk, build (or reuse cached) per-file facts, run the
//! cross-file passes, apply suppressions.
//!
//! Analysis is two-phase. The per-file phase (lex → parse → local rules)
//! is a pure function of each file's bytes and is what the incremental
//! cache skips for unchanged files. The cross-file phase (stream-label
//! uniqueness, call-graph panic reachability, error-bridge completeness)
//! always runs over the complete fact set, so a warm run produces
//! byte-identical findings to a cold one.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::cache;
use crate::classify::{collect_sources, FileClass, SourceFile};
use crate::dataflow::check_codec_symmetry;
use crate::error::XlintError;
use crate::facts::{build_facts, intern_rule, FileFacts};
use crate::graph::{check_error_bridges, check_event_loop_blocking, check_panic_reachable};
use crate::lexer::AllowDirective;
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
    /// Number of files whose facts came from the cache unchanged.
    pub cache_hits: usize,
}

/// Lint every in-scope file under `root`, without a cache.
pub fn analyze_root(root: &Path) -> Result<Analysis, XlintError> {
    analyze_root_cached(root, None)
}

/// Lint every in-scope file under `root`. With `Some(cache_path)`, facts
/// for unchanged files are reused from the cache, and the refreshed cache
/// is written back (best-effort).
pub fn analyze_root_cached(root: &Path, cache_path: Option<&Path>) -> Result<Analysis, XlintError> {
    let sources = collect_sources(root)?;
    let cached = cache_path.map(cache::load).unwrap_or_default();

    let mut facts: Vec<FileFacts> = Vec::with_capacity(sources.len());
    let mut cache_hits = 0usize;
    for file in &sources {
        let src = read_source(file)?;
        let hash = crate::facts::fnv1a(src.as_bytes());
        match cached.get(&file.rel_path) {
            Some(hit) if hit.hash == hash && hit.class == file.class => {
                cache_hits += usize::from(file.class != FileClass::External);
                facts.push(hit.clone());
            }
            _ => facts.push(build_facts(file, &src)?),
        }
    }
    if let Some(path) = cache_path {
        cache::save(path, &facts);
    }
    let mut analysis = analyze_facts(facts);
    analysis.cache_hits = cache_hits;
    Ok(analysis)
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
        let covering = facts
            .iter()
            .find(|f| f.rel_path == finding.rel_path)
            .and_then(|f| covering_allow(&f.allows, &f.token_lines, &finding));
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

/// Does some directive cover `finding`? A directive on line L covers
/// findings on L and on the next token-bearing line after L (the
/// "comment above the offending line" idiom).
fn covering_allow<'a>(
    allows: &'a [AllowDirective],
    token_lines: &[u32],
    finding: &Finding,
) -> Option<&'a AllowDirective> {
    allows.iter().find(|d| {
        d.rule_id == finding.rule_id
            && (d.line == finding.line
                || token_lines
                    .iter()
                    .find(|t| **t > d.line)
                    .is_some_and(|next| *next == finding.line))
    })
}

//! Per-file analysis facts.
//!
//! The engine splits analysis into a *per-file* phase (lex, parse, local
//! token rules) and a *cross-file* phase (stream uniqueness, call-graph
//! panic reachability, error-bridge completeness). Everything the
//! cross-file phase needs from one file is captured here as [`FileFacts`]
//! — a pure function of the file's bytes — so the cross-file rules never
//! look at raw source.

use crate::classify::{FileClass, SourceFile};
use crate::error::XlintError;
use crate::lexer::{lex, AllowDirective};
use crate::parse::{parse_items, EnumDef, FnDef, UsePath};
use crate::rules::{check_file_local, FileTokens, Finding};
use crate::summary::FnFlow;

/// Every rule id the linter can emit. An allow directive naming any
/// other id is a `bad-allow`.
pub const RULE_IDS: &[&str] = &[
    "no-adhoc-rng",
    "stream-id-unique",
    "no-raw-time-volt",
    "no-panic-in-lib",
    "no-lossy-cast",
    "no-wall-clock",
    "forbid-unsafe-everywhere",
    "bad-allow",
    "exec-job-racy",
    "panic-reachable",
    "error-bridge-exhaustive",
    "wire-taint",
    "event-loop-blocking",
    "codec-symmetry",
    "stale-allow",
    "unreached-pub",
];

/// Re-intern a rule id string into the static table.
pub fn intern_rule(id: &str) -> Option<&'static str> {
    RULE_IDS.iter().find(|r| **r == id).copied()
}

/// One `StreamId` label use site (R2 input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFact {
    /// The domain label string.
    pub label: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One `impl From<..ExecError..> for Target` bridge found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeFact {
    /// The bridged-into type name.
    pub target: String,
    /// Whether the impl body matches on variants (a wholesale wrap like
    /// `Self::Exec(e)` is exhaustive by construction).
    pub uses_match: bool,
    /// Capitalized identifiers mentioned in the impl body — the variant
    /// names a `match` arm set can cover.
    pub mentioned: Vec<String>,
    /// 1-based line of the impl.
    pub line: u32,
    /// 1-based column of the impl.
    pub col: u32,
}

/// Which codec-side context a `msg::NAME` reference sits in (R13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgCtx {
    /// Inside an encode-shaped function (`to_*`, `*encode*`, `parts`).
    Encode,
    /// Inside a decode-shaped function (`from_*`, `*decode*`).
    Decode,
    /// In a golden-vector test file.
    Golden,
    /// Anywhere else (match arms in handlers, docs, non-golden tests).
    Other,
}

/// One wire message constant declared in a `mod msg { .. }` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgConst {
    /// The constant's name (e.g. `SUBMIT`).
    pub name: String,
    /// 1-based line of the declaration.
    pub line: u32,
    /// 1-based column of the declaration.
    pub col: u32,
}

/// One deduplicated `msg::NAME` reference with its classified context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgRef {
    /// The referenced constant's name.
    pub name: String,
    /// The context class of the reference site.
    pub ctx: MsgCtx,
}

/// One bare-`pub` fn defined outside test code in library source
/// (`unreached-pub` input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubFn {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `pub` keyword.
    pub line: u32,
    /// 1-based column of the `pub` keyword.
    pub col: u32,
}

/// Everything the cross-file phase needs from one source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFacts {
    /// Root-relative path with `/` separators.
    pub rel_path: String,
    /// Classification (decides rule scope).
    pub class: FileClass,
    /// Findings from the per-file rules (R1, R3–R8), pre-suppression.
    pub local_findings: Vec<Finding>,
    /// Suppression directives in the file.
    pub allows: Vec<AllowDirective>,
    /// Lines carrying at least one token (directive coverage resolution).
    pub token_lines: Vec<u32>,
    /// `StreamId` label uses (R2 input), non-test code only.
    pub streams: Vec<StreamFact>,
    /// Parsed functions with calls and surviving panic sites.
    pub fns: Vec<FnDef>,
    /// Parsed enums (the `ExecError` variant list comes from here).
    pub enums: Vec<EnumDef>,
    /// Parsed use-paths (call resolution input).
    pub uses: Vec<UsePath>,
    /// First exec-API invocation site in the file, if any.
    pub exec_invoke: Option<(u32, u32)>,
    /// `From<ExecError>` bridges defined in the file.
    pub bridges: Vec<BridgeFact>,
    /// Deduplicated `*Error` type names the file mentions (bridge-by-
    /// reference detection for crates that reuse another crate's error).
    pub error_mentions: Vec<String>,
    /// Wire message constants declared in this file (R13 input).
    pub msg_consts: Vec<MsgConst>,
    /// Classified `msg::NAME` references in this file (R13 input).
    pub msg_refs: Vec<MsgRef>,
    /// Per-function taint flows (R11 input), parallel to [`FileFacts::fns`].
    pub flows: Vec<FnFlow>,
    /// `(rule_id, directive line)` of every allow consumed at build time
    /// (panic/blocking sites dropped by a reasoned directive) — seed data
    /// for the stale-allow pass, which otherwise could not see that these
    /// directives did suppress something.
    pub used_allows: Vec<(String, u32)>,
    /// Bare-`pub` fns of library source (`crates/*/src`, but not
    /// `src/bin/` or `main.rs`), test code excluded (`unreached-pub` input).
    pub pub_fns: Vec<PubFn>,
    /// Sorted, deduplicated identifiers the file's code names outside its
    /// `pub use` items: what `unreached-pub` matches definitions against.
    pub names: Vec<String>,
}

/// The reasoned directive covering `(rule_id, line)`, if any (see
/// [`AllowDirective::covers`]); it is returned by reference so callers can
/// record it as *used* (the stale-allow pass's input).
fn covering_directive<'a>(
    allows: &'a [AllowDirective],
    token_lines: &[u32],
    rule_id: &str,
    line: u32,
) -> Option<&'a AllowDirective> {
    allows.iter().find(|d| !d.reason.is_empty() && d.covers(token_lines, rule_id, line))
}

/// Build the facts for one file from its contents. This is the whole
/// per-file phase; the result is a pure function of `(rel_path, src)`.
pub fn build_facts(file: &SourceFile, src: &str) -> Result<FileFacts, XlintError> {
    let lexed = lex(&file.rel_path, src)?;
    let ft = FileTokens::new(file, &lexed);
    let (pub_fns, names) = name_facts(&ft);
    if file.class == FileClass::External {
        // Read for the names it uses only: no rule binds here.
        return Ok(FileFacts {
            rel_path: file.rel_path.clone(),
            class: file.class.clone(),
            local_findings: Vec::new(),
            allows: Vec::new(),
            token_lines: Vec::new(),
            streams: Vec::new(),
            fns: Vec::new(),
            enums: Vec::new(),
            uses: Vec::new(),
            exec_invoke: None,
            bridges: Vec::new(),
            error_mentions: Vec::new(),
            msg_consts: Vec::new(),
            msg_refs: Vec::new(),
            flows: Vec::new(),
            used_allows: Vec::new(),
            pub_fns,
            names,
        });
    }
    let mut local_findings = Vec::new();
    let mut streams = Vec::new();
    check_file_local(&ft, &mut local_findings, &mut streams);

    let token_lines: Vec<u32> = {
        let mut lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        lines.dedup();
        lines.sort_unstable();
        lines.dedup();
        lines
    };

    let parsed = parse_items(&lexed.tokens, &ft.in_test);
    // Per-fn flow facts feed the cross-file summary fixpoint; extracting
    // them here keeps them a pure function of the bytes.
    let flows = crate::summary::extract_flows(file, &lexed.tokens, &parsed);
    let (msg_consts, msg_refs) = crate::dataflow::msg_facts(file, &lexed.tokens, &parsed);
    // Drop panic sites justified at the source: a reasoned allow for
    // either the syntactic rule (R4) or the reachability rule means the
    // site is a documented invariant, not a reachable abort. Blocking
    // sites get the same treatment for the event-loop rule. Each drop
    // records the consuming directive so stale-allow sees it as used.
    let mut used_allows: Vec<(String, u32)> = Vec::new();
    let mut fns = parsed.fns;
    for f in &mut fns {
        f.panics.retain(|p| {
            let hit = covering_directive(&lexed.allows, &token_lines, "panic-reachable", p.line)
                .or_else(|| {
                    covering_directive(&lexed.allows, &token_lines, "no-panic-in-lib", p.line)
                });
            match hit {
                Some(d) => {
                    used_allows.push((d.rule_id.clone(), d.line));
                    false
                }
                None => true,
            }
        });
        f.blocking.retain(|b| {
            match covering_directive(&lexed.allows, &token_lines, "event-loop-blocking", b.line) {
                Some(d) => {
                    used_allows.push((d.rule_id.clone(), d.line));
                    false
                }
                None => true,
            }
        });
    }
    used_allows.sort();
    used_allows.dedup();

    let (exec_invoke, bridges, error_mentions) = exec_facts(&ft);

    Ok(FileFacts {
        rel_path: file.rel_path.clone(),
        class: file.class.clone(),
        local_findings,
        allows: lexed.allows,
        token_lines,
        streams,
        fns,
        enums: parsed.enums,
        uses: parsed.uses,
        exec_invoke,
        bridges,
        error_mentions,
        msg_consts,
        msg_refs,
        flows,
        used_allows,
        pub_fns,
        names,
    })
}

/// Token-level `unreached-pub` facts: the bare-`pub` fns a library source
/// file defines, and every identifier the file names outside its
/// `pub use` items. A re-export is not a use, so a crate cannot keep a
/// function alive by naming it in its own `lib.rs`.
fn name_facts(ft: &FileTokens<'_>) -> (Vec<PubFn>, Vec<String>) {
    let path = ft.file.rel_path.as_str();
    let library = matches!(ft.file.class, FileClass::Src { .. })
        && !path.contains("/src/bin/")
        && !path.ends_with("/src/main.rs");
    let toks = ft.tokens;
    let mut pub_fns = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let Some(tok) = toks.get(i) else { break };
        if ft.is_ident(i, "pub") {
            // Only bare `pub` widens past the crate; `pub(crate)` and
            // `pub(super)` leave the verdict to rustc's `dead_code`.
            let bare = !ft.is_punct(i + 1, "(");
            let mut j = i + 1;
            if !bare {
                while j < toks.len() && !ft.is_punct(j, ")") {
                    j += 1;
                }
                j += 1;
            }
            if ft.is_ident(j, "use") {
                while j < toks.len() && !ft.is_punct(j, ";") {
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            while ["const", "async", "unsafe"].iter().any(|q| ft.is_ident(j, q)) {
                j += 1;
            }
            let in_test = ft.in_test.get(i).copied().unwrap_or(false);
            if library && bare && !in_test && ft.is_ident(j, "fn") {
                if let Some(name) = toks.get(j + 1) {
                    pub_fns.push(PubFn { name: name.text.clone(), line: tok.line, col: tok.col });
                }
            }
        }
        if tok.kind == crate::lexer::TokenKind::Ident {
            names.push(tok.text.clone());
        }
        i += 1;
    }
    names.sort_unstable();
    names.dedup();
    (pub_fns, names)
}

/// Token-level exec facts: first exec invocation, `From<ExecError>`
/// bridges, and `*Error` type mentions.
fn exec_facts(ft: &FileTokens<'_>) -> (Option<(u32, u32)>, Vec<BridgeFact>, Vec<String>) {
    let mut invoke = None;
    let mut bridges = Vec::new();
    let mut mentions: Vec<String> = Vec::new();
    let toks = ft.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let Some(tok) = toks.get(i) else { break };
        let in_test = ft.in_test.get(i).copied().unwrap_or(false);
        if tok.kind == crate::lexer::TokenKind::Ident && !in_test {
            let name = tok.text.as_str();
            // Invocation: `ExecPool` anywhere, or an `exec::` path that is
            // not inside a `use` item (imports alone don't invoke).
            if invoke.is_none()
                && (name == "ExecPool"
                    || (name == "exec"
                        && ft.is_punct(i + 1, ":")
                        && ft.is_punct(i + 2, ":")
                        && !(i > 0 && ft.is_ident(i - 1, "use"))))
            {
                invoke = Some((tok.line, tok.col));
            }
            if name.ends_with("Error") && !mentions.iter().any(|m| m == name) {
                mentions.push(name.to_string());
            }
            // Bridge: `impl From < .. ExecError .. > for Target { body }`.
            if name == "impl" {
                if let Some(bridge) = parse_bridge(ft, i) {
                    bridges.push(bridge);
                }
            }
        }
        i += 1;
    }
    mentions.sort_unstable();
    (invoke, bridges, mentions)
}

/// Parse a `From<..ExecError..>` impl starting at the `impl` token.
fn parse_bridge(ft: &FileTokens<'_>, at: usize) -> Option<BridgeFact> {
    let toks = ft.tokens;
    let mut i = at + 1;
    // Optional impl generics.
    if ft.is_punct(i, "<") {
        i = skip_angles(ft, i);
    }
    if !ft.is_ident(i, "From") || !ft.is_punct(i + 1, "<") {
        return None;
    }
    let args_end = skip_angles(ft, i + 1);
    let has_exec_error =
        (i + 2..args_end).any(|k| toks.get(k).is_some_and(|t| t.text == "ExecError"));
    if !has_exec_error {
        return None;
    }
    if !ft.is_ident(args_end, "for") {
        return None;
    }
    // Target: last ident before the body brace.
    let mut j = args_end + 1;
    let mut target = None;
    while j < toks.len() && !ft.is_punct(j, "{") {
        if let Some(t) = toks.get(j) {
            if t.kind == crate::lexer::TokenKind::Ident {
                target = Some(t.text.clone());
            }
        }
        j += 1;
    }
    let target = target?;
    let (line, col) = toks.get(at).map(|t| (t.line, t.col))?;
    // Body: capitalized idents + whether a `match` appears.
    let mut depth = 0i32;
    let mut uses_match = false;
    let mut mentioned: Vec<String> = Vec::new();
    while j < toks.len() {
        if ft.is_punct(j, "{") {
            depth += 1;
        } else if ft.is_punct(j, "}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if let Some(t) = toks.get(j) {
            if t.kind == crate::lexer::TokenKind::Ident {
                if t.text == "match" {
                    uses_match = true;
                } else if t.text.chars().next().is_some_and(char::is_uppercase)
                    && !mentioned.contains(&t.text)
                {
                    mentioned.push(t.text.clone());
                }
            }
        }
        j += 1;
    }
    mentioned.sort_unstable();
    Some(BridgeFact { target, uses_match, mentioned, line, col })
}

fn skip_angles(ft: &FileTokens<'_>, open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < ft.tokens.len() {
        if ft.is_punct(i, "<") {
            depth += 1;
        } else if ft.is_punct(i, ">") && !(i > 0 && ft.is_punct(i - 1, "-")) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use std::path::PathBuf;

    fn facts_for(rel_path: &str, src: &str) -> FileFacts {
        let class = classify(rel_path).expect("classifiable");
        let file =
            SourceFile { rel_path: rel_path.to_string(), abs_path: PathBuf::from(rel_path), class };
        build_facts(&file, src).expect("facts build")
    }

    #[test]
    fn allowed_panic_sites_are_dropped_at_build_time() {
        let facts = facts_for(
            "crates/signal/src/x.rs",
            "pub fn f(xs: &[u64], i: usize) -> u64 {\n\
                 // xlint::allow(panic-reachable, i is taken modulo len by every caller)\n\
                 xs[i]\n\
             }\n\
             pub fn g(ys: &[u64], i: usize) -> u64 { ys[i] }\n",
        );
        let f = facts.fns.iter().find(|f| f.name == "f").expect("f");
        assert!(f.panics.is_empty(), "{:?}", f.panics);
        let g = facts.fns.iter().find(|f| f.name == "g").expect("g");
        assert_eq!(g.panics.len(), 1);
    }

    #[test]
    fn bridge_and_invoke_facts_are_collected() {
        let facts = facts_for(
            "crates/minitester/src/error.rs",
            "pub enum MiniTesterError { Exec(exec::ExecError) }\n\
             impl From<exec::ExecError> for MiniTesterError {\n\
                 fn from(e: exec::ExecError) -> Self {\n\
                     match e {\n\
                         exec::ExecError::JobPanicked { .. } => MiniTesterError::Exec(e),\n\
                         other => MiniTesterError::Exec(other),\n\
                     }\n\
                 }\n\
             }\n",
        );
        assert!(facts.exec_invoke.is_some());
        let bridge = facts.bridges.first().expect("bridge found");
        assert_eq!(bridge.target, "MiniTesterError");
        assert!(bridge.uses_match);
        assert!(bridge.mentioned.iter().any(|m| m == "JobPanicked"));
        assert!(facts.error_mentions.iter().any(|m| m == "MiniTesterError"));
    }
}

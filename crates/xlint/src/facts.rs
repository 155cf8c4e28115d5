//! Per-file analysis facts: the unit of incremental caching.
//!
//! The engine splits analysis into a *per-file* phase (lex, parse, local
//! token rules) and a *cross-file* phase (stream uniqueness, call-graph
//! panic reachability, error-bridge completeness). Everything the
//! cross-file phase needs from one file is captured here as [`FileFacts`]
//! — a pure function of the file's bytes — so a warm run can skip the
//! per-file phase for unchanged files and still re-run every cross-file
//! rule over the full workspace. Cold and warm runs therefore produce
//! byte-identical findings by construction.
//!
//! [`FileFacts`] round-trips through the first-party JSON layer
//! ([`crate::json`]) for `target/xlint-cache.json`.

use crate::classify::{FileClass, SourceFile};
use crate::error::XlintError;
use crate::json::Json;
use crate::lexer::{lex, AllowDirective};
use crate::parse::{
    parse_items, BlockSite, Call, CallKind, EnumDef, FnDef, PanicKind, PanicSite, UsePath,
};
use crate::rules::{check_file_local, FileTokens, Finding, Related, Severity};
use crate::summary::{CallFlow, Ceiling, FnFlow, SinkFlow, SinkKind, Src};

/// Every rule id the linter can emit, used to re-intern cached findings
/// into `&'static str`. A cache mentioning an unknown id is stale.
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
    /// FNV-1a 64 hash of the file bytes, the cache key.
    pub hash: u64,
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

/// FNV-1a 64-bit hash of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The reasoned directive covering `(rule_id, line)`, if any. A directive
/// on line L covers L and the next token-bearing line after L (the
/// "comment above the offending line" idiom); it is returned by reference
/// so callers can record it as *used* (the stale-allow pass's input).
fn covering_directive<'a>(
    allows: &'a [AllowDirective],
    token_lines: &[u32],
    rule_id: &str,
    line: u32,
) -> Option<&'a AllowDirective> {
    allows.iter().find(|d| {
        d.rule_id == rule_id
            && !d.reason.is_empty()
            && (d.line == line
                || token_lines.iter().find(|t| **t > d.line).is_some_and(|next| *next == line))
    })
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
            hash: fnv1a(src.as_bytes()),
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
    // them here keeps them a pure function of the bytes, so they cache.
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
        hash: fnv1a(src.as_bytes()),
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

// ---------------------------------------------------------------------------
// JSON (de)serialization for the cache.
// ---------------------------------------------------------------------------

fn u32_json(v: u32) -> Json {
    Json::Int(i64::from(v))
}

fn json_u32(j: Option<&Json>) -> Option<u32> {
    j.and_then(Json::as_int).and_then(|n| u32::try_from(n).ok())
}

impl FileFacts {
    /// Serialize for the cache file.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("path", Json::str(&self.rel_path)),
            ("class", class_to_json(&self.class)),
            ("hash", Json::Str(format!("{:016x}", self.hash))),
            ("findings", Json::Arr(self.local_findings.iter().map(finding_to_json).collect())),
            (
                "allows",
                Json::Arr(
                    self.allows
                        .iter()
                        .map(|a| {
                            Json::obj(vec![
                                ("rule", Json::str(&a.rule_id)),
                                ("reason", Json::str(&a.reason)),
                                ("line", u32_json(a.line)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("token_lines", Json::Arr(self.token_lines.iter().map(|l| u32_json(*l)).collect())),
            (
                "streams",
                Json::Arr(
                    self.streams
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("label", Json::str(&s.label)),
                                ("line", u32_json(s.line)),
                                ("col", u32_json(s.col)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("fns", Json::Arr(self.fns.iter().map(fn_to_json).collect())),
            (
                "enums",
                Json::Arr(
                    self.enums
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("name", Json::str(&e.name)),
                                (
                                    "variants",
                                    Json::Arr(e.variants.iter().map(|v| Json::str(v)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "uses",
                Json::Arr(
                    self.uses
                        .iter()
                        .map(|u| {
                            let mut pairs = vec![(
                                "segs",
                                Json::Arr(u.segments.iter().map(|s| Json::str(s)).collect()),
                            )];
                            if let Some(alias) = &u.alias {
                                pairs.push(("alias", Json::str(alias)));
                            }
                            Json::obj(pairs)
                        })
                        .collect(),
                ),
            ),
            (
                "exec_invoke",
                match self.exec_invoke {
                    Some((line, col)) => Json::Arr(vec![u32_json(line), u32_json(col)]),
                    None => Json::Null,
                },
            ),
            (
                "bridges",
                Json::Arr(
                    self.bridges
                        .iter()
                        .map(|b| {
                            Json::obj(vec![
                                ("target", Json::str(&b.target)),
                                ("uses_match", Json::Bool(b.uses_match)),
                                (
                                    "mentioned",
                                    Json::Arr(b.mentioned.iter().map(|m| Json::str(m)).collect()),
                                ),
                                ("line", u32_json(b.line)),
                                ("col", u32_json(b.col)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "error_mentions",
                Json::Arr(self.error_mentions.iter().map(|m| Json::str(m)).collect()),
            ),
            (
                "msg_consts",
                Json::Arr(
                    self.msg_consts
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::str(&c.name)),
                                ("line", u32_json(c.line)),
                                ("col", u32_json(c.col)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "msg_refs",
                Json::Arr(
                    self.msg_refs
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("name", Json::str(&r.name)),
                                ("ctx", Json::str(msg_ctx_label(r.ctx))),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("flows", Json::Arr(self.flows.iter().map(flow_to_json).collect())),
            (
                "used_allows",
                Json::Arr(
                    self.used_allows
                        .iter()
                        .map(|(rule, line)| Json::Arr(vec![Json::str(rule), u32_json(*line)]))
                        .collect(),
                ),
            ),
            (
                "pub_fns",
                Json::Arr(
                    self.pub_fns
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("name", Json::str(&f.name)),
                                ("line", u32_json(f.line)),
                                ("col", u32_json(f.col)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("names", Json::Arr(self.names.iter().map(|n| Json::str(n)).collect())),
        ])
    }

    /// Deserialize from the cache file; `None` on any shape mismatch.
    pub fn from_json(j: &Json) -> Option<FileFacts> {
        let rel_path = j.get("path")?.as_str()?.to_string();
        let class = class_from_json(j.get("class")?)?;
        let hash = u64::from_str_radix(j.get("hash")?.as_str()?, 16).ok()?;
        let local_findings = j
            .get("findings")?
            .as_arr()?
            .iter()
            .map(finding_from_json)
            .collect::<Option<Vec<_>>>()?;
        let allows = j
            .get("allows")?
            .as_arr()?
            .iter()
            .map(|a| {
                Some(AllowDirective {
                    rule_id: a.get("rule")?.as_str()?.to_string(),
                    reason: a.get("reason")?.as_str()?.to_string(),
                    line: json_u32(a.get("line"))?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let token_lines = j
            .get("token_lines")?
            .as_arr()?
            .iter()
            .map(|l| json_u32(Some(l)))
            .collect::<Option<Vec<_>>>()?;
        let streams = j
            .get("streams")?
            .as_arr()?
            .iter()
            .map(|s| {
                Some(StreamFact {
                    label: s.get("label")?.as_str()?.to_string(),
                    line: json_u32(s.get("line"))?,
                    col: json_u32(s.get("col"))?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let fns = j.get("fns")?.as_arr()?.iter().map(fn_from_json).collect::<Option<Vec<_>>>()?;
        let enums = j
            .get("enums")?
            .as_arr()?
            .iter()
            .map(|e| {
                Some(EnumDef {
                    name: e.get("name")?.as_str()?.to_string(),
                    variants: strings(e.get("variants")?)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let uses = j
            .get("uses")?
            .as_arr()?
            .iter()
            .map(|u| {
                Some(UsePath {
                    segments: strings(u.get("segs")?)?,
                    alias: match u.get("alias") {
                        Some(a) => Some(a.as_str()?.to_string()),
                        None => None,
                    },
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let exec_invoke = match j.get("exec_invoke")? {
            Json::Null => None,
            Json::Arr(items) => Some((json_u32(items.first())?, json_u32(items.get(1))?)),
            _ => return None,
        };
        let bridges = j
            .get("bridges")?
            .as_arr()?
            .iter()
            .map(|b| {
                Some(BridgeFact {
                    target: b.get("target")?.as_str()?.to_string(),
                    uses_match: b.get("uses_match")?.as_bool()?,
                    mentioned: strings(b.get("mentioned")?)?,
                    line: json_u32(b.get("line"))?,
                    col: json_u32(b.get("col"))?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let error_mentions = strings(j.get("error_mentions")?)?;
        let msg_consts = j
            .get("msg_consts")?
            .as_arr()?
            .iter()
            .map(|c| {
                Some(MsgConst {
                    name: c.get("name")?.as_str()?.to_string(),
                    line: json_u32(c.get("line"))?,
                    col: json_u32(c.get("col"))?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let msg_refs = j
            .get("msg_refs")?
            .as_arr()?
            .iter()
            .map(|r| {
                Some(MsgRef {
                    name: r.get("name")?.as_str()?.to_string(),
                    ctx: msg_ctx_from_label(r.get("ctx")?.as_str()?)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let flows =
            j.get("flows")?.as_arr()?.iter().map(flow_from_json).collect::<Option<Vec<_>>>()?;
        let used_allows = j
            .get("used_allows")?
            .as_arr()?
            .iter()
            .map(|u| {
                let items = u.as_arr()?;
                Some((items.first()?.as_str()?.to_string(), json_u32(items.get(1))?))
            })
            .collect::<Option<Vec<_>>>()?;
        let pub_fns = j
            .get("pub_fns")?
            .as_arr()?
            .iter()
            .map(|f| {
                Some(PubFn {
                    name: f.get("name")?.as_str()?.to_string(),
                    line: json_u32(f.get("line"))?,
                    col: json_u32(f.get("col"))?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let names = strings(j.get("names")?)?;
        Some(FileFacts {
            rel_path,
            class,
            hash,
            local_findings,
            allows,
            token_lines,
            streams,
            fns,
            enums,
            uses,
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
}

fn msg_ctx_label(ctx: MsgCtx) -> &'static str {
    match ctx {
        MsgCtx::Encode => "enc",
        MsgCtx::Decode => "dec",
        MsgCtx::Golden => "gold",
        MsgCtx::Other => "other",
    }
}

fn msg_ctx_from_label(label: &str) -> Option<MsgCtx> {
    match label {
        "enc" => Some(MsgCtx::Encode),
        "dec" => Some(MsgCtx::Decode),
        "gold" => Some(MsgCtx::Golden),
        "other" => Some(MsgCtx::Other),
        _ => None,
    }
}

fn strings(j: &Json) -> Option<Vec<String>> {
    j.as_arr()?.iter().map(|s| s.as_str().map(str::to_string)).collect()
}

fn class_to_json(class: &FileClass) -> Json {
    match class {
        FileClass::Src { crate_name } => Json::obj(vec![("src", Json::str(crate_name))]),
        FileClass::Test => Json::str("test"),
        FileClass::Example => Json::str("example"),
        FileClass::BuildScript => Json::str("build"),
        FileClass::External => Json::str("external"),
    }
}

fn class_from_json(j: &Json) -> Option<FileClass> {
    match j {
        Json::Str(s) if s == "test" => Some(FileClass::Test),
        Json::Str(s) if s == "example" => Some(FileClass::Example),
        Json::Str(s) if s == "build" => Some(FileClass::BuildScript),
        Json::Str(s) if s == "external" => Some(FileClass::External),
        Json::Obj(_) => Some(FileClass::Src { crate_name: j.get("src")?.as_str()?.to_string() }),
        _ => None,
    }
}

fn severity_label(sev: Severity) -> &'static str {
    sev.label()
}

fn finding_to_json(f: &Finding) -> Json {
    let mut pairs = vec![
        ("rule", Json::str(f.rule_id)),
        ("sev", Json::str(severity_label(f.severity))),
        ("path", Json::str(&f.rel_path)),
        ("line", u32_json(f.line)),
        ("col", u32_json(f.col)),
        ("msg", Json::str(&f.message)),
    ];
    if !f.related.is_empty() {
        pairs.push((
            "rel",
            Json::Arr(
                f.related
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("path", Json::str(&r.rel_path)),
                            ("line", u32_json(r.line)),
                            ("col", u32_json(r.col)),
                            ("note", Json::str(&r.note)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(pairs)
}

fn finding_from_json(j: &Json) -> Option<Finding> {
    let severity = match j.get("sev")?.as_str()? {
        "warn" => Severity::Warn,
        "deny" => Severity::Deny,
        _ => return None,
    };
    let related = match j.get("rel") {
        Some(arr) => arr
            .as_arr()?
            .iter()
            .map(|r| {
                Some(Related {
                    rel_path: r.get("path")?.as_str()?.to_string(),
                    line: json_u32(r.get("line"))?,
                    col: json_u32(r.get("col"))?,
                    note: r.get("note")?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?,
        None => Vec::new(),
    };
    Some(Finding {
        rule_id: intern_rule(j.get("rule")?.as_str()?)?,
        severity,
        rel_path: j.get("path")?.as_str()?.to_string(),
        line: json_u32(j.get("line"))?,
        col: json_u32(j.get("col"))?,
        message: j.get("msg")?.as_str()?.to_string(),
        related,
    })
}

fn call_kind_label(kind: CallKind) -> &'static str {
    match kind {
        CallKind::Free => "free",
        CallKind::Method => "method",
        CallKind::Qualified => "qual",
    }
}

fn fn_to_json(f: &FnDef) -> Json {
    Json::obj(vec![
        ("name", Json::str(&f.name)),
        (
            "qual",
            match &f.qual {
                Some(q) => Json::str(q),
                None => Json::Null,
            },
        ),
        ("pub", Json::Bool(f.is_pub)),
        ("test", Json::Bool(f.in_test)),
        ("line", u32_json(f.line)),
        ("col", u32_json(f.col)),
        ("params", Json::Arr(f.params.iter().map(|p| Json::str(p)).collect())),
        ("ptypes", Json::Arr(f.param_types.iter().map(|p| Json::str(p)).collect())),
        (
            "calls",
            Json::Arr(
                f.calls
                    .iter()
                    .map(|c| {
                        let mut pairs = vec![
                            ("k", Json::str(call_kind_label(c.kind))),
                            ("n", Json::str(&c.name)),
                        ];
                        if let Some(q) = &c.qual {
                            pairs.push(("q", Json::str(q)));
                        }
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "panics",
            Json::Arr(
                f.panics
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            (
                                "k",
                                Json::str(match p.kind {
                                    PanicKind::Macro => "macro",
                                    PanicKind::UnwrapExpect => "unwrap",
                                    PanicKind::Index => "index",
                                }),
                            ),
                            ("d", Json::str(&p.desc)),
                            ("line", u32_json(p.line)),
                            ("col", u32_json(p.col)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "blocking",
            Json::Arr(
                f.blocking
                    .iter()
                    .map(|b| {
                        Json::obj(vec![
                            ("d", Json::str(&b.desc)),
                            ("line", u32_json(b.line)),
                            ("col", u32_json(b.col)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn fn_from_json(j: &Json) -> Option<FnDef> {
    let calls = j
        .get("calls")?
        .as_arr()?
        .iter()
        .map(|c| {
            let kind = match c.get("k")?.as_str()? {
                "free" => CallKind::Free,
                "method" => CallKind::Method,
                "qual" => CallKind::Qualified,
                _ => return None,
            };
            Some(Call {
                kind,
                qual: match c.get("q") {
                    Some(q) => Some(q.as_str()?.to_string()),
                    None => None,
                },
                name: c.get("n")?.as_str()?.to_string(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let panics = j
        .get("panics")?
        .as_arr()?
        .iter()
        .map(|p| {
            let kind = match p.get("k")?.as_str()? {
                "macro" => PanicKind::Macro,
                "unwrap" => PanicKind::UnwrapExpect,
                "index" => PanicKind::Index,
                _ => return None,
            };
            Some(PanicSite {
                kind,
                desc: p.get("d")?.as_str()?.to_string(),
                line: json_u32(p.get("line"))?,
                col: json_u32(p.get("col"))?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let blocking = j
        .get("blocking")?
        .as_arr()?
        .iter()
        .map(|b| {
            Some(BlockSite {
                desc: b.get("d")?.as_str()?.to_string(),
                line: json_u32(b.get("line"))?,
                col: json_u32(b.get("col"))?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(FnDef {
        name: j.get("name")?.as_str()?.to_string(),
        qual: match j.get("qual")? {
            Json::Null => None,
            q => Some(q.as_str()?.to_string()),
        },
        is_pub: j.get("pub")?.as_bool()?,
        in_test: j.get("test")?.as_bool()?,
        line: json_u32(j.get("line"))?,
        col: json_u32(j.get("col"))?,
        params: strings(j.get("params")?)?,
        param_types: strings(j.get("ptypes")?)?,
        calls,
        panics,
        blocking,
    })
}

fn src_label(s: &Src) -> String {
    match s {
        Src::Direct => "d".to_string(),
        Src::Param(p) => format!("p{p}"),
        Src::Call(k) => format!("c{k}"),
    }
}

fn src_from_label(l: &str) -> Option<Src> {
    if l == "d" {
        return Some(Src::Direct);
    }
    if l.len() < 2 {
        return None;
    }
    let (head, rest) = l.split_at(1);
    let n = rest.parse().ok()?;
    match head {
        "p" => Some(Src::Param(n)),
        "c" => Some(Src::Call(n)),
        _ => None,
    }
}

fn srcs_to_json(srcs: &[Src]) -> Json {
    Json::Arr(srcs.iter().map(|s| Json::Str(src_label(s))).collect())
}

fn srcs_from_json(j: &Json) -> Option<Vec<Src>> {
    j.as_arr()?.iter().map(|s| src_from_label(s.as_str()?)).collect()
}

fn ceiling_to_json(c: &Ceiling) -> Json {
    match c {
        Ceiling::Lit(n) => Json::Int(i64::try_from(*n).unwrap_or(i64::MAX)),
        Ceiling::Sym(s) => Json::str(s),
    }
}

fn ceiling_from_json(j: &Json) -> Option<Ceiling> {
    match j {
        Json::Int(n) => Some(Ceiling::Lit(u64::try_from(*n).ok()?)),
        Json::Str(s) => Some(Ceiling::Sym(s.clone())),
        _ => None,
    }
}

fn sink_kind_label(kind: SinkKind) -> &'static str {
    match kind {
        SinkKind::Alloc => "alloc",
        SinkKind::VecMacro => "vecmac",
        SinkKind::PoolArg => "poolarg",
        SinkKind::PoolRecv => "poolrecv",
        SinkKind::Arith => "arith",
    }
}

fn sink_kind_from_label(label: &str) -> Option<SinkKind> {
    match label {
        "alloc" => Some(SinkKind::Alloc),
        "vecmac" => Some(SinkKind::VecMacro),
        "poolarg" => Some(SinkKind::PoolArg),
        "poolrecv" => Some(SinkKind::PoolRecv),
        "arith" => Some(SinkKind::Arith),
        _ => None,
    }
}

fn flow_to_json(f: &FnFlow) -> Json {
    let mut pairs = vec![
        (
            "calls",
            Json::Arr(
                f.calls
                    .iter()
                    .map(|c| {
                        let mut cp = vec![
                            ("k", Json::str(call_kind_label(c.kind))),
                            ("n", Json::str(&c.name)),
                            ("args", Json::Arr(c.args.iter().map(|a| srcs_to_json(a)).collect())),
                            ("argv", Json::Arr(c.argv.iter().map(|v| Json::str(v)).collect())),
                            ("line", u32_json(c.line)),
                            ("col", u32_json(c.col)),
                        ];
                        if let Some(q) = &c.qual {
                            cp.push(("q", Json::str(q)));
                        }
                        Json::obj(cp)
                    })
                    .collect(),
            ),
        ),
        (
            "sinks",
            Json::Arr(
                f.sinks
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("k", Json::str(sink_kind_label(s.kind))),
                            ("sink", Json::str(&s.sink)),
                            ("var", Json::str(&s.var)),
                            ("srcs", srcs_to_json(&s.srcs)),
                            ("line", u32_json(s.line)),
                            ("col", u32_json(s.col)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ret", srcs_to_json(&f.ret)),
    ];
    if let Some(c) = &f.ret_ceiling {
        pairs.push(("ceil", ceiling_to_json(c)));
    }
    Json::obj(pairs)
}

fn flow_from_json(j: &Json) -> Option<FnFlow> {
    let calls = j
        .get("calls")?
        .as_arr()?
        .iter()
        .map(|c| {
            let kind = match c.get("k")?.as_str()? {
                "free" => CallKind::Free,
                "method" => CallKind::Method,
                "qual" => CallKind::Qualified,
                _ => return None,
            };
            Some(CallFlow {
                kind,
                qual: match c.get("q") {
                    Some(q) => Some(q.as_str()?.to_string()),
                    None => None,
                },
                name: c.get("n")?.as_str()?.to_string(),
                args: c
                    .get("args")?
                    .as_arr()?
                    .iter()
                    .map(srcs_from_json)
                    .collect::<Option<Vec<_>>>()?,
                argv: strings(c.get("argv")?)?,
                line: json_u32(c.get("line"))?,
                col: json_u32(c.get("col"))?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let sinks = j
        .get("sinks")?
        .as_arr()?
        .iter()
        .map(|s| {
            Some(SinkFlow {
                kind: sink_kind_from_label(s.get("k")?.as_str()?)?,
                sink: s.get("sink")?.as_str()?.to_string(),
                var: s.get("var")?.as_str()?.to_string(),
                srcs: srcs_from_json(s.get("srcs")?)?,
                line: json_u32(s.get("line"))?,
                col: json_u32(s.get("col"))?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let ret = srcs_from_json(j.get("ret")?)?;
    let ret_ceiling = match j.get("ceil") {
        Some(c) => Some(ceiling_from_json(c)?),
        None => None,
    };
    Some(FnFlow { calls, sinks, ret, ret_ceiling })
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
    fn facts_round_trip_through_json() {
        let facts = facts_for(
            "crates/signal/src/x.rs",
            "use exec::ExecPool;\n\
             pub enum SignalError { Exec(exec::ExecError), Other }\n\
             impl From<exec::ExecError> for SignalError {\n\
                 fn from(e: exec::ExecError) -> Self { SignalError::Exec(e) }\n\
             }\n\
             pub fn f(xs: &[u64], i: usize) -> u64 { helper(); xs[i] }\n\
             fn helper() {}\n",
        );
        let json = facts.to_json();
        let back = FileFacts::from_json(&json).expect("round trip");
        assert_eq!(back, facts);
        // Byte stability of the serialized form.
        assert_eq!(back.to_json().render(), json.render());
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

    #[test]
    fn hash_tracks_content() {
        let a = fnv1a(b"hello");
        let b = fnv1a(b"hello!");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(b"hello"));
    }
}

//! The rule set: seven contracts the workspace already relies on,
//! enforced mechanically.
//!
//! | id | tier | contract |
//! |----|------|----------|
//! | `no-adhoc-rng` (R1) | deny | all randomness flows through `rng::SeedTree`/`StreamId`; no raw generator construction or seed arithmetic outside `crates/rng` |
//! | `stream-id-unique` (R2) | deny | a `SeedTree` stream label names exactly one component — the same label in two files silently correlates their noise |
//! | `no-raw-time-volt` (R3) | warn | picosecond/millivolt quantities use the `pstime` newtypes; bare `f64` arithmetic on `*_ps`/`*_mv` identifiers is tracked and ratcheted down |
//! | `no-panic-in-lib` (R4) | deny | library code returns the crate's error type; `unwrap`/`expect`/`panic!`/`unreachable!` are for tests |
//! | `no-lossy-cast` (R5) | deny in timing paths, warn elsewhere | `as` casts silently truncate; timing-critical femtosecond arithmetic uses `From`/`try_from` or justifies the cast |
//! | `no-wall-clock` (R6) | deny | no `std::time`, and no `HashMap`/`HashSet` in result-producing code — both break run-to-run determinism |
//! | `forbid-unsafe-everywhere` (R7) | deny | every crate root carries `#![forbid(unsafe_code)]` |
//! | `exec-job-racy` (R8) | deny | job closures handed to `ExecPool` must be pure: no shared-mutation primitives (`Mutex`, `RefCell`, `Atomic*`, channels, `static mut`) inside the argument span — they would break the bit-identical-at-any-thread-count contract |
//! | `unreached-pub` (R16) | warn | a bare `pub fn` in library source is named by some other `.rs` file (headbench's included); a `pub use` re-export is not a use |
//!
//! The hermeticity rules (R1, R6) also bind in build scripts
//! ([`FileClass::BuildScript`]): a wall-clock read or ad-hoc seed there
//! makes the *artifact* nondeterministic. The semantic rules
//! (`panic-reachable`, `error-bridge-exhaustive`) live in
//! [`crate::graph`]; this module hosts the per-file token rules and the
//! name-level cross-file passes (R2, R16).
//!
//! Rules see only *significant* tokens (comments and doc examples are
//! stripped by the lexer) and skip `#[cfg(test)]` items where panicking
//! and stream replay are legitimate.

use std::collections::BTreeMap;

use crate::classify::{FileClass, SourceFile};
use crate::facts::{FileFacts, StreamFact};
use crate::lexer::{LexOutput, Token, TokenKind};

/// Severity tier of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Tracked in the warn-tier baseline; new instances fail CI, existing
    /// ones burn down.
    Warn,
    /// Fails CI immediately unless suppressed with a reasoned
    /// `xlint::allow`.
    Deny,
}

impl Severity {
    /// Lowercase label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One auxiliary source position attached to a finding: a hop of an
/// interprocedural chain (wire-taint, panic-reachable, event-loop-
/// blocking), rendered as a SARIF `relatedLocation`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Related {
    /// Root-relative path of the related site.
    pub rel_path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What this site contributes to the finding (e.g. the fn a tainted
    /// value flows through, or the panic site a chain ends at).
    pub note: String,
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `no-panic-in-lib`.
    pub rule_id: &'static str,
    /// Tier.
    pub severity: Severity,
    /// Root-relative path.
    pub rel_path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// Chain hops for interprocedural findings; empty for local rules.
    pub related: Vec<Related>,
}

/// Timing-path files where a lossy `as` cast is deny-tier: exact integer
/// femtosecond arithmetic (`pstime`), the programmable-delay and vernier
/// timing model (`pecl`), and edge placement / jitter sampling (`signal`).
pub const TIMING_PATHS: &[&str] = &[
    "crates/pstime/src/duration.rs",
    "crates/pstime/src/instant.rs",
    "crates/pecl/src/delay.rs",
    "crates/signal/src/digital.rs",
    "crates/signal/src/jitter.rs",
];

/// Numeric primitive type names that make an `as` cast potentially lossy.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// A lexed file with its test-region mask, ready for rule matching.
pub struct FileTokens<'a> {
    /// The file being linted.
    pub file: &'a SourceFile,
    /// Significant tokens in source order.
    pub tokens: &'a [Token],
    /// `mask[i]` is true when `tokens[i]` is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl<'a> FileTokens<'a> {
    /// Build the test-region mask for a lexed file.
    pub fn new(file: &'a SourceFile, lexed: &'a LexOutput) -> Self {
        let in_test = cfg_test_mask(&lexed.tokens);
        FileTokens { file, tokens: &lexed.tokens, in_test }
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    pub(crate) fn is_punct(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    pub(crate) fn is_ident(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    fn finding(&self, rule_id: &'static str, severity: Severity, i: usize, msg: String) -> Finding {
        let (line, col) = self.tok(i).map_or((1, 1), |t| (t.line, t.col));
        Finding {
            rule_id,
            severity,
            rel_path: self.file.rel_path.clone(),
            line,
            col,
            message: msg,
            related: Vec::new(),
        }
    }
}

/// Mark every token that sits inside a `#[cfg(test)]`-gated item (module,
/// fn, impl, use, …). `#[cfg(not(test))]` and `#[cfg(all(test, …))]` are
/// distinguished by the presence of a `not` identifier inside the
/// predicate.
pub(crate) fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(punct_at(tokens, i, "#") && punct_at(tokens, i + 1, "[")) {
            i += 1;
            continue;
        }
        // Find the matching `]` of this attribute.
        let Some(attr_end) = matching_close(tokens, i + 1, "[", "]") else {
            i += 1;
            continue;
        };
        let predicate = tokens.get(i + 2..attr_end).unwrap_or(&[]);
        let is_cfg_test = ident_at(tokens, i + 2, "cfg")
            && predicate.iter().any(|t| t.kind == TokenKind::Ident && t.text == "test")
            && !predicate.iter().any(|t| t.kind == TokenKind::Ident && t.text == "not");
        if !is_cfg_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between the cfg and the item.
        let mut j = attr_end + 1;
        while punct_at(tokens, j, "#") && punct_at(tokens, j + 1, "[") {
            match matching_close(tokens, j + 1, "[", "]") {
                Some(end) => j = end + 1,
                None => break,
            }
        }
        // The item ends at `;` at bracket depth zero, or at the `}`
        // matching the first `{` at depth zero.
        let mut depth_paren = 0i32;
        let mut depth_brack = 0i32;
        let mut end = tokens.len().saturating_sub(1);
        let mut k = j;
        while k < tokens.len() {
            let Some(t) = tokens.get(k) else { break };
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" => depth_paren += 1,
                    ")" => depth_paren -= 1,
                    "[" => depth_brack += 1,
                    "]" => depth_brack -= 1,
                    ";" if depth_paren == 0 && depth_brack == 0 => {
                        end = k;
                        break;
                    }
                    "{" if depth_paren == 0 && depth_brack == 0 => {
                        end = matching_close(tokens, k, "{", "}").unwrap_or(end);
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

fn punct_at(tokens: &[Token], i: usize, s: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
}

fn ident_at(tokens: &[Token], i: usize, s: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
}

/// Index of the token closing the delimiter opened at `open_idx`.
fn matching_close(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.kind == TokenKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

/// A `StreamId` domain-string use site, collected for the cross-file R2
/// uniqueness check.
#[derive(Debug, Clone)]
pub struct StreamUse {
    /// Root-relative path of the use.
    pub rel_path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Identifiers that mean a job closure mutates shared state: handing one
/// of these to an `ExecPool` job breaks the thread-count-invariance
/// contract (results must be bit-identical at every `EXEC_THREADS`).
const RACY_TYPES: &[&str] =
    &["Mutex", "RwLock", "RefCell", "Cell", "UnsafeCell", "OnceCell", "OnceLock", "mpsc"];

/// Method names that mutate shared state through a shared reference.
const RACY_METHODS: &[&str] = &["lock", "try_lock", "borrow_mut", "try_borrow_mut"];

/// `ExecPool`'s job-taking entry points (R8's vocabulary).
pub(crate) const POOL_ENTRIES: &[&str] = &["run"];

/// Is the token at `i` the name of a pool entry call, `pool.run(` or
/// `*_pool.run(`? `run` is too common a name to match alone
/// (`ate::TestSystem::run`, `dlc::SequencerProgram::run`), so the receiver
/// must read as a pool.
pub(crate) fn is_pool_entry(tokens: &[Token], i: usize) -> bool {
    let ident =
        |k: usize| tokens.get(k).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.as_str());
    i >= 2
        && ident(i).is_some_and(|name| POOL_ENTRIES.contains(&name))
        && punct_at(tokens, i - 1, ".")
        && punct_at(tokens, i + 1, "(")
        && ident(i - 2).is_some_and(|r| r == "pool" || r.ends_with("_pool"))
}

/// Run every per-file rule, appending findings and recording stream-label
/// uses into `streams` for the later cross-file pass.
pub fn check_file_local(
    ft: &FileTokens<'_>,
    findings: &mut Vec<Finding>,
    streams: &mut Vec<StreamFact>,
) {
    let class = &ft.file.class;
    let src_crate = match class {
        FileClass::Src { crate_name } => Some(crate_name.as_str()),
        _ => None,
    };
    let build_script = matches!(class, FileClass::BuildScript);

    // R7 applies to crate roots only and needs no token scan position.
    if let Some(krate) = src_crate {
        let is_root = ft.file.rel_path == format!("crates/{krate}/src/lib.rs")
            || ft.file.rel_path == format!("crates/{krate}/src/main.rs");
        if is_root && !has_forbid_unsafe(ft.tokens) {
            findings.push(Finding {
                rule_id: "forbid-unsafe-everywhere",
                severity: Severity::Deny,
                rel_path: ft.file.rel_path.clone(),
                line: 1,
                col: 1,
                message: format!("crate root of `{krate}` is missing `#![forbid(unsafe_code)]`"),
                related: Vec::new(),
            });
        }
    }

    for i in 0..ft.tokens.len() {
        let Some(tok) = ft.tok(i) else { break };
        let in_test = ft.in_test.get(i).copied().unwrap_or(false);

        // R2 collection: `.stream("…")` and `StreamId::named("…")` in
        // non-test library code.
        if src_crate.is_some() && !in_test {
            let lit =
                if ft.is_punct(i, ".") && ft.is_ident(i + 1, "stream") && ft.is_punct(i + 2, "(") {
                    ft.tok(i + 3)
                } else if ft.is_ident(i, "StreamId")
                    && ft.is_punct(i + 1, ":")
                    && ft.is_punct(i + 2, ":")
                    && ft.is_ident(i + 3, "named")
                    && ft.is_punct(i + 4, "(")
                {
                    ft.tok(i + 5)
                } else {
                    None
                };
            if let Some(lit) = lit {
                if lit.kind == TokenKind::StrLit {
                    streams.push(StreamFact {
                        label: lit.text.clone(),
                        line: lit.line,
                        col: lit.col,
                    });
                }
            }
        }

        // R8: shared-mutation primitives inside an ExecPool job closure.
        // The argument span of a pool entry call must stay pure.
        let r8_scope = !in_test
            && match class {
                FileClass::Src { crate_name } => crate_name != "exec",
                _ => false,
            };
        if r8_scope && is_pool_entry(ft.tokens, i) {
            if let Some(close) = matching_close(ft.tokens, i + 1, "(", ")") {
                check_job_purity(ft, &tok.text, i + 2, close, findings);
            }
        }

        if tok.kind != TokenKind::Ident {
            continue;
        }
        let ident = tok.text.as_str();

        // R1: ad-hoc RNG construction / seed arithmetic outside crates/rng.
        let r1_scope = !in_test
            && match class {
                FileClass::Src { crate_name } => crate_name != "rng",
                FileClass::Example | FileClass::BuildScript => true,
                FileClass::Test | FileClass::External => false,
            };
        if r1_scope {
            if ident.starts_with("Xoshiro")
                || ident == "SplitMix64"
                || ident == "GOLDEN_GAMMA"
                || ident == "seed_from_u64"
            {
                findings.push(ft.finding(
                    "no-adhoc-rng",
                    Severity::Deny,
                    i,
                    format!(
                        "`{ident}` outside crates/rng — derive generators via \
                         rng::SeedTree::stream(..).rng()"
                    ),
                ));
            }
            if ident == "seed" || ident.ends_with("_seed") {
                let xor_next = ft.is_punct(i + 1, "^");
                let xor_prev = i > 0 && ft.is_punct(i - 1, "^");
                let wraps = ft.is_punct(i + 1, ".")
                    && ft.tok(i + 2).is_some_and(|t| {
                        t.kind == TokenKind::Ident
                            && matches!(
                                t.text.as_str(),
                                "wrapping_add"
                                    | "wrapping_mul"
                                    | "wrapping_sub"
                                    | "rotate_left"
                                    | "rotate_right"
                            )
                    });
                if xor_next || xor_prev || wraps {
                    findings.push(
                        ft.finding(
                            "no-adhoc-rng",
                            Severity::Deny,
                            i,
                            "ad-hoc seed arithmetic — derive substreams with \
                         SeedTree::stream/channel/index, never xor or offset raw seeds"
                                .to_string(),
                        ),
                    );
                }
            }
        }

        // R3: bare f64 arithmetic on *_ps / *_mv identifiers outside pstime.
        let r3_scope = !in_test
            && match class {
                FileClass::Src { crate_name } => crate_name != "pstime",
                FileClass::Example => true,
                FileClass::Test | FileClass::BuildScript | FileClass::External => false,
            };
        if r3_scope && (ident.ends_with("_ps") || ident.ends_with("_mv")) && ident.len() > 3 {
            let ops = ["+", "-", "*", "/", "%"];
            let next_is_op = ops.iter().any(|op| ft.is_punct(i + 1, op))
                && !(ft.is_punct(i + 1, "-") && ft.is_punct(i + 2, ">"));
            let prev_is_binary_op = i >= 2
                && ops.iter().any(|op| ft.is_punct(i - 1, op))
                && ft.tok(i - 2).is_some_and(|t| {
                    matches!(t.kind, TokenKind::Ident | TokenKind::NumLit)
                        || (t.kind == TokenKind::Punct && (t.text == ")" || t.text == "]"))
                });
            if next_is_op || prev_is_binary_op {
                findings.push(ft.finding(
                    "no-raw-time-volt",
                    Severity::Warn,
                    i,
                    format!(
                        "raw arithmetic on `{ident}` — picosecond/millivolt math belongs in \
                         pstime::Duration / Millivolts newtypes"
                    ),
                ));
            }
        }

        // R4: panics in library code.
        if src_crate.is_some() && !in_test {
            if (ident == "unwrap" || ident == "expect")
                && i > 0
                && ft.is_punct(i - 1, ".")
                && ft.is_punct(i + 1, "(")
            {
                findings.push(ft.finding(
                    "no-panic-in-lib",
                    Severity::Deny,
                    i,
                    format!(
                        "`.{ident}()` in library code — route through the crate's error type \
                         (see its error.rs)"
                    ),
                ));
            }
            if matches!(ident, "panic" | "unreachable" | "todo" | "unimplemented")
                && ft.is_punct(i + 1, "!")
            {
                findings.push(ft.finding(
                    "no-panic-in-lib",
                    Severity::Deny,
                    i,
                    format!("`{ident}!` in library code — return an error instead of aborting"),
                ));
            }
        }

        // R5: `as` numeric casts.
        if src_crate.is_some() && !in_test && ident == "as" {
            if let Some(target) = ft.tok(i + 1) {
                if target.kind == TokenKind::Ident && NUMERIC_TYPES.contains(&target.text.as_str())
                {
                    let severity = if TIMING_PATHS.contains(&ft.file.rel_path.as_str()) {
                        Severity::Deny
                    } else {
                        Severity::Warn
                    };
                    findings.push(ft.finding(
                        "no-lossy-cast",
                        severity,
                        i,
                        format!(
                            "`as {}` cast — prefer `From`/`try_from`, or justify with an \
                             xlint::allow reason",
                            target.text
                        ),
                    ));
                }
            }
        }

        // R6: wall-clock time and hash-order iteration hazards. Binds in
        // build scripts too: a timestamp baked into generated code makes
        // every build produce different artifacts.
        if (src_crate.is_some() || build_script) && !in_test {
            if ident == "std"
                && ft.is_punct(i + 1, ":")
                && ft.is_punct(i + 2, ":")
                && ft.is_ident(i + 3, "time")
            {
                findings.push(
                    ft.finding(
                        "no-wall-clock",
                        Severity::Deny,
                        i,
                        "`std::time` in result-producing code — simulated time lives in \
                     pstime::Instant; wall-clock reads break determinism"
                            .to_string(),
                    ),
                );
            }
            if matches!(ident, "SystemTime" | "UNIX_EPOCH") {
                findings.push(ft.finding(
                    "no-wall-clock",
                    Severity::Deny,
                    i,
                    format!("`{ident}` is a wall-clock read — results must not depend on it"),
                ));
            }
            if matches!(ident, "HashMap" | "HashSet") {
                findings.push(ft.finding(
                    "no-wall-clock",
                    Severity::Deny,
                    i,
                    format!(
                        "`{ident}` iteration order is nondeterministic — use \
                         BTreeMap/BTreeSet in result-producing code"
                    ),
                ));
            }
        }
    }
}

/// Scan the argument span `[start, end)` of an `ExecPool` job call for
/// shared-mutation primitives and report each one.
fn check_job_purity(
    ft: &FileTokens<'_>,
    call: &str,
    start: usize,
    end: usize,
    findings: &mut Vec<Finding>,
) {
    let mut k = start;
    while k < end {
        let Some(t) = ft.tok(k) else { break };
        if t.kind == TokenKind::Ident {
            let name = t.text.as_str();
            if RACY_TYPES.contains(&name) || name.starts_with("Atomic") {
                findings.push(ft.finding(
                    "exec-job-racy",
                    Severity::Deny,
                    k,
                    format!(
                        "`{name}` inside a `{call}` job — pool jobs must be pure functions of \
                         their index; shared-mutation primitives make results depend on thread \
                         interleaving"
                    ),
                ));
            } else if name == "static" && ft.is_ident(k + 1, "mut") {
                findings.push(ft.finding(
                    "exec-job-racy",
                    Severity::Deny,
                    k,
                    format!(
                        "`static mut` inside a `{call}` job — pool jobs must not touch global \
                         mutable state"
                    ),
                ));
            } else if k > start
                && ft.is_punct(k - 1, ".")
                && ft.is_punct(k + 1, "(")
                && (RACY_METHODS.contains(&name)
                    || name.starts_with("fetch_")
                    || name.starts_with("compare_exchange"))
            {
                findings.push(ft.finding(
                    "exec-job-racy",
                    Severity::Deny,
                    k,
                    format!(
                        "`.{name}()` inside a `{call}` job — mutating shared state from a pool \
                         job breaks bit-identical-at-any-thread-count results"
                    ),
                ));
            }
        }
        k += 1;
    }
}

/// Cross-file pass for R2: the same stream label in two different files
/// means two components share one noise stream.
pub fn check_stream_uniqueness(
    streams: &BTreeMap<String, Vec<StreamUse>>,
    findings: &mut Vec<Finding>,
) {
    for (label, uses) in streams {
        let mut files: Vec<&str> = uses.iter().map(|u| u.rel_path.as_str()).collect();
        files.sort_unstable();
        files.dedup();
        if files.len() < 2 {
            continue;
        }
        let first = &uses[0];
        for dup in &uses[1..] {
            if dup.rel_path == first.rel_path {
                continue;
            }
            findings.push(Finding {
                rule_id: "stream-id-unique",
                severity: Severity::Deny,
                rel_path: dup.rel_path.clone(),
                line: dup.line,
                col: dup.col,
                message: format!(
                    "duplicate StreamId domain \"{label}\" — first used at {}:{}:{}; two \
                     components sharing a label draw correlated noise",
                    first.rel_path, first.line, first.col
                ),
                related: Vec::new(),
            });
        }
    }
}

/// Cross-file pass for `unreached-pub`: a bare-`pub` library fn whose
/// name no other file's code mentions. Names only, no resolution: any
/// mention elsewhere (a call, a `.method()`, an import) counts as a use,
/// so the rule never flags a function another file calls. Once the fn is
/// private, rustc's `dead_code` lint judges what is left with full types.
pub fn check_unreached_pub(facts: &[FileFacts], findings: &mut Vec<Finding>) {
    let mut naming: BTreeMap<&str, usize> = BTreeMap::new();
    for fact in facts {
        for name in &fact.names {
            *naming.entry(name.as_str()).or_default() += 1;
        }
    }
    for fact in facts {
        for f in &fact.pub_fns {
            let own = usize::from(fact.names.binary_search(&f.name).is_ok());
            if naming.get(f.name.as_str()).copied().unwrap_or(0) > own {
                continue;
            }
            findings.push(Finding {
                rule_id: "unreached-pub",
                severity: Severity::Warn,
                rel_path: fact.rel_path.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "`pub fn {}` is named by no other file — make it private and delete \
                     what rustc's dead_code then reports, or move it under #[cfg(test)]",
                    f.name
                ),
                related: Vec::new(),
            });
        }
    }
}

fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    for i in 0..tokens.len() {
        if punct_at(tokens, i, "#")
            && punct_at(tokens, i + 1, "!")
            && punct_at(tokens, i + 2, "[")
            && ident_at(tokens, i + 3, "forbid")
            && punct_at(tokens, i + 4, "(")
            && tokens
                .get(i + 4..)
                .unwrap_or(&[])
                .iter()
                .take_while(|t| !(t.kind == TokenKind::Punct && t.text == "]"))
                .any(|t| t.kind == TokenKind::Ident && t.text == "unsafe_code")
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::lexer::lex;
    use std::path::PathBuf;

    fn run_on(rel_path: &str, src: &str) -> Vec<Finding> {
        let class = classify(rel_path).expect("classifiable");
        let file =
            SourceFile { rel_path: rel_path.to_string(), abs_path: PathBuf::from(rel_path), class };
        let lexed = lex(rel_path, src).expect("lex");
        let ft = FileTokens::new(&file, &lexed);
        let mut findings = Vec::new();
        let mut streams = Vec::new();
        check_file_local(&ft, &mut findings, &mut streams);
        findings
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let findings = run_on("crates/signal/src/x.rs", src);
        assert!(findings.iter().all(|f| f.rule_id != "no-panic-in-lib"), "{findings:?}");
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\npub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        let findings = run_on("crates/signal/src/x.rs", src);
        assert!(findings.iter().any(|f| f.rule_id == "no-panic-in-lib"));
    }

    #[test]
    fn unwrap_or_variants_do_not_trip_r4() {
        let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap_or(0).max(v.unwrap_or_default()) }\n";
        assert!(run_on("crates/signal/src/x.rs", src).is_empty());
    }

    #[test]
    fn racy_job_closures_are_flagged() {
        let src = "pub fn f(pool: &ExecPool, hits: &std::sync::Mutex<Vec<u64>>) -> Vec<u64> {\n\
                       pool.run(8, |k| { hits.lock().ok(); k as u64 })\n\
                   }\n";
        let findings = run_on("crates/signal/src/x.rs", src);
        let racy: Vec<_> = findings.iter().filter(|f| f.rule_id == "exec-job-racy").collect();
        assert_eq!(racy.len(), 1, "{findings:?}");
        assert!(racy[0].message.contains("lock"));
    }

    #[test]
    fn pool_run_with_atomics_is_flagged_on_a_suffixed_pool_receiver() {
        let src = "pub fn f(exec_pool: &ExecPool, n: &AtomicU64) -> Vec<u64> {\n\
                       exec_pool.run(4, |k| n.fetch_add(k, Ordering::Relaxed))\n\
                   }\n";
        let findings = run_on("crates/signal/src/x.rs", src);
        assert_eq!(findings.iter().filter(|f| f.rule_id == "exec-job-racy").count(), 1);
    }

    #[test]
    fn pure_jobs_and_non_pool_run_calls_are_clean() {
        let src = "pub fn f(pool: &ExecPool, xs: &[u64]) -> Vec<u64> {\n\
                       pool.run(xs.len(), |k| xs.get(k).copied().unwrap_or(0) * 2)\n\
                   }\n\
                   pub fn g(sim: &Simulator) { sim.run(7); }\n";
        let findings = run_on("crates/signal/src/x.rs", src);
        assert!(findings.iter().all(|f| f.rule_id != "exec-job-racy"), "{findings:?}");
    }

    #[test]
    fn build_scripts_get_hermeticity_rules_only() {
        let src = "fn main() {\n\
                       let t = std::time::SystemTime::now();\n\
                       let delay_ps = 10.0; let x = delay_ps * 2.0;\n\
                       let n = 3usize; let m = n as u64;\n\
                   }\n";
        let findings = run_on("crates/pecl/build.rs", src);
        assert!(findings.iter().any(|f| f.rule_id == "no-wall-clock"));
        assert!(findings.iter().all(|f| f.rule_id != "no-raw-time-volt"), "{findings:?}");
        assert!(findings.iter().all(|f| f.rule_id != "no-lossy-cast"), "{findings:?}");
    }
}

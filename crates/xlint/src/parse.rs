//! Recursive-descent item parser over the lexer's token stream.
//!
//! The token-pattern rules of v1 see code one window at a time; the
//! semantic rules (`panic-reachable`, `error-bridge-exhaustive`,
//! `exec-job-racy`) need *structure*: which function a token belongs to,
//! whether that function is `pub`, what it calls, which enum variants a
//! `From` impl covers. This module recovers exactly that structure — an
//! item tree of fns (with their call sites and panic sites), impls, enums,
//! and use-paths — from the flat token stream, with no `syn` and no
//! third-party dependencies.
//!
//! It is a *best-effort* parser by design: anything it cannot parse it
//! skips, never errors. The analyses built on top over-approximate calls
//! (a skipped construct can only hide a call, and the limits are
//! documented in DESIGN.md §5d), so parser gaps degrade into documented
//! false negatives rather than crashes or false positives.

use std::collections::BTreeSet;

use crate::lexer::Token;
use crate::lexer::TokenKind;

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CallKind {
    /// `name(...)` — a free function call (or tuple-variant construction,
    /// which resolution simply fails to match).
    Free,
    /// `.name(...)` — a method call; the receiver type is unknown.
    Method,
    /// `Qual::name(...)` — a path call with its last qualifier segment.
    Qualified,
}

/// One call site inside a function body, deduplicated by callee.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Call {
    /// Shape of the call expression.
    pub kind: CallKind,
    /// Last path segment before the callee for [`CallKind::Qualified`]
    /// (`Duration` in `pstime::Duration::from_fs(..)`), `None` otherwise.
    pub qual: Option<String>,
    /// Callee name.
    pub name: String,
}

/// What kind of panic a [`PanicSite`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `.unwrap()` / `.expect(..)`.
    UnwrapExpect,
    /// Indexing a function parameter with a non-literal index — the one
    /// indexing shape whose bound is caller-controlled and locally
    /// unprovable.
    Index,
}

/// A potential panic inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// Classification.
    pub kind: PanicKind,
    /// Short description used in the reported call chain (`` `.unwrap()` ``,
    /// `` `xs[..]` ``).
    pub desc: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A blocking-API call site inside a function body — input to the
/// `event-loop-blocking` (R12) reachability pass. Only the shapes from
/// the event-loop contract are recorded: `.read_exact(..)` /
/// `.write_all(..)` on a stream, `.lock()`, a zero-argument `.join()`
/// (`JoinHandle::join` — `Vec::join`/`Path::join` take an argument),
/// `.set_nonblocking(false)`, and `thread::sleep`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSite {
    /// Short description used in the report (`` `thread::sleep` ``).
    pub desc: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One parsed function (free fn, inherent/trait method, or default trait
/// method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Enclosing impl target or trait name, `None` for free functions.
    pub qual: Option<String>,
    /// Whether the item carries any `pub` visibility (including
    /// `pub(crate)` — every widening is an entry point for reachability).
    pub is_pub: bool,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Parameter pattern names, in order (`self` included as written).
    pub params: Vec<String>,
    /// Declared type of each parameter as its space-joined identifiers
    /// (`&mut Reader<'_>` records as `"Reader"`, `self` as `""`),
    /// parallel to [`FnDef::params`]. The dataflow pass uses these to
    /// seed taint for wire-reader parameters.
    pub param_types: Vec<String>,
    /// Deduplicated call sites in the body (closures included).
    pub calls: Vec<Call>,
    /// Potential panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Blocking-API call sites in the body (R12 input).
    pub blocking: Vec<BlockSite>,
}

/// One parsed enum definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// One path imported by a `use` item, with groups expanded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// Path segments (`exec`, `ExecPool`); `*` appears for glob imports.
    pub segments: Vec<String>,
    /// Rename from a trailing `as alias`.
    pub alias: Option<String>,
}

/// The item tree of one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedFile {
    /// Every function found at item level (any nesting of mod/impl/trait).
    pub fns: Vec<FnDef>,
    /// Body token span `[start, end)` of each function, parallel to
    /// [`ParsedFile::fns`]; `None` for body-less trait declarations.
    /// Token indices are a lexer-run artifact, so this never enters
    /// [`crate::facts::FileFacts`] — the dataflow pass consumes it at
    /// build time only.
    pub bodies: Vec<Option<(usize, usize)>>,
    /// Every enum definition.
    pub enums: Vec<EnumDef>,
    /// Every use-path, groups expanded.
    pub uses: Vec<UsePath>,
}

/// Keywords that look like `name(` call sites but are control flow.
pub(crate) const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "move", "let", "else", "in", "as",
    "break", "continue", "where", "impl", "dyn", "ref", "mut", "use", "pub", "crate", "super",
    "unsafe", "await",
];

/// Macros whose expansion unconditionally panics.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

struct Parser<'a> {
    toks: &'a [Token],
    in_test: &'a [bool],
    out: ParsedFile,
}

/// Parse the item tree of a lexed file. `in_test` is the `#[cfg(test)]`
/// token mask (same length as `toks`).
pub fn parse_items(toks: &[Token], in_test: &[bool]) -> ParsedFile {
    let mut parser = Parser { toks, in_test, out: ParsedFile::default() };
    parser.items(0, toks.len(), None);
    parser.out
}

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.toks.get(i)
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.tok(i).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.as_str())
    }

    /// Index just past the delimiter that closes the one opened at `open`.
    fn after_matching(&self, open: usize, end: usize, open_s: &str, close_s: &str) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if self.is_punct(i, open_s) {
                depth += 1;
            } else if self.is_punct(i, close_s) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Index just past the `>` closing a generic-argument list opened at
    /// `open` (which must point at `<`). `->` arrows inside fn-pointer
    /// types do not close the list.
    fn after_generics(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if self.is_punct(i, "<") {
                depth += 1;
            } else if self.is_punct(i, ">") && !(i > 0 && self.is_punct(i - 1, "-")) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Parse the items in `[start, end)` with the given impl/trait
    /// qualifier.
    fn items(&mut self, start: usize, end: usize, qual: Option<&str>) {
        let mut i = start;
        let mut is_pub = false;
        while i < end {
            // Attributes: `#[...]` and `#![...]`.
            if self.is_punct(i, "#") {
                let open = if self.is_punct(i + 1, "!") { i + 2 } else { i + 1 };
                if self.is_punct(open, "[") {
                    i = self.after_matching(open, end, "[", "]");
                    continue;
                }
                i += 1;
                continue;
            }
            match self.ident(i) {
                Some("pub") => {
                    is_pub = true;
                    i += 1;
                    if self.is_punct(i, "(") {
                        i = self.after_matching(i, end, "(", ")");
                    }
                }
                Some("fn") => {
                    i = self.fn_item(i, end, qual, is_pub);
                    is_pub = false;
                }
                Some("impl") => {
                    i = self.impl_item(i, end);
                    is_pub = false;
                }
                Some("trait") => {
                    let name = self.ident(i + 1).map(str::to_string);
                    i = self.braced_sub_items(i + 2, end, name.as_deref());
                    is_pub = false;
                }
                Some("mod") => {
                    // `mod name;` (file module) or `mod name { items }`.
                    if self.is_punct(i + 2, ";") {
                        i += 3;
                    } else {
                        i = self.braced_sub_items(i + 2, end, None);
                    }
                    is_pub = false;
                }
                Some("enum") => {
                    i = self.enum_item(i, end);
                    is_pub = false;
                }
                Some("use") => {
                    i = self.use_item(i, end);
                    is_pub = false;
                }
                Some("struct" | "type" | "const" | "static" | "macro_rules" | "extern") => {
                    i = self.skip_to_item_end(i + 1, end);
                    is_pub = false;
                }
                _ => {
                    i += 1;
                    is_pub = false;
                }
            }
        }
    }

    /// From a position at or before an item's opening `{`, recurse into
    /// the brace block as sub-items, returning the index past its close.
    fn braced_sub_items(&mut self, from: usize, end: usize, qual: Option<&str>) -> usize {
        let mut i = from;
        while i < end && !self.is_punct(i, "{") && !self.is_punct(i, ";") {
            i += 1;
        }
        if self.is_punct(i, ";") {
            return i + 1;
        }
        let past = self.after_matching(i, end, "{", "}");
        let inner_end = past.saturating_sub(1);
        if i < inner_end {
            self.items(i + 1, inner_end, qual);
        }
        past
    }

    /// Skip a struct/type/const/static/extern item: to `;` at depth zero,
    /// or past a brace block, whichever comes first.
    fn skip_to_item_end(&self, from: usize, end: usize) -> usize {
        let mut i = from;
        let mut angle = 0i32;
        while i < end {
            if self.is_punct(i, "<") {
                angle += 1;
            } else if self.is_punct(i, ">") && !(i > 0 && self.is_punct(i - 1, "-")) {
                angle -= 1;
            } else if self.is_punct(i, ";") && angle <= 0 {
                return i + 1;
            } else if self.is_punct(i, "{") && angle <= 0 {
                return self.after_matching(i, end, "{", "}");
            } else if self.is_punct(i, "(") {
                // Tuple struct body; the `;` after it terminates the item.
                i = self.after_matching(i, end, "(", ")");
                continue;
            }
            i += 1;
        }
        end
    }

    /// Parse `impl<G> Type { .. }` / `impl<G> Trait for Type { .. }`,
    /// recursing into the body with the target type as qualifier.
    fn impl_item(&mut self, at: usize, end: usize) -> usize {
        let mut i = at + 1;
        if self.is_punct(i, "<") {
            i = self.after_generics(i, end);
        }
        // Scan the head for the last path segment before `{`, preferring
        // the path after `for` when present.
        let mut target: Option<String> = None;
        let mut angle = 0i32;
        while i < end {
            if self.is_punct(i, "<") {
                angle += 1;
            } else if self.is_punct(i, ">") && !(i > 0 && self.is_punct(i - 1, "-")) {
                angle -= 1;
            } else if angle <= 0 {
                if self.is_punct(i, "{") {
                    break;
                }
                match self.ident(i) {
                    Some("for") => target = None,
                    Some("where") => break,
                    Some(name) if name != "dyn" && name != "mut" => {
                        // Keep the last path segment seen; `for` resets it
                        // so `impl Trait for Type` ends on `Type`.
                        target = Some(name.to_string());
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        // Skip a where clause to the body brace.
        while i < end && !self.is_punct(i, "{") && !self.is_punct(i, ";") {
            i += 1;
        }
        if self.is_punct(i, ";") {
            return i + 1;
        }
        let past = self.after_matching(i, end, "{", "}");
        let inner_end = past.saturating_sub(1);
        if i < inner_end {
            self.items(i + 1, inner_end, target.as_deref());
        }
        past
    }

    /// Parse one `fn`, returning the index past the item.
    fn fn_item(&mut self, at: usize, end: usize, qual: Option<&str>, is_pub: bool) -> usize {
        let (line, col) = self.tok(at).map_or((1, 1), |t| (t.line, t.col));
        let Some(name) = self.ident(at + 1).map(str::to_string) else {
            return at + 1;
        };
        let mut i = at + 2;
        if self.is_punct(i, "<") {
            i = self.after_generics(i, end);
        }
        if !self.is_punct(i, "(") {
            return i;
        }
        let params_end = self.after_matching(i, end, "(", ")");
        let (params, param_types) = self.param_list(i + 1, params_end.saturating_sub(1));
        // Return type and where clause: scan to the body `{` or a `;`
        // (trait method declaration) at angle/paren depth zero.
        let mut j = params_end;
        let mut angle = 0i32;
        let mut paren = 0i32;
        while j < end {
            if self.is_punct(j, "<") {
                angle += 1;
            } else if self.is_punct(j, ">") && !(j > 0 && self.is_punct(j - 1, "-")) {
                angle -= 1;
            } else if self.is_punct(j, "(") || self.is_punct(j, "[") {
                paren += 1;
            } else if self.is_punct(j, ")") || self.is_punct(j, "]") {
                paren -= 1;
            } else if (self.is_punct(j, "{") || self.is_punct(j, ";")) && angle <= 0 && paren <= 0 {
                break;
            }
            j += 1;
        }
        let in_test = self.in_test.get(at).copied().unwrap_or(false);
        if self.is_punct(j, ";") {
            self.out.fns.push(FnDef {
                name,
                qual: qual.map(str::to_string),
                is_pub,
                in_test,
                line,
                col,
                params,
                param_types,
                calls: Vec::new(),
                panics: Vec::new(),
                blocking: Vec::new(),
            });
            self.out.bodies.push(None);
            return j + 1;
        }
        let past = self.after_matching(j, end, "{", "}");
        let body_start = j + 1;
        let body_end = past.saturating_sub(1);
        let (calls, panics, blocking) = self.body_facts(body_start, body_end, &params);
        self.out.fns.push(FnDef {
            name,
            qual: qual.map(str::to_string),
            is_pub,
            in_test,
            line,
            col,
            params,
            param_types,
            calls,
            panics,
            blocking,
        });
        self.out.bodies.push(Some((body_start, body_end)));
        past
    }

    /// Collect top-level parameter pattern names and their declared types
    /// (space-joined type identifiers) from a param-list span.
    fn param_list(&self, start: usize, end: usize) -> (Vec<String>, Vec<String>) {
        let mut names = Vec::new();
        let mut types: Vec<String> = Vec::new();
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut expecting = true;
        let mut in_type = false;
        let mut i = start;
        while i < end {
            if self.is_punct(i, "(") || self.is_punct(i, "[") || self.is_punct(i, "{") {
                depth += 1;
            } else if self.is_punct(i, ")") || self.is_punct(i, "]") || self.is_punct(i, "}") {
                depth -= 1;
            } else if self.is_punct(i, "<") {
                angle += 1;
            } else if self.is_punct(i, ">") && !(i > 0 && self.is_punct(i - 1, "-")) {
                angle -= 1;
            } else if self.is_punct(i, ",") && depth == 0 && angle == 0 {
                expecting = true;
                in_type = false;
            } else if in_type {
                if let (Some(seg), Some(ty)) = (self.ident(i), types.last_mut()) {
                    if seg != "mut" && seg != "dyn" && seg != "impl" {
                        if !ty.is_empty() {
                            ty.push(' ');
                        }
                        ty.push_str(seg);
                    }
                }
            } else if expecting {
                match self.ident(i) {
                    Some("mut") => {}
                    Some("self") => {
                        names.push("self".to_string());
                        types.push(String::new());
                        expecting = false;
                    }
                    Some(name) if self.is_punct(i + 1, ":") && !self.is_punct(i + 2, ":") => {
                        names.push(name.to_string());
                        types.push(String::new());
                        expecting = false;
                        in_type = true;
                        i += 2;
                        continue;
                    }
                    Some(_) => expecting = false,
                    None => {}
                }
            }
            i += 1;
        }
        (names, types)
    }

    /// Extract deduplicated call sites, panic sites, and blocking-API
    /// sites from a body span (closure bodies included — they execute on
    /// behalf of the fn).
    fn body_facts(
        &self,
        start: usize,
        end: usize,
        params: &[String],
    ) -> (Vec<Call>, Vec<PanicSite>, Vec<BlockSite>) {
        let mut calls = BTreeSet::new();
        let mut panics = Vec::new();
        let mut blocking = Vec::new();
        let mut i = start;
        while i < end {
            let Some(tok) = self.tok(i) else { break };
            if tok.kind == TokenKind::Ident {
                let name = tok.text.as_str();
                // Panic macros.
                if PANIC_MACROS.contains(&name) && self.is_punct(i + 1, "!") {
                    panics.push(PanicSite {
                        kind: PanicKind::Macro,
                        desc: format!("`{name}!`"),
                        line: tok.line,
                        col: tok.col,
                    });
                    i += 2;
                    continue;
                }
                // Calls: `name(`, `.name(`, `Qual::name(`.
                if self.is_punct(i + 1, "(") {
                    if let Some(desc) = self.blocking_desc(name, i, end) {
                        blocking.push(BlockSite { desc, line: tok.line, col: tok.col });
                    }
                    if i > start && self.is_punct(i - 1, ".") {
                        if name == "unwrap" || name == "expect" {
                            panics.push(PanicSite {
                                kind: PanicKind::UnwrapExpect,
                                desc: format!("`.{name}()`"),
                                line: tok.line,
                                col: tok.col,
                            });
                        }
                        calls.insert(Call {
                            kind: CallKind::Method,
                            qual: None,
                            name: name.to_string(),
                        });
                    } else if i >= start + 2
                        && self.is_punct(i - 1, ":")
                        && self.is_punct(i - 2, ":")
                    {
                        let qual = if i >= start + 3 { self.ident(i - 3) } else { None };
                        calls.insert(Call {
                            kind: CallKind::Qualified,
                            qual: qual.map(str::to_string),
                            name: name.to_string(),
                        });
                    } else if !NON_CALL_KEYWORDS.contains(&name) {
                        calls.insert(Call {
                            kind: CallKind::Free,
                            qual: None,
                            name: name.to_string(),
                        });
                    }
                }
            }
            // Parameter indexing with a non-literal index.
            if self.is_punct(i, "[") {
                if let Some(prev) = i.checked_sub(1).and_then(|p| self.ident(p)) {
                    if params.iter().any(|p| p == prev) {
                        let close = self.after_matching(i, end, "[", "]");
                        let inner: Vec<&Token> =
                            (i + 1..close.saturating_sub(1)).filter_map(|k| self.tok(k)).collect();
                        let literal =
                            inner.len() == 1 && inner.iter().all(|t| t.kind == TokenKind::NumLit);
                        if !literal && !inner.is_empty() {
                            let (line, col) = self.tok(i).map_or((1, 1), |t| (t.line, t.col));
                            panics.push(PanicSite {
                                kind: PanicKind::Index,
                                desc: format!("`{prev}[..]`"),
                                line,
                                col,
                            });
                        }
                    }
                }
            }
            i += 1;
        }
        (calls.into_iter().collect(), panics, blocking)
    }

    /// If the call at `i` (an ident followed by `(`) is one of the
    /// blocking shapes the event-loop contract forbids, return its
    /// report description. `end` bounds the argument scan.
    fn blocking_desc(&self, name: &str, i: usize, end: usize) -> Option<String> {
        let dotted = i > 0 && self.is_punct(i - 1, ".");
        match name {
            "read_exact" | "write_all" if dotted => Some(format!("`.{name}(..)`")),
            "lock" if dotted => Some("`.lock()`".to_string()),
            // `JoinHandle::join` takes no argument; `Vec::join` and
            // `Path::join` take one, so empty parens disambiguate.
            "join" if dotted && self.is_punct(i + 2, ")") => Some("`.join()`".to_string()),
            "set_nonblocking" if dotted => {
                let close = self.after_matching(i + 1, end, "(", ")");
                (i + 2..close)
                    .any(|k| self.ident(k) == Some("false"))
                    .then(|| "`.set_nonblocking(false)`".to_string())
            }
            "sleep" => Some("`thread::sleep`".to_string()),
            _ => None,
        }
    }

    /// Parse `enum Name<G> { Variants }`.
    fn enum_item(&mut self, at: usize, end: usize) -> usize {
        let Some(name) = self.ident(at + 1).map(str::to_string) else {
            return at + 1;
        };
        let mut i = at + 2;
        if self.is_punct(i, "<") {
            i = self.after_generics(i, end);
        }
        while i < end && !self.is_punct(i, "{") && !self.is_punct(i, ";") {
            i += 1;
        }
        if !self.is_punct(i, "{") {
            return i + 1;
        }
        let past = self.after_matching(i, end, "{", "}");
        let body_end = past.saturating_sub(1);
        let mut variants = Vec::new();
        let mut depth = 0i32;
        let mut expecting = true;
        let mut k = i + 1;
        while k < body_end {
            if self.is_punct(k, "(") || self.is_punct(k, "[") || self.is_punct(k, "{") {
                depth += 1;
            } else if self.is_punct(k, ")") || self.is_punct(k, "]") || self.is_punct(k, "}") {
                depth -= 1;
            } else if self.is_punct(k, ",") && depth == 0 {
                expecting = true;
            } else if self.is_punct(k, "#") && depth == 0 && self.is_punct(k + 1, "[") {
                k = self.after_matching(k + 1, body_end, "[", "]");
                continue;
            } else if expecting && depth == 0 {
                if let Some(v) = self.ident(k) {
                    variants.push(v.to_string());
                    expecting = false;
                }
            }
            k += 1;
        }
        self.out.enums.push(EnumDef { name, variants });
        past
    }

    /// Parse `use path::{group, nested::leaf} as alias;` into flat paths.
    fn use_item(&mut self, at: usize, end: usize) -> usize {
        let mut stop = at + 1;
        let mut depth = 0i32;
        while stop < end {
            if self.is_punct(stop, "{") {
                depth += 1;
            } else if self.is_punct(stop, "}") {
                depth -= 1;
            } else if self.is_punct(stop, ";") && depth == 0 {
                break;
            }
            stop += 1;
        }
        let mut paths = Vec::new();
        self.use_paths(at + 1, stop, &[], &mut paths);
        self.out.uses.append(&mut paths);
        stop + 1
    }

    /// Expand the use-tree in `[start, end)` under `prefix`.
    fn use_paths(&self, start: usize, end: usize, prefix: &[String], out: &mut Vec<UsePath>) {
        let mut segments: Vec<String> = prefix.to_vec();
        let mut alias = None;
        let mut i = start;
        while i < end {
            if let Some(name) = self.ident(i) {
                if name == "as" {
                    alias = self.ident(i + 1).map(str::to_string);
                    i += 2;
                    continue;
                }
                segments.push(name.to_string());
            } else if self.is_punct(i, "*") {
                segments.push("*".to_string());
            } else if self.is_punct(i, "{") {
                // Group: split the inside on top-level commas, recursing
                // with the accumulated prefix.
                let past = self.after_matching(i, end, "{", "}");
                let inner_end = past.saturating_sub(1);
                let mut item_start = i + 1;
                let mut depth = 0i32;
                let mut k = i + 1;
                while k < inner_end {
                    if self.is_punct(k, "{") {
                        depth += 1;
                    } else if self.is_punct(k, "}") {
                        depth -= 1;
                    } else if self.is_punct(k, ",") && depth == 0 {
                        self.use_paths(item_start, k, &segments, out);
                        item_start = k + 1;
                    }
                    k += 1;
                }
                if item_start < inner_end {
                    self.use_paths(item_start, inner_end, &segments, out);
                }
                return;
            } else if self.is_punct(i, ",") {
                break;
            }
            i += 1;
        }
        if segments.len() > prefix.len() || alias.is_some() {
            out.push(UsePath { segments, alias });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::cfg_test_mask;

    fn parse(src: &str) -> ParsedFile {
        let lexed = lex("test.rs", src).expect("lex");
        let mask = cfg_test_mask(&lexed.tokens);
        parse_items(&lexed.tokens, &mask)
    }

    fn fn_named<'a>(parsed: &'a ParsedFile, name: &str) -> &'a FnDef {
        parsed.fns.iter().find(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn generics_and_where_clauses_do_not_derail_fn_parsing() {
        let parsed = parse(
            "pub fn lookup<K: Ord, V>(map: &BTreeMap<K, V>, key: &K) -> Option<&V>\n\
             where\n    K: Clone,\n    V: PartialEq<V>,\n{ map.get(key) }\n\
             fn after() -> i32 { 0 }\n",
        );
        let f = fn_named(&parsed, "lookup");
        assert!(f.is_pub);
        assert_eq!(f.params, vec!["map".to_string(), "key".to_string()]);
        assert!(f.calls.contains(&Call {
            kind: CallKind::Method,
            qual: None,
            name: "get".to_string()
        }));
        // The where clause must not swallow the following item.
        assert!(parsed.fns.iter().any(|f| f.name == "after"));
    }

    #[test]
    fn nested_closures_attribute_calls_and_panics_to_the_enclosing_fn() {
        let parsed = parse(
            "pub fn outer(xs: &[u64]) -> u64 {\n\
                 let f = |a: u64| xs.iter().map(|b| helper(a + b)).sum::<u64>();\n\
                 let g = move || inner_val.unwrap();\n\
                 f(1) + g()\n\
             }\n",
        );
        let f = fn_named(&parsed, "outer");
        assert!(f.calls.contains(&Call {
            kind: CallKind::Free,
            qual: None,
            name: "helper".to_string()
        }));
        assert!(f.panics.iter().any(|p| p.kind == PanicKind::UnwrapExpect));
    }

    #[test]
    fn impl_blocks_qualify_methods_including_trait_impls() {
        let parsed = parse(
            "impl Sampler { pub fn arm(&mut self) { self.reset(); } }\n\
             impl core::fmt::Display for Sampler {\n\
                 fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write_out(f) }\n\
             }\n",
        );
        let arm = fn_named(&parsed, "arm");
        assert_eq!(arm.qual.as_deref(), Some("Sampler"));
        assert!(arm.is_pub);
        let fmt = fn_named(&parsed, "fmt");
        assert_eq!(fmt.qual.as_deref(), Some("Sampler"));
        assert!(!fmt.is_pub);
    }

    #[test]
    fn param_indexing_is_a_panic_site_but_literal_and_local_indexing_are_not() {
        let parsed = parse(
            "pub fn pick(xs: &[u64], i: usize) -> u64 {\n\
                 let local = [1u64, 2];\n\
                 xs[i] + xs[0] + local[i]\n\
             }\n",
        );
        let f = fn_named(&parsed, "pick");
        let idx: Vec<_> = f.panics.iter().filter(|p| p.kind == PanicKind::Index).collect();
        assert_eq!(idx.len(), 1, "{:?}", f.panics);
        assert!(idx.iter().all(|p| p.desc.contains("xs")));
    }

    #[test]
    fn cfg_test_fns_are_marked_and_enums_record_variants() {
        let parsed = parse(
            "pub enum ExecError { JobPanicked { index: usize }, SpawnFailed(String), Missing }\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { other(); }\n}\n",
        );
        let e = parsed.enums.first().expect("enum parsed");
        assert_eq!(e.name, "ExecError");
        assert_eq!(
            e.variants,
            vec!["JobPanicked".to_string(), "SpawnFailed".to_string(), "Missing".to_string()]
        );
        assert!(fn_named(&parsed, "helper").in_test);
    }

    #[test]
    fn use_groups_expand_and_aliases_are_kept() {
        let parsed = parse("use exec::{ExecPool, error::ExecError as EE};\nuse rng::SeedTree;\n");
        let paths: Vec<Vec<String>> = parsed.uses.iter().map(|u| u.segments.clone()).collect();
        assert!(paths.contains(&vec!["exec".to_string(), "ExecPool".to_string()]));
        assert!(paths.contains(&vec![
            "exec".to_string(),
            "error".to_string(),
            "ExecError".to_string()
        ]));
        assert!(paths.contains(&vec!["rng".to_string(), "SeedTree".to_string()]));
        let aliased = parsed.uses.iter().find(|u| u.alias.is_some()).expect("alias kept");
        assert_eq!(aliased.alias.as_deref(), Some("EE"));
    }

    #[test]
    fn qualified_calls_record_their_last_path_segment() {
        let parsed =
            parse("fn f() -> Duration { pstime::Duration::from_fs(1) + Duration::zero() }\n");
        let f = fn_named(&parsed, "f");
        assert!(f.calls.contains(&Call {
            kind: CallKind::Qualified,
            qual: Some("Duration".to_string()),
            name: "from_fs".to_string()
        }));
        assert!(f.calls.contains(&Call {
            kind: CallKind::Qualified,
            qual: Some("Duration".to_string()),
            name: "zero".to_string()
        }));
    }

    #[test]
    fn trait_decls_without_bodies_parse_and_do_not_consume_followers() {
        let parsed = parse(
            "trait Probe { fn strobe(&self) -> u64; fn name(&self) -> &str { default_name() } }\n\
             pub fn free() {}\n",
        );
        assert_eq!(fn_named(&parsed, "strobe").qual.as_deref(), Some("Probe"));
        assert!(fn_named(&parsed, "name").calls.iter().any(|c| c.name == "default_name"));
        assert!(parsed.fns.iter().any(|f| f.name == "free" && f.is_pub));
    }
}

//! Interprocedural taint summaries: wire-taint (R11) v4.
//!
//! v3's taint pass stopped at function edges — a peer-controlled length
//! laundered through any helper (`plan::slice` → `merge::from_parts`)
//! escaped analysis entirely. v4 splits the rule into two phases that
//! mirror the engine's cache architecture:
//!
//! 1. **Per-file extraction** ([`extract_flows`]): a linear abstract
//!    scan of every non-test function producing one [`FnFlow`] per
//!    [`crate::parse::FnDef`] — which *sources* ([`Src`]) feed each call
//!    argument, each sink, and the return value. This is a pure function
//!    of the file bytes, so flows live in the fact cache.
//! 2. **Cross-file fixpoint** ([`check_wire_taint`]): a monotone
//!    fixpoint over the v2 call graph computing per-function summaries
//!    (does the return carry wire taint, which params flow to the
//!    return, which params reach a sink), then emitting findings — at
//!    the sink for locally-tainted flows (byte-identical to v3 for the
//!    hop-free case) and at the *call site* with the full fn-chain when
//!    the taint crosses functions, like `panic-reachable` already does.
//!
//! ## The abstract domain
//!
//! A binding's abstract value is a set of [`Src`] provenances plus an
//! optional [`Ceiling`] — the interval half of the lattice. A ceiling is
//! established by a clamping projection (`.min(..)`, `.clamp(..)`,
//! `.count(..)`, `.len()`, `.str(..)`), by a comparison against a
//! recognized bound (`limits::`, a SHOUTING constant, a literal), by a
//! literal initializer, or by `validate()`. A ceilinged value has no
//! sources — bounds survive joins and, via `ret`-summaries, across
//! calls: `fn clamp(n: usize) -> usize { n.min(limits::MAX) }` cleans
//! every transitive consumer of its result.
//!
//! Unresolved calls are *conservative pass-throughs*: the result carries
//! the union of the argument sources, which reproduces v3's "any tainted
//! ident in the initializer span taints the binding" behavior exactly.
//! Resolved calls use the callee summary instead — strictly more
//! precise, and the reason a sanitizer *in the callee* now cleans the
//! caller. Termination: both the per-node summaries and the expansion
//! visited-set grow monotonically in a finite lattice (params, call
//! sites, and sinks are all finite), so the fixpoint converges.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::classify::{FileClass, SourceFile};
use crate::facts::FileFacts;
use crate::graph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::parse::{CallKind, ParsedFile, NON_CALL_KEYWORDS};
use crate::rules::{Finding, Related, Severity};

/// Functions of the codec surface whose results are peer-controlled.
pub(crate) const SOURCE_FNS: &[&str] =
    &["decode_frame", "decode_header", "decode_frame2", "decode_header2"];

/// Exec entry points a tainted value must never reach unvalidated.
pub(crate) const POOL_SINKS: &[&str] = &["run_on", "par_map", "par_map_reduce"];

/// Methods whose result is bounded by construction: projecting a
/// tainted value through one of these yields a clean binding.
pub(crate) const BOUNDING_METHODS: &[&str] = &["min", "clamp", "count", "len", "str"];

/// Widen a serialized u32 index to usize without a lossy cast.
fn ix(n: u32) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Abstract provenance of a value inside one function.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Src {
    /// Wire-tainted in this very function: a decoder call, `Reader::`,
    /// a `Reader`-typed parameter, or `self` in `impl Reader`.
    Direct,
    /// Flows from the function's i-th parameter (0-based; `self` is
    /// parameter 0 of a method).
    Param(u32),
    /// Flows from the result of the k-th recorded call in this
    /// function's [`FnFlow::calls`].
    Call(u32),
}

/// A known upper bound — the interval half of the lattice. Only the
/// *existence* of a ceiling matters for taint (a bounded value is
/// clean); the bound itself is kept for diagnostics and the cache.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ceiling {
    /// A numeric literal bound.
    Lit(u64),
    /// A symbolic bound (`limits::MAX_DIES`, a SHOUTING const, or the
    /// generic `"bounded"` for clamping projections).
    Sym(String),
}

/// One recorded call site with per-argument provenance. For method
/// calls the receiver is argument 0, aligning with `self` being
/// parameter 0 of the callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFlow {
    /// Shape of the call expression.
    pub kind: CallKind,
    /// Qualifier for [`CallKind::Qualified`].
    pub qual: Option<String>,
    /// Callee name.
    pub name: String,
    /// Per-argument source sets (sorted, deduplicated).
    pub args: Vec<Vec<Src>>,
    /// Display name per argument (the first identifier of the argument
    /// expression), parallel to [`CallFlow::args`]; used in diagnostics.
    pub argv: Vec<String>,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based column of the callee name token.
    pub col: u32,
}

/// What kind of sink a [`SinkFlow`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// `with_capacity(..)` / `.reserve(..)` argument.
    Alloc,
    /// The length position of `vec![_; n]`.
    VecMacro,
    /// An argument of an exec entry point (`run_on`, `par_map`, …).
    PoolArg,
    /// The receiver of an exec entry point (`spec.run_on(..)`).
    PoolRecv,
    /// Raw `+`/`*` length arithmetic.
    Arith,
}

/// One sink site with the sources that reached it unsanitized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkFlow {
    /// Sink classification.
    pub kind: SinkKind,
    /// Sink name (`with_capacity`, `run_on`, …; `+`/`*` for
    /// [`SinkKind::Arith`]).
    pub sink: String,
    /// The offending value's display name.
    pub var: String,
    /// Sources feeding the sink (sorted, deduplicated).
    pub srcs: Vec<Src>,
    /// 1-based line of the sink.
    pub line: u32,
    /// 1-based column of the sink.
    pub col: u32,
}

/// The per-function taint-flow facts: everything the cross-file
/// fixpoint needs, and nothing tied to token indices — so it caches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFlow {
    /// Recorded call sites ([`Src::Call`] indexes into this).
    pub calls: Vec<CallFlow>,
    /// Sink sites with their unsanitized sources.
    pub sinks: Vec<SinkFlow>,
    /// Sources feeding the return value (tail expression and `return`
    /// statements); empty when the return is clean or bounded.
    pub ret: Vec<Src>,
    /// Ceiling on the returned value, when one is established.
    pub ret_ceiling: Option<Ceiling>,
}

/// Extract one [`FnFlow`] per parsed function of a `Src` file. The
/// result is parallel to `parsed.fns` (test and body-less functions get
/// an empty default, keeping index alignment with the cached fact).
pub fn extract_flows(file: &SourceFile, toks: &[Token], parsed: &ParsedFile) -> Vec<FnFlow> {
    let is_src = matches!(file.class, FileClass::Src { .. });
    parsed
        .fns
        .iter()
        .zip(&parsed.bodies)
        .map(|(def, body)| match body {
            Some((start, end)) if is_src && !def.in_test => {
                FlowScan::new(toks, def, *start, *end).run()
            }
            _ => FnFlow::default(),
        })
        .collect()
}

/// One binding's abstract value during extraction.
#[derive(Debug, Clone, Default)]
struct AbsVal {
    srcs: BTreeSet<Src>,
    ceiling: Option<Ceiling>,
}

impl AbsVal {
    fn clean(ceiling: Option<Ceiling>) -> Self {
        AbsVal { srcs: BTreeSet::new(), ceiling }
    }
}

/// One function's linear abstract scan (the v4 evolution of v3's
/// `TaintScan`).
struct FlowScan<'a> {
    toks: &'a [Token],
    start: usize,
    end: usize,
    /// Current abstract value per binding name.
    state: BTreeMap<String, AbsVal>,
    /// A `let`/`for` binding set waiting to take effect once the scan
    /// passes the end of its initializer.
    pending: Option<(Vec<String>, AbsVal, usize)>,
    /// Token index of each recorded call site → its `Src::Call` index.
    call_sites: BTreeMap<usize, u32>,
    flow: FnFlow,
}

impl<'a> FlowScan<'a> {
    fn new(toks: &'a [Token], def: &'a crate::parse::FnDef, start: usize, end: usize) -> Self {
        let mut state = BTreeMap::new();
        for (i, (name, ty)) in def.params.iter().zip(&def.param_types).enumerate() {
            let direct = ty.split(' ').any(|seg| seg == "Reader")
                || (name == "self" && def.qual.as_deref() == Some("Reader"));
            let src =
                if direct { Src::Direct } else { Src::Param(u32::try_from(i).unwrap_or(u32::MAX)) };
            state.insert(name.clone(), AbsVal { srcs: BTreeSet::from([src]), ceiling: None });
        }
        let mut scan = FlowScan {
            toks,
            start,
            end,
            state,
            pending: None,
            call_sites: BTreeMap::new(),
            flow: FnFlow::default(),
        };
        scan.record_call_sites();
        scan
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.toks.get(i).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.as_str())
    }

    fn after_matching(&self, open: usize, open_s: &str, close_s: &str) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.end {
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
        self.end
    }

    /// Pre-pass: assign a stable index to every call site whose result
    /// the summary layer will reason about, in token order. Sources,
    /// sinks, sanitizers, bounding projections, keywords, macros, and
    /// uppercase constructors are not *recorded* — they have dedicated
    /// semantics in [`FlowScan::eval_span`].
    fn record_call_sites(&mut self) {
        let mut i = self.start;
        while i < self.end {
            let Some(name) = self.ident(i).map(str::to_string) else {
                i += 1;
                continue;
            };
            let name = name.as_str();
            if !self.is_punct(i + 1, "(")
                || NON_CALL_KEYWORDS.contains(&name)
                || !name.chars().next().is_some_and(char::is_lowercase)
                || SOURCE_FNS.contains(&name)
                || POOL_SINKS.contains(&name)
                || matches!(name, "validate" | "with_capacity" | "reserve")
            {
                i += 1;
                continue;
            }
            let dotted = i > self.start && self.is_punct(i - 1, ".");
            if dotted && BOUNDING_METHODS.contains(&name) {
                i += 1;
                continue;
            }
            let (kind, qual) = if dotted {
                (CallKind::Method, None)
            } else if i >= self.start + 2 && self.is_punct(i - 1, ":") && self.is_punct(i - 2, ":")
            {
                let q = if i >= self.start + 3 { self.ident(i - 3) } else { None };
                (CallKind::Qualified, q.map(str::to_string))
            } else {
                (CallKind::Free, None)
            };
            let (line, col) = self.toks.get(i).map_or((1, 1), |t| (t.line, t.col));
            let idx = u32::try_from(self.flow.calls.len()).unwrap_or(u32::MAX);
            self.call_sites.insert(i, idx);
            self.flow.calls.push(CallFlow {
                kind,
                qual,
                name: name.to_string(),
                args: Vec::new(),
                argv: Vec::new(),
                line,
                col,
            });
            i += 1;
        }
    }

    /// Does the expression span project through a bounding method
    /// (`.min(..)`, `.count(..)`, `.len()`, …)? Such an expression is
    /// clean regardless of what feeds it.
    fn span_bounded(&self, from: usize, to: usize) -> bool {
        (from..to).any(|i| {
            self.is_punct(i, ".")
                && self.ident(i + 1).is_some_and(|m| BOUNDING_METHODS.contains(&m))
                && self.is_punct(i + 2, "(")
        })
    }

    /// The ceiling a bounded span establishes: the first recognized
    /// bound token inside it, or the generic `"bounded"`.
    fn span_ceiling(&self, from: usize, to: usize) -> Ceiling {
        for i in from..to {
            if let Some(c) = self.bound_ceiling(i) {
                // `limits` alone is a path head, not the bound itself.
                if matches!(&c, Ceiling::Sym(s) if s == "limits") {
                    if let Some(leaf) = self.ident(i + 3) {
                        return Ceiling::Sym(format!("limits::{leaf}"));
                    }
                }
                return c;
            }
        }
        Ceiling::Sym("bounded".to_string())
    }

    /// Is the token at `i` a bound the contract recognizes: a numeric
    /// literal, a `limits::` path, or a SHOUTING_CASE constant?
    fn bound_ceiling(&self, i: usize) -> Option<Ceiling> {
        if let Some(t) = self.toks.get(i).filter(|t| t.kind == TokenKind::NumLit) {
            let digits: String = t.text.chars().take_while(|c| c.is_ascii_digit()).collect();
            return Some(
                digits.parse().map_or_else(|_| Ceiling::Sym(t.text.clone()), Ceiling::Lit),
            );
        }
        self.ident(i).and_then(|name| {
            (name == "limits"
                || (name.len() > 1 && name.chars().all(|c| c.is_ascii_uppercase() || c == '_')))
            .then(|| Ceiling::Sym(name.to_string()))
        })
    }

    fn is_bound_token(&self, i: usize) -> bool {
        self.bound_ceiling(i).is_some()
    }

    /// The comparison operator starting at `i` (`<`, `>`, `<=`, `>=`,
    /// `==`), returned as its token width; `None` for shifts and arrows.
    fn comparison_width(&self, i: usize) -> Option<usize> {
        let first = self.toks.get(i).filter(|t| t.kind == TokenKind::Punct)?;
        match first.text.as_str() {
            "<" | ">" => {
                if self.is_punct(i + 1, "=") {
                    Some(2)
                } else if self.is_punct(i + 1, "<") || self.is_punct(i + 1, ">") {
                    None
                } else {
                    Some(1)
                }
            }
            "=" if self.is_punct(i + 1, "=") => Some(2),
            _ => None,
        }
    }

    /// Is the ident at `i` a use of a binding (not a field or method
    /// name projected off something else)?
    fn binding_use(&self, i: usize) -> Option<(&str, &AbsVal)> {
        if i > self.start && self.is_punct(i - 1, ".") {
            return None;
        }
        let name = self.ident(i)?;
        self.state.get(name).map(|v| (name, v))
    }

    /// Abstract value of an expression span under the current state.
    fn eval_span(&self, from: usize, to: usize) -> AbsVal {
        if self.span_bounded(from, to) {
            return AbsVal::clean(Some(self.span_ceiling(from, to)));
        }
        let mut val = AbsVal::default();
        if to == from + 1 {
            if let Some(c) = self
                .toks
                .get(from)
                .filter(|t| t.kind == TokenKind::NumLit)
                .and_then(|_| self.bound_ceiling(from))
            {
                return AbsVal::clean(Some(c));
            }
            if let Some((_, v)) = self.binding_use(from) {
                return v.clone();
            }
        }
        let mut i = from;
        while i < to {
            if let Some(name) = self.ident(i) {
                if SOURCE_FNS.contains(&name) && self.is_punct(i + 1, "(") {
                    val.srcs.insert(Src::Direct);
                    i = self.after_matching(i + 1, "(", ")");
                    continue;
                }
                if name == "Reader" && self.is_punct(i + 1, ":") && self.is_punct(i + 2, ":") {
                    val.srcs.insert(Src::Direct);
                    i += 3;
                    continue;
                }
                if let Some(k) = self.call_sites.get(&i) {
                    // The callee's summary decides what flows through;
                    // its arguments are recorded on the CallFlow itself.
                    val.srcs.insert(Src::Call(*k));
                    i = self.after_matching(i + 1, "(", ")");
                    continue;
                }
                if (matches!(name, "validate" | "with_capacity" | "reserve")
                    || POOL_SINKS.contains(&name))
                    && self.is_punct(i + 1, "(")
                {
                    // Sinks and sanitizers contribute no value sources.
                    i = self.after_matching(i + 1, "(", ")");
                    continue;
                }
                if let Some((_, v)) = self.binding_use(i) {
                    val.srcs.extend(v.srcs.iter().cloned());
                }
            }
            i += 1;
        }
        val
    }

    /// The display name of an expression span: the first tainted
    /// binding, else the first call/source name, else `_`.
    fn span_name(&self, from: usize, to: usize) -> String {
        for i in from..to {
            if let Some((name, v)) = self.binding_use(i) {
                if !v.srcs.is_empty() {
                    return name.to_string();
                }
            }
        }
        for i in from..to {
            if let Some(name) = self.ident(i) {
                if self.is_punct(i + 1, "(")
                    && (self.call_sites.contains_key(&i) || SOURCE_FNS.contains(&name))
                {
                    return format!("{name}(..)");
                }
            }
        }
        for i in from..to {
            if let Some(name) = self.ident(i) {
                if !NON_CALL_KEYWORDS.contains(&name) {
                    return name.to_string();
                }
            }
        }
        "_".to_string()
    }

    /// Scan a statement initializer: from the token after `=`/`in` to
    /// the terminator (`;` at depth 0, or `{` for a `for` loop).
    fn initializer_end(&self, from: usize, terminator: &str) -> usize {
        let mut depth = 0i32;
        let mut i = from;
        while i < self.end {
            if self.is_punct(i, "(") || self.is_punct(i, "[") {
                depth += 1;
            } else if self.is_punct(i, ")") || self.is_punct(i, "]") {
                depth -= 1;
            } else if self.is_punct(i, "{") && terminator == ";" {
                depth += 1;
            } else if self.is_punct(i, "}") && terminator == ";" {
                depth -= 1;
            } else if depth <= 0 && self.is_punct(i, terminator) {
                return i;
            }
            i += 1;
        }
        self.end
    }

    /// Lowercase idents bound by a pattern span.
    fn pattern_bindings(&self, from: usize, to: usize) -> Vec<String> {
        let mut names = Vec::new();
        for i in from..to {
            if let Some(name) = self.ident(i) {
                if name == "mut" || name == "ref" || name == "_" {
                    continue;
                }
                if name.chars().next().is_some_and(char::is_lowercase)
                    && !self.is_punct(i + 1, ":")
                    && !names.iter().any(|n| n == name)
                {
                    names.push(name.to_string());
                }
            }
        }
        names
    }

    /// Fill the argument provenance of the recorded call at token `i`.
    fn fill_call_args(&mut self, i: usize, idx: u32) {
        let close = self.after_matching(i + 1, "(", ")");
        let args_end = close.saturating_sub(1);
        let mut args: Vec<Vec<Src>> = Vec::new();
        let mut argv: Vec<String> = Vec::new();
        // Method receiver is argument 0.
        if self.flow.calls.get(ix(idx)).is_some_and(|c| c.kind == CallKind::Method) {
            let recv = i
                .checked_sub(2)
                .filter(|p| *p >= self.start && !(*p > self.start && self.is_punct(p - 1, ".")))
                .and_then(|p| self.ident(p))
                .map(str::to_string);
            match recv.as_deref().and_then(|r| self.state.get(r)) {
                Some(v) => {
                    args.push(v.srcs.iter().cloned().collect());
                    argv.push(recv.unwrap_or_else(|| "_".to_string()));
                }
                None => {
                    args.push(Vec::new());
                    argv.push("_".to_string());
                }
            }
        }
        // Split the argument span on top-level commas.
        let mut arg_start = i + 2;
        let mut depth = 0i32;
        let mut k = i + 2;
        let push_arg = |scan: &Self,
                        args: &mut Vec<Vec<Src>>,
                        argv: &mut Vec<String>,
                        from: usize,
                        to: usize| {
            if from >= to {
                return;
            }
            let v = scan.eval_span(from, to);
            args.push(v.srcs.into_iter().collect());
            argv.push(scan.span_name(from, to));
        };
        while k < args_end {
            if self.is_punct(k, "(") || self.is_punct(k, "[") || self.is_punct(k, "{") {
                depth += 1;
            } else if self.is_punct(k, ")") || self.is_punct(k, "]") || self.is_punct(k, "}") {
                depth -= 1;
            } else if self.is_punct(k, ",") && depth == 0 {
                push_arg(self, &mut args, &mut argv, arg_start, k);
                arg_start = k + 1;
            }
            k += 1;
        }
        push_arg(self, &mut args, &mut argv, arg_start, args_end);
        if let Some(cf) = self.flow.calls.get_mut(ix(idx)) {
            cf.args = args;
            cf.argv = argv;
        }
    }

    fn record_sink(
        &mut self,
        kind: SinkKind,
        sink: &str,
        var: String,
        srcs: BTreeSet<Src>,
        i: usize,
    ) {
        if srcs.is_empty() {
            return;
        }
        let (line, col) = self.toks.get(i).map_or((1, 1), |t| (t.line, t.col));
        self.flow.sinks.push(SinkFlow {
            kind,
            sink: sink.to_string(),
            var,
            srcs: srcs.into_iter().collect(),
            line,
            col,
        });
    }

    /// Sink sources of an argument span: tainted binding uses plus the
    /// results of recorded/source calls (the interprocedural upgrade
    /// over v3, which only saw bindings).
    fn sink_arg_srcs(&self, from: usize, to: usize) -> BTreeSet<Src> {
        if self.span_bounded(from, to) {
            return BTreeSet::new();
        }
        self.eval_span(from, to).srcs
    }

    fn run(mut self) -> FnFlow {
        let mut i = self.start;
        while i < self.end {
            // A pending `let`/`for` binding takes effect once the scan
            // leaves its initializer.
            if let Some((names, val, until)) = &self.pending {
                if i >= *until {
                    let (names, val) = (names.clone(), val.clone());
                    for name in names {
                        self.state.insert(name, val.clone());
                    }
                    self.pending = None;
                }
            }
            if let Some(idx) = self.call_sites.get(&i).copied() {
                self.fill_call_args(i, idx);
                i += 1;
                continue;
            }

            match self.ident(i) {
                Some("let") => {
                    // `let PATTERN = EXPR ;` — evaluate the initializer
                    // against current state, bind after it ends.
                    let mut eq = i + 1;
                    let mut angle = 0i32;
                    while eq < self.end {
                        if self.is_punct(eq, "<") {
                            angle += 1;
                        } else if self.is_punct(eq, ">") {
                            angle -= 1;
                        } else if self.is_punct(eq, ";")
                            || (self.is_punct(eq, "=") && angle <= 0 && !self.is_punct(eq + 1, "="))
                        {
                            break;
                        }
                        eq += 1;
                    }
                    if self.is_punct(eq, "=") {
                        let stmt_end = self.initializer_end(eq + 1, ";");
                        let bindings = self.pattern_bindings(i + 1, eq);
                        if !bindings.is_empty() {
                            let val = self.eval_span(eq + 1, stmt_end);
                            self.pending = Some((bindings, val, stmt_end));
                        }
                    }
                }
                Some("for") => {
                    // `for PATTERN in EXPR {` — iterating a tainted
                    // collection taints the loop binding.
                    let mut in_kw = i + 1;
                    while in_kw < self.end
                        && self.ident(in_kw) != Some("in")
                        && !self.is_punct(in_kw, "{")
                    {
                        in_kw += 1;
                    }
                    if self.ident(in_kw) == Some("in") {
                        let body = self.initializer_end(in_kw + 1, "{");
                        let bindings = self.pattern_bindings(i + 1, in_kw);
                        if !bindings.is_empty() {
                            let val = self.eval_span(in_kw + 1, body);
                            self.pending = Some((bindings, val, body));
                        }
                    }
                }
                Some("validate") if self.is_punct(i + 1, "(") => {
                    // Sanitizer: `x.validate()` clears the receiver;
                    // `validate(&x)` / `JobSpec::validate(x)` clear
                    // every tainted argument.
                    let close = self.after_matching(i + 1, "(", ")");
                    let mut cleared: Vec<String> = (i + 2..close)
                        .filter_map(|k| self.binding_use(k).map(|(n, _)| n.to_string()))
                        .collect();
                    if i >= self.start + 2 && self.is_punct(i - 1, ".") {
                        if let Some(receiver) = self.ident(i - 2) {
                            cleared.push(receiver.to_string());
                        }
                    }
                    for name in cleared {
                        self.state.insert(
                            name,
                            AbsVal::clean(Some(Ceiling::Sym("validated".to_string()))),
                        );
                    }
                }
                Some("return") => {
                    let r_end = self.initializer_end(i + 1, ";");
                    let val = self.eval_span(i + 1, r_end);
                    self.merge_ret(val);
                }
                Some(name @ ("with_capacity" | "reserve")) if self.is_punct(i + 1, "(") => {
                    let name = name.to_string();
                    let close = self.after_matching(i + 1, "(", ")");
                    let srcs = self.sink_arg_srcs(i + 2, close.saturating_sub(1));
                    let var = self.span_name(i + 2, close.saturating_sub(1));
                    self.record_sink(SinkKind::Alloc, &name, var, srcs, i);
                }
                Some("vec") if self.is_punct(i + 1, "!") && self.is_punct(i + 2, "[") => {
                    // `vec![elem; n]` — only the length position is a
                    // sink.
                    let close = self.after_matching(i + 2, "[", "]");
                    let mut semi = i + 3;
                    let mut depth = 0i32;
                    while semi < close {
                        if self.is_punct(semi, "[") || self.is_punct(semi, "(") {
                            depth += 1;
                        } else if self.is_punct(semi, "]") || self.is_punct(semi, ")") {
                            depth -= 1;
                        } else if self.is_punct(semi, ";") && depth <= 0 {
                            break;
                        }
                        semi += 1;
                    }
                    if semi < close {
                        let len_end = close.saturating_sub(1);
                        let srcs = self.sink_arg_srcs(semi + 1, len_end);
                        let var = self.span_name(semi + 1, len_end);
                        self.record_sink(SinkKind::VecMacro, "vec", var, srcs, i);
                    }
                }
                Some(name) if POOL_SINKS.contains(&name) && self.is_punct(i + 1, "(") => {
                    let name = name.to_string();
                    let close = self.after_matching(i + 1, "(", ")");
                    let srcs = self.sink_arg_srcs(i + 2, close.saturating_sub(1));
                    let var = self.span_name(i + 2, close.saturating_sub(1));
                    self.record_sink(SinkKind::PoolArg, &name, var, srcs, i);
                    if i >= self.start + 2 && self.is_punct(i - 1, ".") {
                        if let Some((recv, v)) = i.checked_sub(2).and_then(|p| self.binding_use(p))
                        {
                            let (recv, srcs) = (recv.to_string(), v.srcs.clone());
                            self.record_sink(SinkKind::PoolRecv, &name, recv, srcs, i);
                        }
                    }
                }
                Some(_) if self.binding_use(i).is_some_and(|(_, v)| !v.srcs.is_empty()) => {
                    self.check_var_site(i);
                }
                _ => {}
            }
            i += 1;
        }
        // Tail expression: everything after the last top-level `;` or
        // block close. (An if/match tail is a documented false negative,
        // like every other name-resolution limit in DESIGN.md §5f.)
        let mut tail = self.start;
        let mut depth = 0i32;
        let mut k = self.start;
        while k < self.end {
            if self.is_punct(k, "(") || self.is_punct(k, "[") || self.is_punct(k, "{") {
                depth += 1;
            } else if self.is_punct(k, ")") || self.is_punct(k, "]") || self.is_punct(k, "}") {
                depth -= 1;
                // Only a top-level *block* close starts a new tail
                // candidate; a paren close is part of an expression.
                if depth == 0 && self.is_punct(k, "}") {
                    tail = k + 1;
                }
            } else if self.is_punct(k, ";") && depth == 0 {
                tail = k + 1;
            }
            k += 1;
        }
        if tail < self.end {
            let val = self.eval_span(tail, self.end);
            self.merge_ret(val);
        }
        self.flow
    }

    fn merge_ret(&mut self, val: AbsVal) {
        for s in val.srcs {
            if !self.flow.ret.contains(&s) {
                self.flow.ret.push(s);
            }
        }
        self.flow.ret.sort();
        match (&self.flow.ret_ceiling, val.ceiling) {
            (None, Some(c)) => self.flow.ret_ceiling = Some(c),
            (Some(old), Some(new)) if *old != new => {
                self.flow.ret_ceiling = Some(Ceiling::Sym("bounded".to_string()));
            }
            _ => {}
        }
    }

    /// A use of a tainted binding: a comparison against a recognized
    /// bound sanitizes it (and establishes a ceiling); adjacency to raw
    /// `+`/`*` is the arithmetic sink.
    fn check_var_site(&mut self, i: usize) {
        let Some(name) = self.ident(i).map(str::to_string) else { return };
        // `x < limits::MAX` / `x <= MAX_PAYLOAD` / `x == 0` — and the
        // mirrored `limits::MAX > x` form — certify the value bounded.
        if let Some(w) = self.comparison_width(i + 1) {
            let mut bound = i + 1 + w;
            if let Some(c) = self.bound_ceiling(bound) {
                let c = match c {
                    Ceiling::Sym(s) if s == "limits" => {
                        self.ident(bound + 3).map_or(Ceiling::Sym("limits".to_string()), |leaf| {
                            Ceiling::Sym(format!("limits::{leaf}"))
                        })
                    }
                    c => c,
                };
                self.state.insert(name, AbsVal::clean(Some(c)));
                return;
            }
            // `wire::MAX_PAYLOAD`-style qualified bound.
            while bound + 2 < self.end && self.is_punct(bound + 1, ":") {
                bound += 3;
                if self.is_bound_token(bound - 1) || self.is_bound_token(bound) {
                    let leaf = self.ident(bound).or_else(|| self.ident(bound - 1));
                    let c = Ceiling::Sym(leaf.unwrap_or("bounded").to_string());
                    self.state.insert(name, AbsVal::clean(Some(c)));
                    return;
                }
            }
        }
        if i > self.start {
            if i >= 2 && self.comparison_width(i - 1).is_some() && self.is_bound_token(i - 2) {
                let c = self.bound_ceiling(i - 2);
                self.state.insert(name, AbsVal::clean(c));
                return;
            }
            if i >= 3 && self.is_bound_token(i - 3) && self.comparison_width(i - 2) == Some(2) {
                let c = self.bound_ceiling(i - 3);
                self.state.insert(name, AbsVal::clean(c));
                return;
            }
        }
        // Arithmetic sink: `x + ..` / `x * ..` (but not `x += ..`), or
        // `.. + x` / `.. * x` where the left neighbor is a value.
        let after_plus = self.is_punct(i + 1, "+") && !self.is_punct(i + 2, "=");
        let after_star = self.is_punct(i + 1, "*");
        let before = i
            .checked_sub(1)
            .filter(|p| self.is_punct(*p, "+") || self.is_punct(*p, "*"))
            .and_then(|p| p.checked_sub(1))
            .is_some_and(|q| {
                self.toks.get(q).is_some_and(|t| {
                    matches!(t.kind, TokenKind::Ident | TokenKind::NumLit)
                        || (t.kind == TokenKind::Punct && (t.text == ")" || t.text == "]"))
                })
            });
        if after_plus || after_star || before {
            let srcs = self.state.get(&name).map(|v| v.srcs.clone()).unwrap_or_default();
            let op = if after_star { "*" } else { "+" };
            self.record_sink(SinkKind::Arith, op, name, srcs, i);
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-file fixpoint and finding emission.
// ---------------------------------------------------------------------------

/// Where a parameter's value ends up: the call path (node ids, starting
/// at the summarized function itself, ending at the sink owner) and the
/// sink index inside the owner's flow.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SinkPath {
    chain: Vec<usize>,
    sink: usize,
}

/// One function's interprocedural summary.
#[derive(Debug, Clone, Default)]
struct NodeSum {
    /// The return value carries wire taint.
    ret_direct: bool,
    /// Call chain (node ids below this one) through which the taint
    /// reaches the return; empty when it originates locally.
    ret_via: Vec<usize>,
    /// Parameters whose value flows to the return unclean.
    ret_params: BTreeSet<u32>,
    /// Parameters that reach a sink, here or transitively.
    sink_params: BTreeMap<u32, SinkPath>,
}

/// Result of expanding a source set in one function's context.
#[derive(Debug, Default)]
struct Exp {
    /// Call chain through which [`Src::Direct`] taint arrives; `None`
    /// when the set carries no wire taint. Empty = locally direct.
    direct: Option<Vec<usize>>,
    /// Parameters of the *enclosing* function feeding the set.
    params: BTreeSet<u32>,
}

impl Exp {
    fn merge(&mut self, other: Exp) {
        if self.direct.is_none() {
            self.direct = other.direct;
        }
        self.params.extend(other.params);
    }
}

struct Fixpoint<'a> {
    graph: &'a CallGraph<'a>,
}

impl<'a> Fixpoint<'a> {
    fn flow(&self, node: usize) -> Option<&'a FnFlow> {
        let n = &self.graph.nodes[node];
        self.graph.facts.get(n.file_idx)?.flows.get(n.fn_idx)
    }

    /// Expand a source set in `node`'s context against the current
    /// summaries: through resolved calls via the callee summary, through
    /// unresolved calls as a conservative argument pass-through.
    fn expand(
        &self,
        node: usize,
        srcs: &[Src],
        sums: &[NodeSum],
        visited: &mut BTreeSet<(usize, u32)>,
    ) -> Exp {
        let mut exp = Exp::default();
        let Some(flow) = self.flow(node) else { return exp };
        for src in srcs {
            match src {
                Src::Direct => {
                    if exp.direct.is_none() {
                        exp.direct = Some(Vec::new());
                    }
                }
                Src::Param(p) => {
                    exp.params.insert(*p);
                }
                Src::Call(k) => {
                    if !visited.insert((node, *k)) {
                        continue;
                    }
                    let Some(cf) = flow.calls.get(ix(*k)) else { continue };
                    let targets = self.graph.resolve(node, cf.kind, cf.qual.as_deref(), &cf.name);
                    if targets.is_empty() {
                        // Conservative pass-through: the result carries
                        // the union of the argument sources (v3
                        // semantics for calls we cannot see into).
                        for arg in &cf.args {
                            exp.merge(self.expand(node, arg, sums, visited));
                        }
                        continue;
                    }
                    for t in targets {
                        let Some(sum) = sums.get(t) else { continue };
                        if sum.ret_direct && exp.direct.is_none() {
                            let mut chain = vec![t];
                            chain.extend(sum.ret_via.iter().copied());
                            exp.direct = Some(chain);
                        }
                        for p in &sum.ret_params {
                            if let Some(arg) = cf.args.get(ix(*p)) {
                                exp.merge(self.expand(node, arg, sums, visited));
                            }
                        }
                    }
                }
            }
        }
        exp
    }

    /// Run the monotone fixpoint to convergence.
    fn solve(&self) -> Vec<NodeSum> {
        let n = self.graph.nodes.len();
        let mut sums: Vec<NodeSum> = (0..n).map(|_| NodeSum::default()).collect();
        // Each pass can only grow the summaries; the lattice height is
        // bounded by (params + sinks) per node, so this terminates. The
        // iteration cap is belt-and-braces for the cyclic case.
        for _round in 0..n.max(4) {
            let mut changed = false;
            for node in 0..n {
                let Some(flow) = self.flow(node) else { continue };
                // Return summary.
                let ret_exp = self.expand(node, &flow.ret, &sums, &mut BTreeSet::new());
                let mut sum = sums[node].clone();
                if let Some(via) = ret_exp.direct {
                    if !sum.ret_direct {
                        sum.ret_direct = true;
                        sum.ret_via = via;
                        changed = true;
                    }
                }
                for p in ret_exp.params {
                    if sum.ret_params.insert(p) {
                        changed = true;
                    }
                }
                // Local sinks.
                for (si, sink) in flow.sinks.iter().enumerate() {
                    let e = self.expand(node, &sink.srcs, &sums, &mut BTreeSet::new());
                    for p in e.params {
                        if let Entry::Vacant(slot) = sum.sink_params.entry(p) {
                            slot.insert(SinkPath { chain: vec![node], sink: si });
                            changed = true;
                        }
                    }
                }
                // Call-propagated sinks: an argument that flows from one
                // of our params into a callee param that reaches a sink.
                for cf in &flow.calls {
                    for t in self.graph.resolve(node, cf.kind, cf.qual.as_deref(), &cf.name) {
                        let entries: Vec<(u32, SinkPath)> = sums[t]
                            .sink_params
                            .iter()
                            .map(|(p, path)| (*p, path.clone()))
                            .collect();
                        for (pt, path) in entries {
                            let Some(arg) = cf.args.get(ix(pt)) else { continue };
                            let e = self.expand(node, arg, &sums, &mut BTreeSet::new());
                            for p in e.params {
                                if let Entry::Vacant(slot) = sum.sink_params.entry(p) {
                                    let mut chain = vec![node];
                                    chain.extend(path.chain.iter().copied());
                                    slot.insert(SinkPath { chain, sink: path.sink });
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                sums[node] = sum;
            }
            if !changed {
                break;
            }
        }
        sums
    }
}

/// The v3-compatible sink message for a locally-tainted flow.
fn sink_message(kind: SinkKind, sink: &str, var: &str) -> String {
    match kind {
        SinkKind::Alloc => format!(
            "wire-tainted `{var}` sizes an allocation (`{sink}(..)`) without a \
             JobSpec::validate / proto::limits bound — clamp or validate it first"
        ),
        SinkKind::VecMacro => format!(
            "wire-tainted `{var}` sizes an allocation (`vec![_; {var}]`) without a \
             JobSpec::validate / proto::limits bound — clamp or validate it first"
        ),
        SinkKind::PoolArg => format!(
            "wire-tainted `{var}` reaches an exec entry point (`{sink}(..)`) without a \
             JobSpec::validate / proto::limits bound — clamp or validate it first"
        ),
        SinkKind::PoolRecv => format!(
            "wire-tainted `{var}` reaches an exec entry point (`.{sink}(..)`) without \
             JobSpec::validate / a proto::limits bound — validate before executing"
        ),
        SinkKind::Arith => format!(
            "raw length arithmetic on wire-tainted `{var}` — use checked_*/saturating_* \
             combinators or bound it against proto::limits first"
        ),
    }
}

/// Short sink description used in cross-function call-site diagnostics.
fn sink_desc(kind: SinkKind, sink: &str) -> String {
    match kind {
        SinkKind::Alloc => format!("an allocation (`{sink}(..)`)"),
        SinkKind::VecMacro => "an allocation (`vec![_; ..]`)".to_string(),
        SinkKind::PoolArg | SinkKind::PoolRecv => {
            format!("an exec entry point (`{sink}(..)`)")
        }
        SinkKind::Arith => "raw length arithmetic".to_string(),
    }
}

/// R11 `wire-taint`, whole-workspace: run the summary fixpoint over the
/// call graph and emit deny findings — at the sink for flows that are
/// tainted within (or through calls made by) the sink's own function,
/// and at the call site with the full fn-chain when a locally-tainted
/// value is passed into a callee whose parameter reaches a sink.
pub fn check_wire_taint(facts: &[FileFacts], findings: &mut Vec<Finding>) {
    let graph = CallGraph::build(facts);
    let fx = Fixpoint { graph: &graph };
    let sums = fx.solve();

    // (path, line, col, message, related) — BTreeSet for dedup + order.
    let mut hits: BTreeSet<(String, u32, u32, String, Vec<Related>)> = BTreeSet::new();
    for node in 0..graph.nodes.len() {
        let Some(flow) = fx.flow(node) else { continue };
        let rel_path = graph.nodes[node].rel_path.to_string();
        // Mode 1: a sink whose sources expand to wire taint fires at the
        // sink, with the call chain (if any) appended.
        for sink in &flow.sinks {
            let e = fx.expand(node, &sink.srcs, &sums, &mut BTreeSet::new());
            let Some(chain) = e.direct else { continue };
            let mut msg = sink_message(sink.kind, &sink.sink, &sink.var);
            let mut related = Vec::new();
            if !chain.is_empty() {
                let names: Vec<String> =
                    chain.iter().map(|h| graph.nodes[*h].display_name()).collect();
                msg.push_str(&format!(" (wire value arrives via {})", names.join(" → ")));
                related = chain
                    .iter()
                    .map(|h| Related {
                        rel_path: graph.nodes[*h].rel_path.to_string(),
                        line: graph.nodes[*h].def.line,
                        col: graph.nodes[*h].def.col,
                        note: format!(
                            "`{}` returns the wire value",
                            graph.nodes[*h].display_name()
                        ),
                    })
                    .collect();
            }
            hits.insert((rel_path.clone(), sink.line, sink.col, msg, related));
        }
        // Mode 2: a locally wire-tainted argument passed into a callee
        // whose parameter reaches a sink fires at the call site.
        for cf in &flow.calls {
            for t in graph.resolve(node, cf.kind, cf.qual.as_deref(), &cf.name) {
                for (pt, path) in &sums[t].sink_params {
                    let Some(arg) = cf.args.get(ix(*pt)) else { continue };
                    let e = fx.expand(node, arg, &sums, &mut BTreeSet::new());
                    if e.direct.is_none() {
                        continue;
                    }
                    let owner = *path.chain.last().unwrap_or(&t);
                    let Some(owner_flow) = fx.flow(owner) else { continue };
                    let Some(s) = owner_flow.sinks.get(path.sink) else { continue };
                    let arg_name = cf.argv.get(ix(*pt)).cloned().unwrap_or_else(|| "_".to_string());
                    let names: Vec<String> =
                        path.chain.iter().map(|h| graph.nodes[*h].display_name()).collect();
                    let msg = format!(
                        "wire-tainted `{}` passed to `{}(..)` reaches {} in `{}` without a \
                         JobSpec::validate / proto::limits bound: {} — clamp or validate it \
                         before the call",
                        arg_name,
                        cf.name,
                        sink_desc(s.kind, &s.sink),
                        graph.nodes[owner].display_name(),
                        names.join(" → "),
                    );
                    let mut related: Vec<Related> = path
                        .chain
                        .iter()
                        .map(|h| Related {
                            rel_path: graph.nodes[*h].rel_path.to_string(),
                            line: graph.nodes[*h].def.line,
                            col: graph.nodes[*h].def.col,
                            note: format!(
                                "`{}` propagates the wire value",
                                graph.nodes[*h].display_name()
                            ),
                        })
                        .collect();
                    related.push(Related {
                        rel_path: graph.nodes[owner].rel_path.to_string(),
                        line: s.line,
                        col: s.col,
                        note: "the unvalidated sink".to_string(),
                    });
                    hits.insert((rel_path.clone(), cf.line, cf.col, msg, related));
                }
            }
        }
    }
    for (rel_path, line, col, message, related) in hits {
        findings.push(Finding {
            rule_id: "wire-taint",
            severity: Severity::Deny,
            rel_path,
            line,
            col,
            message,
            related,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::facts::build_facts;
    use std::path::PathBuf;

    fn facts_for(files: &[(&str, &str)]) -> Vec<FileFacts> {
        files
            .iter()
            .map(|(rel, src)| {
                let class = classify(rel).expect("classifiable");
                let file = SourceFile {
                    rel_path: (*rel).to_string(),
                    abs_path: PathBuf::from(rel),
                    class,
                };
                build_facts(&file, src).expect("facts")
            })
            .collect()
    }

    fn taint_findings(src: &str) -> Vec<Finding> {
        let facts = facts_for(&[("crates/fix/src/lib.rs", src)]);
        let mut findings = Vec::new();
        check_wire_taint(&facts, &mut findings);
        findings.retain(|f| f.rule_id == "wire-taint");
        findings
    }

    #[test]
    fn reader_param_taints_but_count_is_bounded() {
        let hits = taint_findings(
            "pub fn bad(r: &mut Reader<'_>) -> Vec<u8> {\n\
                 let n = r.u32();\n\
                 Vec::with_capacity(n)\n\
             }\n\
             pub fn good(r: &mut Reader<'_>) -> Vec<u8> {\n\
                 let n = r.count(4);\n\
                 Vec::with_capacity(n)\n\
             }\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].message.contains("`n`"), "{}", hits[0].message);
    }

    #[test]
    fn validate_and_limits_comparisons_sanitize() {
        let hits = taint_findings(
            "pub fn validated(spec_len: usize, r: &mut Reader<'_>) -> Vec<u8> {\n\
                 let spec = decode_frame(r);\n\
                 spec.validate();\n\
                 run_on(spec);\n\
                 Vec::new()\n\
             }\n\
             pub fn compared(r: &mut Reader<'_>) -> Vec<u8> {\n\
                 let n = decode_header(r);\n\
                 if n > limits::MAX_BITS { return Vec::new(); }\n\
                 Vec::with_capacity(n)\n\
             }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn arithmetic_and_vec_macro_sinks_fire() {
        let hits = taint_findings(
            "pub fn arith(r: &mut Reader<'_>) -> usize {\n\
                 let n = decode_frame2(r);\n\
                 n + 12\n\
             }\n\
             pub fn filled(r: &mut Reader<'_>) -> Vec<u8> {\n\
                 let n = decode_frame2(r);\n\
                 vec![0u8; n]\n\
             }\n",
        );
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|f| f.message.contains("arithmetic")), "{hits:?}");
        assert!(hits.iter().any(|f| f.message.contains("vec![_;")), "{hits:?}");
    }

    #[test]
    fn taint_crosses_two_call_hops_and_fires_at_the_call_site() {
        let hits = taint_findings(
            "pub fn ingest(bytes: &[u8]) -> Vec<u64> {\n\
                 let n = decode_header2(bytes);\n\
                 build_table(n)\n\
             }\n\
             fn build_table(n: usize) -> Vec<u64> {\n\
                 reserve_slots(n)\n\
             }\n\
             fn reserve_slots(n: usize) -> Vec<u64> {\n\
                 Vec::with_capacity(n)\n\
             }\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3, "fires at the call site: {hits:?}");
        assert!(
            hits[0].message.contains("build_table")
                && hits[0].message.contains("reserve_slots")
                && hits[0].message.contains("with_capacity"),
            "{}",
            hits[0].message
        );
        assert_eq!(hits[0].related.len(), 3, "two fn hops plus the sink: {:?}", hits[0].related);
    }

    #[test]
    fn callee_sanitizer_cleans_the_caller() {
        let hits = taint_findings(
            "pub mod limits { pub const MAX_HEADS: usize = 64; }\n\
             pub fn ingest(bytes: &[u8]) -> Vec<u64> {\n\
                 let n = decode_header2(bytes);\n\
                 build_bounded(n)\n\
             }\n\
             fn build_bounded(n: usize) -> Vec<u64> {\n\
                 let m = n.min(limits::MAX_HEADS);\n\
                 Vec::with_capacity(m)\n\
             }\n\
             pub fn ingest_via_clamp(bytes: &[u8]) -> Vec<u64> {\n\
                 let n = clamp_heads(decode_header2(bytes));\n\
                 Vec::with_capacity(n)\n\
             }\n\
             fn clamp_heads(n: usize) -> usize {\n\
                 n.min(limits::MAX_HEADS)\n\
             }\n",
        );
        assert!(hits.is_empty(), "a bounding callee must clean every consumer: {hits:?}");
    }

    #[test]
    fn tainted_return_values_propagate_to_caller_sinks() {
        let hits = taint_findings(
            "pub fn caller(bytes: &[u8]) -> Vec<u8> {\n\
                 let n = peek_len(bytes);\n\
                 Vec::with_capacity(n)\n\
             }\n\
             fn peek_len(bytes: &[u8]) -> usize {\n\
                 decode_header(bytes)\n\
             }\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3, "fires at the sink in the caller: {hits:?}");
        assert!(
            hits[0].message.contains("peek_len"),
            "the chain names the laundering fn: {}",
            hits[0].message
        );
    }

    #[test]
    fn flows_are_extracted_per_function_and_cached() {
        let facts = facts_for(&[(
            "crates/fix/src/lib.rs",
            "pub fn f(r: &mut Reader<'_>) -> usize { helper(r.u32()) }\n\
             fn helper(n: usize) -> usize { n }\n",
        )]);
        let f = &facts[0];
        assert_eq!(f.flows.len(), f.fns.len(), "flows stay parallel to fns");
        let helper_flow = &f.flows[1];
        assert_eq!(helper_flow.ret, vec![Src::Param(0)], "{helper_flow:?}");
    }
}

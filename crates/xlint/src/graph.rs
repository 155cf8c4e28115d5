//! Cross-file semantic passes over the parsed item facts: the workspace
//! call graph with interprocedural panic reachability, and the
//! `From<ExecError>` bridge-completeness check.
//!
//! Both passes run on [`FileFacts`] only — never on raw source.
//!
//! ## Resolution model (and its documented limits)
//!
//! The call graph is built from *names*, not types (there is no type
//! checker here). Resolution is deliberately conservative:
//!
//! - free calls resolve within the calling crate first, then through the
//!   calling file's `use` imports, then to a unique workspace-wide match;
//! - `Qual::name(..)` calls resolve via the qualifier's last path segment
//!   against impl targets (same crate preferred), with `Self` mapped to
//!   the calling function's own impl target;
//! - `.method(..)` calls resolve only when the method name is defined by
//!   exactly one impl target in the whole workspace *and* the name is not
//!   a common std method (see `METHOD_STOPLIST`) — otherwise a workspace
//!   method shadowing `Vec::get` would wire every `.get(..)` in the tree
//!   into the graph.
//!
//! Anything unresolved is a *false negative*, never a false positive:
//! a call edge we cannot establish simply is not traversed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::classify::FileClass;
use crate::facts::FileFacts;
use crate::parse::{CallKind, FnDef};
use crate::rules::{Finding, Related, Severity};

/// Method names too generic to resolve by name alone: std types define
/// them, so a single workspace impl with the same name must not capture
/// every call site in the tree.
const METHOD_STOPLIST: &[&str] = &[
    "new",
    "from",
    "into",
    "clone",
    "default",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "next",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "collect",
    "map",
    "map_err",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "sum",
    "product",
    "min",
    "max",
    "abs",
    "to_string",
    "as_str",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_bytes",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "and_then",
    "or_else",
    "take",
    "replace",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "clear",
    "drain",
    "join",
    "split",
    "trim",
    "parse",
    "write",
    "write_str",
    "read",
    "flush",
    "rev",
    "zip",
    "enumerate",
    "chain",
    "count",
    "any",
    "all",
    "find",
    "position",
    "first",
    "last",
    "copied",
    "cloned",
    "to_owned",
    "to_vec",
    "starts_with",
    "ends_with",
    "chars",
    "lines",
    "keys",
    "values",
    "entry",
    "range",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "then",
    "then_some",
    "windows",
    "chunks",
    "skip",
    "step_by",
    "rem_euclid",
];

/// One node of the call graph: a function definition in a `Src` file.
pub(crate) struct Node<'a> {
    pub(crate) krate: &'a str,
    pub(crate) file_idx: usize,
    /// Index of [`Node::def`] within its file's `fns` vector, so parallel
    /// per-fn facts (e.g. the taint flows of [`crate::summary`]) can be
    /// looked up from a node id.
    pub(crate) fn_idx: usize,
    pub(crate) rel_path: &'a str,
    pub(crate) def: &'a FnDef,
}

impl Node<'_> {
    pub(crate) fn display_name(&self) -> String {
        match &self.def.qual {
            Some(q) => format!("{q}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// The resolved workspace call graph: deterministic node order (facts are
/// path-sorted, fns in declaration order) and caller → callee edges.
/// Shared by the panic-reachability (reverse BFS), event-loop-blocking
/// (forward BFS), and wire-taint summary ([`crate::summary`]) passes so
/// all three traverse identical edges. Name resolution is factored into
/// [`CallGraph::resolve`] so the summary fixpoint can resolve per-call
/// flow records with exactly the semantics the edges were built with.
pub(crate) struct CallGraph<'a> {
    pub(crate) nodes: Vec<Node<'a>>,
    pub(crate) edges: Vec<BTreeSet<usize>>,
    pub(crate) facts: &'a [FileFacts],
    free_in_crate: BTreeMap<(String, String), Vec<usize>>,
    free_global: BTreeMap<String, Vec<usize>>,
    qual_global: BTreeMap<(String, String), Vec<usize>>,
    method_global: BTreeMap<String, Vec<usize>>,
    workspace_crates: BTreeSet<String>,
}

impl<'a> CallGraph<'a> {
    pub(crate) fn build(facts: &'a [FileFacts]) -> Self {
        let mut nodes: Vec<Node<'a>> = Vec::new();
        for (file_idx, fact) in facts.iter().enumerate() {
            let FileClass::Src { crate_name } = &fact.class else { continue };
            for (fn_idx, def) in fact.fns.iter().enumerate() {
                if def.in_test {
                    continue;
                }
                nodes.push(Node {
                    krate: crate_name,
                    file_idx,
                    fn_idx,
                    rel_path: &fact.rel_path,
                    def,
                });
            }
        }

        // Resolution maps.
        let mut free_in_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_global: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut qual_global: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut method_global: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let workspace_crates: BTreeSet<String> =
            nodes.iter().map(|n| n.krate.to_string()).collect();
        for (id, node) in nodes.iter().enumerate() {
            match &node.def.qual {
                None => {
                    free_in_crate
                        .entry((node.krate.to_string(), node.def.name.clone()))
                        .or_default()
                        .push(id);
                    free_global.entry(node.def.name.clone()).or_default().push(id);
                }
                Some(q) => {
                    qual_global.entry((q.clone(), node.def.name.clone())).or_default().push(id);
                    method_global.entry(node.def.name.clone()).or_default().push(id);
                }
            }
        }

        let mut graph = CallGraph {
            nodes,
            edges: Vec::new(),
            facts,
            free_in_crate,
            free_global,
            qual_global,
            method_global,
            workspace_crates,
        };
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); graph.nodes.len()];
        for (id, edge_set) in edges.iter_mut().enumerate() {
            for call in &graph.nodes[id].def.calls {
                for t in graph.resolve(id, call.kind, call.qual.as_deref(), &call.name) {
                    if t != id {
                        edge_set.insert(t);
                    }
                }
            }
        }
        graph.edges = edges;
        graph
    }

    /// Resolve one call site of `caller` to its candidate target nodes,
    /// with the conservative semantics documented in the module header.
    /// An empty result means "unresolved": the callers must treat it as a
    /// false negative (no edge), never guess.
    pub(crate) fn resolve(
        &self,
        caller: usize,
        kind: CallKind,
        qual: Option<&str>,
        name: &str,
    ) -> Vec<usize> {
        let node = &self.nodes[caller];
        let key = (node.krate.to_string(), name.to_string());
        match kind {
            CallKind::Free => {
                if let Some(same) = self.free_in_crate.get(&key) {
                    return same.clone();
                }
                let fact = &self.facts[node.file_idx];
                if let Some(imported) = fact.uses.iter().find_map(|u| {
                    let leaf_matches = u.alias.as_deref() == Some(name)
                        || (u.alias.is_none() && u.segments.last().is_some_and(|s| s == name));
                    let first = u.segments.first()?;
                    if leaf_matches && self.workspace_crates.contains(first.as_str()) {
                        self.free_in_crate.get(&(first.clone(), name.to_string())).cloned()
                    } else {
                        None
                    }
                }) {
                    return imported;
                }
                // Unique workspace-wide match, else unresolved.
                let cands = self.free_global.get(name).cloned().unwrap_or_default();
                let crates: BTreeSet<&str> = cands.iter().map(|c| self.nodes[*c].krate).collect();
                if crates.len() == 1 {
                    cands
                } else {
                    Vec::new()
                }
            }
            CallKind::Qualified => {
                let q = match (qual, node.def.qual.as_deref()) {
                    (Some("Self"), Some(own)) => own,
                    (Some(q), _) => q,
                    (None, _) => return Vec::new(),
                };
                let cands = self
                    .qual_global
                    .get(&(q.to_string(), name.to_string()))
                    .cloned()
                    .unwrap_or_default();
                if cands.is_empty() {
                    // The qualifier may be a crate name: `exec::run(..)`.
                    self.free_in_crate
                        .get(&(q.to_string(), name.to_string()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    let same: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|c| self.nodes[*c].krate == node.krate)
                        .collect();
                    if same.is_empty() {
                        cands
                    } else {
                        same
                    }
                }
            }
            CallKind::Method => {
                if METHOD_STOPLIST.contains(&name) {
                    return Vec::new();
                }
                let cands = self.method_global.get(name).cloned().unwrap_or_default();
                let targets: BTreeSet<(&str, &str)> = cands
                    .iter()
                    .map(|c| {
                        (self.nodes[*c].krate, self.nodes[*c].def.qual.as_deref().unwrap_or(""))
                    })
                    .collect();
                if targets.len() == 1 {
                    cands
                } else {
                    Vec::new()
                }
            }
        }
    }
}

/// Flag every `pub` function in a `Src` crate that can transitively reach
/// a panic site through workspace-local calls, reporting the offending
/// call chain at the entry point.
pub fn check_panic_reachable(facts: &[FileFacts], findings: &mut Vec<Finding>) {
    let graph = CallGraph::build(facts);
    let (nodes, edges) = (&graph.nodes, &graph.edges);

    // Reverse BFS from nodes that own a panic site; `next[u]` is the
    // callee one step closer to the panic, for chain reconstruction.
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (u, callees) in edges.iter().enumerate() {
        for v in callees {
            reverse[*v].push(u);
        }
    }
    let mut dist: Vec<Option<u32>> = vec![None; nodes.len()];
    let mut next: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut queue = VecDeque::new();
    for (id, node) in nodes.iter().enumerate() {
        if !node.def.panics.is_empty() {
            dist[id] = Some(0);
            queue.push_back(id);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[u].unwrap_or(0);
        for w in &reverse[u] {
            if dist[*w].is_none() {
                dist[*w] = Some(d + 1);
                next[*w] = Some(u);
                queue.push_back(*w);
            }
        }
    }

    for (id, node) in nodes.iter().enumerate() {
        if !node.def.is_pub || dist[id].is_none() {
            continue;
        }
        // Reconstruct entry → … → panic-owning node.
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(n) = next[cur] {
            chain.push(n);
            cur = n;
        }
        let names: Vec<String> = chain.iter().map(|n| nodes[*n].display_name()).collect();
        let sink = &nodes[cur];
        let Some(site) = sink.def.panics.first() else { continue };
        let related: Vec<Related> = chain
            .iter()
            .skip(1)
            .map(|h| Related {
                rel_path: nodes[*h].rel_path.to_string(),
                line: nodes[*h].def.line,
                col: nodes[*h].def.col,
                note: format!("`{}` continues the chain", nodes[*h].display_name()),
            })
            .chain(std::iter::once(Related {
                rel_path: sink.rel_path.to_string(),
                line: site.line,
                col: site.col,
                note: format!("the root panic site ({})", site.desc),
            }))
            .collect();
        findings.push(Finding {
            rule_id: "panic-reachable",
            severity: Severity::Deny,
            rel_path: node.rel_path.to_string(),
            line: node.def.line,
            col: node.def.col,
            message: format!(
                "pub fn `{}` can reach a panic: {}; `{}` has {} at {}:{}:{} — make the chain \
                 return the crate's error type, or justify the root site with \
                 xlint::allow(panic-reachable, ...)",
                node.def.name,
                names.join(" → "),
                sink.display_name(),
                site.desc,
                sink.rel_path,
                site.line,
                site.col
            ),
            related,
        });
    }
}

/// R12 `event-loop-blocking`: functions reachable from the nonblocking
/// server event loop must not call blocking APIs. Roots are every
/// non-test function defined in a `*/src/server.rs` file; a forward BFS
/// over the shared call graph finds each reachable blocking site and
/// reports it with the root → … → site chain, at the site itself (so an
/// `xlint::allow(event-loop-blocking, ..)` above the call suppresses it
/// at build time, exactly like panic sites).
pub fn check_event_loop_blocking(facts: &[FileFacts], findings: &mut Vec<Finding>) {
    let graph = CallGraph::build(facts);
    let (nodes, edges) = (&graph.nodes, &graph.edges);

    let mut prev: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut reached: Vec<bool> = vec![false; nodes.len()];
    let mut queue = VecDeque::new();
    for (id, node) in nodes.iter().enumerate() {
        if node.rel_path.ends_with("/src/server.rs") {
            reached[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(u) = queue.pop_front() {
        for v in &edges[u] {
            if !reached[*v] {
                reached[*v] = true;
                prev[*v] = Some(u);
                queue.push_back(*v);
            }
        }
    }

    for (id, node) in nodes.iter().enumerate() {
        if !reached[id] || node.def.blocking.is_empty() {
            continue;
        }
        // Reconstruct root → … → this node.
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(p) = prev[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        let names: Vec<String> = chain.iter().map(|n| nodes[*n].display_name()).collect();
        let related: Vec<Related> = chain
            .iter()
            .take(chain.len().saturating_sub(1))
            .map(|h| Related {
                rel_path: nodes[*h].rel_path.to_string(),
                line: nodes[*h].def.line,
                col: nodes[*h].def.col,
                note: format!("reachable from the event loop via `{}`", nodes[*h].display_name()),
            })
            .collect();
        for site in &node.def.blocking {
            findings.push(Finding {
                rule_id: "event-loop-blocking",
                severity: Severity::Deny,
                rel_path: node.rel_path.to_string(),
                line: site.line,
                col: site.col,
                message: format!(
                    "{} blocks inside the event loop: reachable as {} — the nonblocking \
                     server must never stall on one connection; use nonblocking I/O or \
                     justify with xlint::allow(event-loop-blocking, ...)",
                    site.desc,
                    names.join(" → ")
                ),
                related: related.clone(),
            });
        }
    }
}

/// Enforce that every crate invoking `exec` bridges `ExecError` into its
/// own error type: either a local `impl From<ExecError> for E` (complete —
/// a wholesale wrap, or a `match` naming every variant), or a reference
/// to another crate's bridged error type it reuses.
pub fn check_error_bridges(facts: &[FileFacts], findings: &mut Vec<Finding>) {
    // The authoritative variant list comes from the workspace's own exec
    // crate, so the rule tracks the enum as it evolves.
    let variants: Vec<&str> = facts
        .iter()
        .filter(|f| matches!(&f.class, FileClass::Src { crate_name } if crate_name == "exec"))
        .flat_map(|f| &f.enums)
        .find(|e| e.name == "ExecError")
        .map(|e| e.variants.iter().map(String::as_str).collect())
        .unwrap_or_default();
    if variants.is_empty() {
        // No exec crate in this tree (e.g. a fixture workspace without
        // one): nothing to bridge against.
        return;
    }

    // Completeness of every bridge, and the set of soundly-bridged types.
    let mut bridged_types: BTreeSet<&str> = BTreeSet::new();
    let mut crates_with_bridge: BTreeSet<&str> = BTreeSet::new();
    for fact in facts {
        let FileClass::Src { crate_name } = &fact.class else { continue };
        for bridge in &fact.bridges {
            let missing: Vec<&str> = if bridge.uses_match {
                variants
                    .iter()
                    .copied()
                    .filter(|v| !bridge.mentioned.iter().any(|m| m == v))
                    .collect()
            } else {
                Vec::new()
            };
            if missing.is_empty() {
                bridged_types.insert(&bridge.target);
                crates_with_bridge.insert(crate_name);
            } else {
                crates_with_bridge.insert(crate_name);
                findings.push(Finding {
                    rule_id: "error-bridge-exhaustive",
                    severity: Severity::Deny,
                    rel_path: fact.rel_path.clone(),
                    line: bridge.line,
                    col: bridge.col,
                    message: format!(
                        "`From<ExecError> for {}` matches on variants but never names {} — \
                         handle every variant (ExecError is #[non_exhaustive]; keep the \
                         wildcard arm) or wrap the error wholesale",
                        bridge.target,
                        missing.join(", ")
                    ),
                    related: Vec::new(),
                });
            }
        }
    }

    // Every invoking crate needs a bridge: its own, or a reference to a
    // type some other crate bridged (e.g. bench reusing ate's AteError).
    let mut seen_crates: BTreeSet<&str> = BTreeSet::new();
    for fact in facts {
        let FileClass::Src { crate_name } = &fact.class else { continue };
        if crate_name == "exec" || seen_crates.contains(crate_name.as_str()) {
            continue;
        }
        let Some((line, col)) = fact.exec_invoke else { continue };
        seen_crates.insert(crate_name);
        if crates_with_bridge.contains(crate_name.as_str()) {
            continue;
        }
        let reuses_bridged = facts
            .iter()
            .filter(|f| matches!(&f.class, FileClass::Src { crate_name: c } if c == crate_name))
            .flat_map(|f| &f.error_mentions)
            .any(|m| bridged_types.contains(m.as_str()));
        if reuses_bridged {
            continue;
        }
        findings.push(Finding {
            rule_id: "error-bridge-exhaustive",
            severity: Severity::Deny,
            rel_path: fact.rel_path.clone(),
            line,
            col,
            message: format!(
                "crate `{crate_name}` invokes exec but defines no `From<ExecError>` bridge \
                 into its error type (and references no type that has one) — a pool failure \
                 here has no typed path back to callers"
            ),
            related: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, SourceFile};
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

    #[test]
    fn panic_reaches_through_a_cross_file_chain() {
        let facts = facts_for(&[
            (
                "crates/alpha/src/lib.rs",
                "pub fn entry(xs: &[u64], i: usize) -> u64 { middle(xs, i) }\n\
                 fn middle(xs: &[u64], i: usize) -> u64 { sink(xs, i) }\n",
            ),
            (
                "crates/alpha/src/sink.rs",
                "pub(crate) fn sink(xs: &[u64], i: usize) -> u64 { xs[i] }\n",
            ),
        ]);
        let mut findings = Vec::new();
        check_panic_reachable(&facts, &mut findings);
        let entry = findings.iter().find(|f| f.message.contains("`entry`")).expect("entry flagged");
        assert!(entry.message.contains("entry → middle → sink"), "{}", entry.message);
        assert!(entry.message.contains("crates/alpha/src/sink.rs"), "{}", entry.message);
    }

    #[test]
    fn clean_functions_are_not_flagged() {
        let facts = facts_for(&[(
            "crates/alpha/src/lib.rs",
            "pub fn entry(xs: &[u64], i: usize) -> u64 { xs.get(i).copied().unwrap_or(0) }\n",
        )]);
        let mut findings = Vec::new();
        check_panic_reachable(&facts, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ambiguous_method_names_do_not_create_edges() {
        // Two impls define `probe`: resolution must refuse the edge, so
        // the caller stays clean.
        let facts = facts_for(&[(
            "crates/alpha/src/lib.rs",
            "pub struct A; pub struct B;\n\
             impl A { pub fn probe(&self, xs: &[u64], i: usize) -> u64 { xs[i] } }\n\
             impl B { pub fn probe(&self) -> u64 { 0 } }\n\
             pub fn caller(b: &B) -> u64 { b.probe() }\n",
        )]);
        let mut findings = Vec::new();
        check_panic_reachable(&facts, &mut findings);
        assert!(findings.iter().all(|f| !f.message.contains("`caller`")), "{findings:?}");
        // The panicking method itself is still an entry point.
        assert!(findings.iter().any(|f| f.message.contains("A::probe")));
    }

    #[test]
    fn bridge_rule_requires_a_bridge_in_invoking_crates() {
        let facts = facts_for(&[
            (
                "crates/exec/src/error.rs",
                "pub enum ExecError { JobPanicked { index: usize }, SpawnFailed, MissingResult }\n",
            ),
            (
                "crates/beta/src/lib.rs",
                "pub fn sweep(pool: &ExecPool) -> Vec<u64> { pool.run(4, |k| k as u64) }\n",
            ),
        ]);
        let mut findings = Vec::new();
        check_error_bridges(&facts, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("crate `beta`"));
    }

    #[test]
    fn incomplete_match_bridge_names_the_missing_variants() {
        let facts = facts_for(&[
            (
                "crates/exec/src/error.rs",
                "pub enum ExecError { JobPanicked { index: usize }, SpawnFailed, MissingResult }\n",
            ),
            (
                "crates/beta/src/error.rs",
                "pub enum BetaError { Pool(String) }\n\
                 impl From<exec::ExecError> for BetaError {\n\
                     fn from(e: exec::ExecError) -> Self {\n\
                         match e {\n\
                             exec::ExecError::JobPanicked { .. } => BetaError::Pool(String::new()),\n\
                             _ => BetaError::Pool(String::new()),\n\
                         }\n\
                     }\n\
                 }\n",
            ),
        ]);
        let mut findings = Vec::new();
        check_error_bridges(&facts, &mut findings);
        let incomplete =
            findings.iter().find(|f| f.rule_id == "error-bridge-exhaustive").expect("flagged");
        assert!(incomplete.message.contains("SpawnFailed"), "{}", incomplete.message);
        assert!(incomplete.message.contains("MissingResult"), "{}", incomplete.message);
    }

    #[test]
    fn wholesale_wrap_and_reused_bridge_types_pass() {
        let facts = facts_for(&[
            (
                "crates/exec/src/error.rs",
                "pub enum ExecError { JobPanicked { index: usize }, SpawnFailed, MissingResult }\n",
            ),
            (
                "crates/beta/src/error.rs",
                "pub enum BetaError { Exec(exec::ExecError) }\n\
                 impl From<exec::ExecError> for BetaError {\n\
                     fn from(e: exec::ExecError) -> Self { BetaError::Exec(e) }\n\
                 }\n\
                 pub fn sweep(pool: &ExecPool) -> Vec<u64> { pool.run(4, |k| u64::from(k as u32)) }\n",
            ),
            (
                "crates/gamma/src/lib.rs",
                "pub fn reuse(pool: &ExecPool) -> Result<(), BetaError> {\n\
                     let _ = pool.run(2, |k| k); Ok(())\n\
                 }\n",
            ),
        ]);
        let mut findings = Vec::new();
        check_error_bridges(&facts, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}

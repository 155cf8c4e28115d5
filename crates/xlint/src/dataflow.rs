//! Wire message-vocabulary facts behind codec symmetry (R13).
//!
//! The wire-taint pass (R11) that used to live here was intraprocedural;
//! v4 moved it to [`crate::summary`], which extracts per-function flow
//! facts in the per-file phase and runs an interprocedural fixpoint in
//! the cross-file phase. This module keeps the message-vocabulary
//! extraction and the codec-symmetry check.
//!
//! ## Message-vocabulary facts (R13 `codec-symmetry`)
//!
//! Every constant declared in a `mod msg { .. }` block of a `Src` file
//! is a wire message type. Each `msg::NAME` reference is classified by
//! where it sits: inside an encode-shaped function (`to_*`, `*encode*`,
//! `parts`), a decode-shaped function (`from_*`, `*decode*`), or a
//! golden-vector test file (a [`FileClass::Test`] file whose path
//! contains `golden`). The cross-file pass then requires every message
//! type to appear in all three, so the THP vocabulary cannot drift
//! asymmetrically.

use std::collections::BTreeSet;

use crate::classify::{FileClass, SourceFile};
use crate::facts::{MsgConst, MsgCtx, MsgRef};
use crate::lexer::{Token, TokenKind};
use crate::parse::{FnDef, ParsedFile};
use crate::rules::{Finding, Severity};

// ---------------------------------------------------------------------------
// R13: wire message vocabulary facts + the cross-file symmetry check.
// ---------------------------------------------------------------------------

/// Extract the `mod msg` constant declarations and every classified
/// `msg::NAME` reference from one file.
pub fn msg_facts(
    file: &SourceFile,
    toks: &[Token],
    parsed: &ParsedFile,
) -> (Vec<MsgConst>, Vec<MsgRef>) {
    let mut consts = Vec::new();
    let mut refs: BTreeSet<(String, MsgCtx)> = BTreeSet::new();
    let is_src = matches!(file.class, FileClass::Src { .. });
    let golden = file.class == FileClass::Test && file.rel_path.contains("golden");

    let mut i = 0usize;
    while i < toks.len() {
        let is_ident = |k: usize, s: &str| {
            toks.get(k).is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
        };
        let is_punct = |k: usize, s: &str| {
            toks.get(k).is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
        };
        // Declarations: `mod msg { .. const NAME .. }` in Src files.
        if is_src && is_ident(i, "mod") && is_ident(i + 1, "msg") {
            let mut j = i + 2;
            while j < toks.len() && !is_punct(j, "{") && !is_punct(j, ";") {
                j += 1;
            }
            if is_punct(j, "{") {
                let mut depth = 0i32;
                while j < toks.len() {
                    if is_punct(j, "{") {
                        depth += 1;
                    } else if is_punct(j, "}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if is_ident(j, "const") {
                        if let Some(tok) = toks.get(j + 1).filter(|t| t.kind == TokenKind::Ident) {
                            consts.push(MsgConst {
                                name: tok.text.clone(),
                                line: tok.line,
                                col: tok.col,
                            });
                        }
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        // References: `msg::NAME`.
        if is_ident(i, "msg") && is_punct(i + 1, ":") && is_punct(i + 2, ":") {
            if let Some(tok) = toks.get(i + 3).filter(|t| t.kind == TokenKind::Ident) {
                let ctx = if golden {
                    MsgCtx::Golden
                } else if is_src {
                    enclosing_fn(parsed, i + 3).map_or(MsgCtx::Other, |def| {
                        if def.in_test {
                            MsgCtx::Other
                        } else if is_encode_fn(&def.name) {
                            MsgCtx::Encode
                        } else if is_decode_fn(&def.name) {
                            MsgCtx::Decode
                        } else {
                            MsgCtx::Other
                        }
                    })
                } else {
                    MsgCtx::Other
                };
                refs.insert((tok.text.clone(), ctx));
            }
            i += 4;
            continue;
        }
        i += 1;
    }
    let refs = refs.into_iter().map(|(name, ctx)| MsgRef { name, ctx }).collect();
    (consts, refs)
}

fn enclosing_fn(parsed: &ParsedFile, tok_idx: usize) -> Option<&FnDef> {
    parsed
        .fns
        .iter()
        .zip(&parsed.bodies)
        .filter_map(|(def, body)| body.map(|(s, e)| (def, s, e)))
        .filter(|(_, s, e)| (*s..*e).contains(&tok_idx))
        // Innermost enclosing body (nested fns): the latest start wins.
        .max_by_key(|(_, s, _)| *s)
        .map(|(def, _, _)| def)
}

fn is_encode_fn(name: &str) -> bool {
    name.starts_with("to_") || name.contains("encode") || name == "parts"
}

fn is_decode_fn(name: &str) -> bool {
    name.starts_with("from_") || name.contains("decode")
}

/// R13 `codec-symmetry`: every wire message type must appear in an
/// encode path, a decode path, and a golden-vector test.
pub fn check_codec_symmetry(facts: &[crate::facts::FileFacts], findings: &mut Vec<Finding>) {
    let mut enc: BTreeSet<&str> = BTreeSet::new();
    let mut dec: BTreeSet<&str> = BTreeSet::new();
    let mut gold: BTreeSet<&str> = BTreeSet::new();
    for fact in facts {
        for r in &fact.msg_refs {
            match r.ctx {
                MsgCtx::Encode => {
                    enc.insert(&r.name);
                }
                MsgCtx::Decode => {
                    dec.insert(&r.name);
                }
                MsgCtx::Golden => {
                    gold.insert(&r.name);
                }
                MsgCtx::Other => {}
            }
        }
    }
    for fact in facts {
        for c in &fact.msg_consts {
            let mut missing = Vec::new();
            if !enc.contains(c.name.as_str()) {
                missing.push("an encode path");
            }
            if !dec.contains(c.name.as_str()) {
                missing.push("a decode path");
            }
            if !gold.contains(c.name.as_str()) {
                missing.push("a golden-vector test");
            }
            if missing.is_empty() {
                continue;
            }
            findings.push(Finding {
                rule_id: "codec-symmetry",
                severity: Severity::Deny,
                rel_path: fact.rel_path.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "wire message type `msg::{}` is missing from {} — every message code must \
                     round-trip (encode + decode) and be pinned by a golden vector",
                    c.name,
                    missing.join(" and ")
                ),
                related: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::facts::build_facts;
    use std::path::PathBuf;

    #[test]
    fn msg_refs_classify_by_context() {
        let rel = "crates/fix/src/lib.rs";
        let class = classify(rel).expect("classifiable");
        let file = SourceFile { rel_path: rel.to_string(), abs_path: PathBuf::from(rel), class };
        let facts = build_facts(
            &file,
            "pub mod msg { pub const PING: u8 = 1; }\n\
             pub fn to_frame() -> u8 { msg::PING }\n\
             pub fn from_frame(code: u8) -> bool { code == msg::PING }\n\
             pub fn route(code: u8) -> bool { code == msg::PING }\n",
        )
        .expect("facts build");
        assert_eq!(facts.msg_consts.len(), 1);
        let ctxs: Vec<MsgCtx> = facts.msg_refs.iter().map(|r| r.ctx).collect();
        assert!(ctxs.contains(&MsgCtx::Encode) && ctxs.contains(&MsgCtx::Decode), "{ctxs:?}");
        assert!(ctxs.contains(&MsgCtx::Other), "{ctxs:?}");
    }
}

//! A hand-rolled Rust lexer — just enough fidelity for contract linting.
//!
//! The rules in [`crate::rules`] match on *token* patterns, so the lexer's
//! one job is to never confuse code with non-code: raw strings (`r#"…"#`
//! with any number of hashes), nested block comments (`/* /* */ */`),
//! lifetimes (`'a`) versus char literals (`'a'`), byte and raw-byte
//! strings, and numeric literals with suffixes all have to tokenize the
//! way rustc would, or a rule either misses a violation hidden in code or
//! fires on one quoted inside a string.
//!
//! Comments are not tokens, but they are not discarded either: any comment
//! containing an `xlint::allow(rule-id, reason)` directive is parsed into
//! an [`AllowDirective`] so the engine can suppress findings with an
//! audit trail.

use crate::error::XlintError;

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`seed`, `as`, `fn`, `r#type`, …).
    Ident,
    /// Lifetime such as `'a` or `'_` (without a closing quote).
    Lifetime,
    /// Character literal `'x'`, including escapes, and byte chars `b'x'`.
    CharLit,
    /// String literal of any flavor: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    StrLit,
    /// Numeric literal (integer or float, any base, with optional suffix).
    NumLit,
    /// A single punctuation character (`^`, `.`, `(`, …). Multi-character
    /// operators appear as consecutive single-char tokens.
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind of lexeme.
    pub kind: TokenKind,
    /// The token text. For string literals this is the *cooked* content
    /// (delimiters and raw-string hashes stripped, escapes left as-is) so
    /// rules like stream-id-unique compare payloads, not spellings.
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in characters) of the first character.
    pub col: u32,
}

/// A parsed `xlint::allow(rule-id, reason)` suppression directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule id being suppressed, e.g. `no-panic-in-lib`.
    pub rule_id: String,
    /// The justification string. Empty when the author omitted it — the
    /// engine turns that into a deny-tier `bad-allow` finding.
    pub reason: String,
    /// 1-based line the directive's comment starts on.
    pub line: u32,
}

impl AllowDirective {
    /// Does this directive cover a `rule_id` finding on `line`? A directive
    /// on line L covers L and the next token-bearing line after L (the
    /// "comment above the offending line" idiom); `token_lines` are the
    /// file's token-bearing lines in ascending order.
    pub(crate) fn covers(&self, token_lines: &[u32], rule_id: &str, line: u32) -> bool {
        self.rule_id == rule_id
            && (self.line == line
                || token_lines.iter().find(|t| **t > self.line).is_some_and(|next| *next == line))
    }
}

/// Output of [`lex`]: the token stream plus every allow directive found
/// in comments.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Suppression directives in source order.
    pub allows: Vec<AllowDirective>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Cursor { chars: src.chars().collect(), pos: 0, line: 1, col: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` (the contents of `path`, used only for error messages) into
/// tokens and allow directives.
pub fn lex(path: &str, src: &str) -> Result<LexOutput, XlintError> {
    let mut cur = Cursor::new(src);
    let mut out = LexOutput::default();

    while !cur.at_end() {
        let line = cur.line;
        let col = cur.col;
        let c = match cur.peek(0) {
            Some(c) => c,
            None => break,
        };

        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }

        // Comments: line, and block with nesting. Scan their text for
        // xlint::allow directives, then drop them.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            scan_allow(&text, line, &mut out.allows);
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            let mut text = String::new();
            loop {
                if cur.at_end() {
                    return Err(XlintError::Lex {
                        path: path.to_string(),
                        line,
                        col,
                        msg: "unterminated block comment".to_string(),
                    });
                }
                if cur.peek(0) == Some('/') && cur.peek(1) == Some('*') {
                    depth += 1;
                    cur.bump();
                    cur.bump();
                    continue;
                }
                if cur.peek(0) == Some('*') && cur.peek(1) == Some('/') {
                    depth -= 1;
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                if let Some(ch) = cur.bump() {
                    text.push(ch);
                }
            }
            scan_allow(&text, line, &mut out.allows);
            continue;
        }

        // Lifetimes vs char literals. `'a'` / `'\n'` / `b'x'` (handled via
        // the ident path for the `b` prefix) are char literals; `'a` and
        // `'_` without a closing quote are lifetimes.
        if c == '\'' {
            if cur.peek(1) == Some('\\') {
                out.tokens.push(lex_char_like(path, &mut cur, line, col)?);
                continue;
            }
            let second = cur.peek(1);
            let third = cur.peek(2);
            let is_lifetime = match (second, third) {
                (Some(s), Some('\'')) if is_ident_continue(s) => false,
                (Some(s), _) if is_ident_start(s) => true,
                _ => false,
            };
            if is_lifetime {
                cur.bump(); // the quote
                let mut text = String::from("'");
                while let Some(ch) = cur.peek(0) {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                out.tokens.push(Token { kind: TokenKind::Lifetime, text, line, col });
            } else {
                out.tokens.push(lex_char_like(path, &mut cur, line, col)?);
            }
            continue;
        }

        // Strings (plain), possibly reached directly.
        if c == '"' {
            out.tokens.push(lex_plain_string(path, &mut cur, line, col)?);
            continue;
        }

        // Identifiers — including the r"…" / r#"…"# / b"…" / br#"…"# /
        // b'x' prefixes, which look like an ident until the next char.
        if is_ident_start(c) {
            let mut text = String::new();
            text.push(c);
            cur.bump();
            // Raw/byte string or byte char prefixes.
            let prefix_done = loop {
                let is_prefix = matches!(text.as_str(), "r" | "b" | "br" | "rb");
                if is_prefix {
                    match cur.peek(0) {
                        Some('"') => {
                            if text.starts_with('r') || text.ends_with('r') {
                                // raw (possibly byte) string with zero hashes
                                if text.contains('r') && text != "b" {
                                    out.tokens.push(lex_raw_string(path, &mut cur, line, col, 0)?);
                                } else {
                                    out.tokens.push(lex_plain_string(path, &mut cur, line, col)?);
                                }
                            } else {
                                // b"…" byte string: cooked like a plain string
                                out.tokens.push(lex_plain_string(path, &mut cur, line, col)?);
                            }
                            break true;
                        }
                        Some('#') if text.contains('r') => {
                            let mut hashes = 0usize;
                            while cur.peek(hashes) == Some('#') {
                                hashes += 1;
                            }
                            if cur.peek(hashes) == Some('"') {
                                for _ in 0..hashes {
                                    cur.bump();
                                }
                                out.tokens.push(lex_raw_string(path, &mut cur, line, col, hashes)?);
                                break true;
                            }
                            // `r#ident` raw identifier: fall through to ident.
                        }
                        Some('\'') if text == "b" => {
                            out.tokens.push(lex_char_like(path, &mut cur, line, col)?);
                            break true;
                        }
                        _ => {}
                    }
                }
                match cur.peek(0) {
                    Some(ch) if is_ident_continue(ch) => {
                        text.push(ch);
                        cur.bump();
                    }
                    Some('#') if text == "r" && cur.peek(1).is_some_and(is_ident_start) => {
                        // raw identifier r#type
                        cur.bump();
                        text.clear();
                    }
                    _ => break false,
                }
            };
            if !prefix_done {
                out.tokens.push(Token { kind: TokenKind::Ident, text, line, col });
            }
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            let mut text = String::new();
            text.push(c);
            cur.bump();
            if c == '0' && matches!(cur.peek(0), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B')) {
                if let Some(radix) = cur.bump() {
                    text.push(radix);
                }
                while let Some(ch) = cur.peek(0) {
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        text.push(ch);
                        cur.bump();
                    } else {
                        break;
                    }
                }
            } else {
                consume_decimal(&mut cur, &mut text);
                // Fractional part — but not a `..` range and not a method
                // call on a literal like `1.max(2)`.
                if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                    text.push('.');
                    cur.bump();
                    consume_decimal(&mut cur, &mut text);
                }
                // Exponent.
                if matches!(cur.peek(0), Some('e' | 'E'))
                    && (cur.peek(1).is_some_and(|d| d.is_ascii_digit())
                        || (matches!(cur.peek(1), Some('+' | '-'))
                            && cur.peek(2).is_some_and(|d| d.is_ascii_digit())))
                {
                    if let Some(e) = cur.bump() {
                        text.push(e);
                    }
                    if matches!(cur.peek(0), Some('+' | '-')) {
                        if let Some(s) = cur.bump() {
                            text.push(s);
                        }
                    }
                    consume_decimal(&mut cur, &mut text);
                }
                // Suffix (u64, f64, usize, …).
                while let Some(ch) = cur.peek(0) {
                    if is_ident_continue(ch) {
                        text.push(ch);
                        cur.bump();
                    } else {
                        break;
                    }
                }
            }
            out.tokens.push(Token { kind: TokenKind::NumLit, text, line, col });
            continue;
        }

        // Everything else: single punctuation character.
        cur.bump();
        out.tokens.push(Token { kind: TokenKind::Punct, text: c.to_string(), line, col });
    }

    Ok(out)
}

fn consume_decimal(cur: &mut Cursor, text: &mut String) {
    while let Some(ch) = cur.peek(0) {
        if ch.is_ascii_digit() || ch == '_' {
            text.push(ch);
            cur.bump();
        } else {
            break;
        }
    }
}

/// Lex a char literal (or byte char) starting at the opening `'`.
fn lex_char_like(path: &str, cur: &mut Cursor, line: u32, col: u32) -> Result<Token, XlintError> {
    cur.bump(); // opening quote
    let mut text = String::new();
    loop {
        match cur.bump() {
            None | Some('\n') => {
                return Err(XlintError::Lex {
                    path: path.to_string(),
                    line,
                    col,
                    msg: "unterminated character literal".to_string(),
                })
            }
            Some('\\') => {
                text.push('\\');
                if let Some(esc) = cur.bump() {
                    text.push(esc);
                }
            }
            Some('\'') => break,
            Some(ch) => text.push(ch),
        }
    }
    Ok(Token { kind: TokenKind::CharLit, text, line, col })
}

/// Lex a plain (or byte) string literal starting at the opening `"`.
fn lex_plain_string(
    path: &str,
    cur: &mut Cursor,
    line: u32,
    col: u32,
) -> Result<Token, XlintError> {
    cur.bump(); // opening quote
    let mut text = String::new();
    loop {
        match cur.bump() {
            None => {
                return Err(XlintError::Lex {
                    path: path.to_string(),
                    line,
                    col,
                    msg: "unterminated string literal".to_string(),
                })
            }
            Some('\\') => {
                text.push('\\');
                if let Some(esc) = cur.bump() {
                    text.push(esc);
                }
            }
            Some('"') => break,
            Some(ch) => text.push(ch),
        }
    }
    Ok(Token { kind: TokenKind::StrLit, text, line, col })
}

/// Lex a raw string starting at the opening `"`, with `hashes` trailing
/// `#` characters required to close it.
fn lex_raw_string(
    path: &str,
    cur: &mut Cursor,
    line: u32,
    col: u32,
    hashes: usize,
) -> Result<Token, XlintError> {
    cur.bump(); // opening quote
    let mut text = String::new();
    loop {
        match cur.bump() {
            None => {
                return Err(XlintError::Lex {
                    path: path.to_string(),
                    line,
                    col,
                    msg: "unterminated raw string literal".to_string(),
                })
            }
            Some('"') => {
                let mut matched = 0usize;
                while matched < hashes && cur.peek(matched) == Some('#') {
                    matched += 1;
                }
                if matched == hashes {
                    for _ in 0..hashes {
                        cur.bump();
                    }
                    break;
                }
                text.push('"');
            }
            Some(ch) => text.push(ch),
        }
    }
    Ok(Token { kind: TokenKind::StrLit, text, line, col })
}

/// Scan comment text for `xlint::allow(rule-id, reason)` directives.
/// Doc comments are prose — they routinely *describe* the directive
/// syntax (this very file does) — so they never carry directives: line
/// docs arrive as `///…`/`//!…`, block docs with a `*`/`!` interior
/// head (the `/*` opener is stripped before the scan).
fn scan_allow(comment: &str, line: u32, allows: &mut Vec<AllowDirective>) {
    if comment.starts_with("///")
        || comment.starts_with("//!")
        || comment.starts_with('*')
        || comment.starts_with('!')
    {
        return;
    }
    let mut rest = comment;
    while let Some(at) = rest.find("xlint::allow(") {
        let after = &rest[at + "xlint::allow(".len()..];
        let Some(close) = after.find(')') else { break };
        let inside = &after[..close];
        let (rule_id, reason) = match inside.split_once(',') {
            Some((id, why)) => (id.trim().to_string(), why.trim().trim_matches('"').to_string()),
            None => (inside.trim().to_string(), String::new()),
        };
        allows.push(AllowDirective { rule_id, reason, line });
        rest = &after[close..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        let out = lex("test.rs", src).expect("lex");
        out.tokens.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn raw_strings_with_hashes_hide_their_contents() {
        // The `seed ^` inside the raw string must not surface as tokens.
        let toks = kinds(r###"let s = r#"seed ^ 0xf1 "quoted" ok"#;"###);
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "let".to_string()),
                (TokenKind::Ident, "s".to_string()),
                (TokenKind::Punct, "=".to_string()),
                (TokenKind::StrLit, "seed ^ 0xf1 \"quoted\" ok".to_string()),
                (TokenKind::Punct, ";".to_string()),
            ]
        );
    }

    #[test]
    fn raw_string_with_two_hashes_and_embedded_terminator() {
        let toks = kinds(r####"r##"inner "# still inside"##"####);
        assert_eq!(toks, vec![(TokenKind::StrLit, "inner \"# still inside".to_string())]);
    }

    #[test]
    fn nested_block_comments_are_skipped_entirely() {
        let toks = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(
            toks,
            vec![(TokenKind::Ident, "a".to_string()), (TokenKind::Ident, "b".to_string())]
        );
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; let u = '_'; }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).cloned().collect();
        let chars: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::CharLit).cloned().collect();
        assert_eq!(
            lifetimes,
            vec![(TokenKind::Lifetime, "'a".to_string()), (TokenKind::Lifetime, "'a".to_string())]
        );
        assert_eq!(
            chars,
            vec![
                (TokenKind::CharLit, "a".to_string()),
                (TokenKind::CharLit, "\\n".to_string()),
                (TokenKind::CharLit, "_".to_string()),
            ]
        );
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r##"let a = b"bytes"; let b = b'x'; let c = br#"raw bytes"#;"##);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::StrLit).cloned().collect();
        let chars: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::CharLit).cloned().collect();
        assert_eq!(
            strs,
            vec![
                (TokenKind::StrLit, "bytes".to_string()),
                (TokenKind::StrLit, "raw bytes".to_string())
            ]
        );
        assert_eq!(chars, vec![(TokenKind::CharLit, "x".to_string())]);
    }

    #[test]
    fn raw_identifier_is_an_ident_not_a_string() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.contains(&(TokenKind::Ident, "type".to_string())));
    }

    #[test]
    fn numeric_literals_with_suffixes_ranges_and_exponents() {
        let toks = kinds("0xff_u8 1_000 2.5e-3 1.0f64 0..10");
        assert_eq!(toks[0], (TokenKind::NumLit, "0xff_u8".to_string()));
        assert_eq!(toks[1], (TokenKind::NumLit, "1_000".to_string()));
        assert_eq!(toks[2], (TokenKind::NumLit, "2.5e-3".to_string()));
        assert_eq!(toks[3], (TokenKind::NumLit, "1.0f64".to_string()));
        // `0..10` must lex as number, dot, dot, number — not a float.
        assert_eq!(
            &toks[4..],
            &[
                (TokenKind::NumLit, "0".to_string()),
                (TokenKind::Punct, ".".to_string()),
                (TokenKind::Punct, ".".to_string()),
                (TokenKind::NumLit, "10".to_string()),
            ]
        );
    }

    #[test]
    fn string_in_comment_and_comment_in_string() {
        let toks = kinds("let s = \"/* not a comment */\"; // \"not a string\" unwrap()");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "let".to_string()),
                (TokenKind::Ident, "s".to_string()),
                (TokenKind::Punct, "=".to_string()),
                (TokenKind::StrLit, "/* not a comment */".to_string()),
                (TokenKind::Punct, ";".to_string()),
            ]
        );
    }

    #[test]
    fn allow_directives_are_parsed_with_reason() {
        let out = lex(
            "t.rs",
            "let x = v.unwrap(); // xlint::allow(no-panic-in-lib, \"checked nonempty above\")\n\
             // xlint::allow(no-lossy-cast)\n",
        )
        .expect("lex");
        assert_eq!(out.allows.len(), 2);
        assert_eq!(out.allows[0].rule_id, "no-panic-in-lib");
        assert_eq!(out.allows[0].reason, "checked nonempty above");
        assert_eq!(out.allows[0].line, 1);
        assert_eq!(out.allows[1].rule_id, "no-lossy-cast");
        assert_eq!(out.allows[1].reason, "");
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let out = lex("t.rs", "ab\n  cd").expect("lex");
        assert_eq!((out.tokens[0].line, out.tokens[0].col), (1, 1));
        assert_eq!((out.tokens[1].line, out.tokens[1].col), (2, 3));
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        assert!(lex("t.rs", "/* /* */").is_err());
        assert!(lex("t.rs", "\"open").is_err());
    }
}

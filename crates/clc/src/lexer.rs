//! Tokenizer for the OpenCL C subset.

use crate::diag::{ClcError, Span, Stage};

/// A lexical token kind; identifiers borrow from the source text.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'s> {
    /// An identifier or keyword (keywords are resolved by the parser).
    Ident(&'s str),
    /// An integer literal, already decoded (decimal or `0x` hex), with a
    /// flag recording a `u`/`U` suffix and one recording an `l`/`L` suffix.
    IntLit {
        /// The decoded value.
        value: u64,
        /// `u`/`U` suffix present.
        unsigned: bool,
        /// `l`/`L` suffix present.
        long: bool,
    },
    /// A floating literal; `single` records an `f`/`F` suffix.
    FloatLit {
        /// The decoded value.
        value: f64,
        /// `f`/`F` suffix present.
        single: bool,
    },
    /// Punctuation and operators, e.g. `+`, `<<=`, `(`.
    Punct(&'static str),
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'s> {
    /// What was lexed.
    pub kind: TokenKind<'s>,
    /// Where it came from.
    pub span: Span,
}

/// The longest punctuator `rest` starts with (maximal munch), if any.
fn punctuator(rest: &[u8]) -> Option<&'static str> {
    let next = |k: usize| rest.get(k).copied().unwrap_or(0);
    Some(match (next(0), next(1), next(2)) {
        (b'<', b'<', b'=') => "<<=",
        (b'>', b'>', b'=') => ">>=",
        (b'.', b'.', b'.') => "...",
        (b'<', b'<', _) => "<<",
        (b'>', b'>', _) => ">>",
        (b'<', b'=', _) => "<=",
        (b'>', b'=', _) => ">=",
        (b'=', b'=', _) => "==",
        (b'!', b'=', _) => "!=",
        (b'&', b'&', _) => "&&",
        (b'|', b'|', _) => "||",
        (b'+', b'=', _) => "+=",
        (b'-', b'=', _) => "-=",
        (b'*', b'=', _) => "*=",
        (b'/', b'=', _) => "/=",
        (b'%', b'=', _) => "%=",
        (b'&', b'=', _) => "&=",
        (b'|', b'=', _) => "|=",
        (b'^', b'=', _) => "^=",
        (b'+', b'+', _) => "++",
        (b'-', b'-', _) => "--",
        (b'-', b'>', _) => "->",
        (b'+', ..) => "+",
        (b'-', ..) => "-",
        (b'*', ..) => "*",
        (b'/', ..) => "/",
        (b'%', ..) => "%",
        (b'=', ..) => "=",
        (b'<', ..) => "<",
        (b'>', ..) => ">",
        (b'!', ..) => "!",
        (b'&', ..) => "&",
        (b'|', ..) => "|",
        (b'^', ..) => "^",
        (b'~', ..) => "~",
        (b'?', ..) => "?",
        (b':', ..) => ":",
        (b';', ..) => ";",
        (b',', ..) => ",",
        (b'.', ..) => ".",
        (b'(', ..) => "(",
        (b')', ..) => ")",
        (b'[', ..) => "[",
        (b']', ..) => "]",
        (b'{', ..) => "{",
        (b'}', ..) => "}",
        _ => return None,
    })
}

/// Tokenizes `source`.
///
/// Line (`//`) and block (`/* */`) comments and all whitespace are
/// skipped. Preprocessor lines (starting with `#`) are skipped to the end
/// of line — the subset has no macro expansion, but benchmark sources may
/// carry `#pragma` lines.
///
/// # Errors
///
/// Returns an error for unterminated block comments, malformed numeric
/// literals and characters outside the language.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, ClcError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments and preprocessor lines.
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = i;
            i += 2;
            loop {
                if i + 1 >= bytes.len() {
                    return Err(ClcError::at(
                        Stage::Lex,
                        Span::new(start, bytes.len()),
                        source,
                        "unterminated block comment",
                    ));
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    i += 2;
                    break;
                }
                i += 1;
            }
            continue;
        }
        if c == b'#' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident(&source[start..i]),
                span: Span::new(start, i),
            });
            continue;
        }
        // Numeric literals.
        if c.is_ascii_digit() || (c == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit())
        {
            let (tok, next) = lex_number(source, i)?;
            tokens.push(tok);
            i = next;
            continue;
        }
        if let Some(p) = punctuator(&bytes[i..]) {
            tokens.push(Token {
                kind: TokenKind::Punct(p),
                span: Span::new(i, i + p.len()),
            });
            i += p.len();
            continue;
        }
        // Every branch above consumes whole ASCII runs (comments end at an
        // ASCII byte), so `i` sits on a character boundary.
        let ch = source[i..].chars().next().expect("i < len");
        return Err(ClcError::at(
            Stage::Lex,
            Span::new(i, i + ch.len_utf8()),
            source,
            format!("unexpected character `{ch}`"),
        ));
    }
    Ok(tokens)
}

fn lex_number(source: &str, start: usize) -> Result<(Token<'_>, usize), ClcError> {
    let bytes = source.as_bytes();
    let mut i = start;
    // Hex integer.
    if source[i..].starts_with("0x") || source[i..].starts_with("0X") {
        i += 2;
        let digits_start = i;
        while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
            i += 1;
        }
        if i == digits_start {
            return Err(ClcError::at(
                Stage::Lex,
                Span::new(start, i),
                source,
                "hex literal needs at least one digit",
            ));
        }
        let value = u64::from_str_radix(&source[digits_start..i], 16).map_err(|_| {
            ClcError::at(
                Stage::Lex,
                Span::new(start, i),
                source,
                "hex literal does not fit in 64 bits",
            )
        })?;
        let (unsigned, long, next) = int_suffix(bytes, i);
        return Ok((
            Token {
                kind: TokenKind::IntLit {
                    value,
                    unsigned,
                    long,
                },
                span: Span::new(start, next),
            },
            next,
        ));
    }
    // Decimal: integer part, optional fraction, optional exponent.
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    if i < bytes.len() && bytes[i] == b'.' {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    if is_float {
        let value: f64 = source[start..i].parse().map_err(|_| {
            ClcError::at(
                Stage::Lex,
                Span::new(start, i),
                source,
                "malformed floating literal",
            )
        })?;
        let mut single = false;
        let mut next = i;
        if next < bytes.len() && (bytes[next] == b'f' || bytes[next] == b'F') {
            single = true;
            next += 1;
        }
        Ok((
            Token {
                kind: TokenKind::FloatLit { value, single },
                span: Span::new(start, next),
            },
            next,
        ))
    } else {
        let value: u64 = source[start..i].parse().map_err(|_| {
            ClcError::at(
                Stage::Lex,
                Span::new(start, i),
                source,
                "integer literal does not fit in 64 bits",
            )
        })?;
        // A float suffix directly on an integer body (e.g. `1f`) makes it
        // a float literal, matching OpenCL C.
        if i < bytes.len() && (bytes[i] == b'f' || bytes[i] == b'F') {
            return Ok((
                Token {
                    kind: TokenKind::FloatLit {
                        value: value as f64,
                        single: true,
                    },
                    span: Span::new(start, i + 1),
                },
                i + 1,
            ));
        }
        let (unsigned, long, next) = int_suffix(bytes, i);
        Ok((
            Token {
                kind: TokenKind::IntLit {
                    value,
                    unsigned,
                    long,
                },
                span: Span::new(start, next),
            },
            next,
        ))
    }
}

fn int_suffix(bytes: &[u8], mut i: usize) -> (bool, bool, usize) {
    let mut unsigned = false;
    let mut long = false;
    for _ in 0..2 {
        if i < bytes.len() && (bytes[i] == b'u' || bytes[i] == b'U') && !unsigned {
            unsigned = true;
            i += 1;
        } else if i < bytes.len() && (bytes[i] == b'l' || bytes[i] == b'L') && !long {
            long = true;
            i += 1;
        }
    }
    (unsigned, long, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The specification of [`punctuator`]: every punctuator, longest
    /// first, so the first one a text starts with is its maximal munch.
    const PUNCTUATORS: &[&str] = &[
        "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=",
        "/=", "%=", "&=", "|=", "^=", "++", "--", "->", "+", "-", "*", "/", "%", "=", "<", ">",
        "!", "&", "|", "^", "~", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
    ];

    /// [`lex`] as a straight scan that munches punctuators through the
    /// [`PUNCTUATORS`] table.
    fn reference_lex(source: &str) -> Result<Vec<Token<'_>>, ClcError> {
        let bytes = source.as_bytes();
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let rest = &source[i..];
            let c = bytes[i];
            if c.is_ascii_whitespace() {
                i += 1;
            } else if rest.starts_with("//") || c == b'#' {
                i += rest.find('\n').unwrap_or(rest.len());
            } else if let Some(body) = rest.strip_prefix("/*") {
                match body.find("*/") {
                    Some(end) => i += end + 4,
                    None => {
                        return Err(ClcError::at(
                            Stage::Lex,
                            Span::new(i, bytes.len()),
                            source,
                            "unterminated block comment",
                        ))
                    }
                }
            } else if c.is_ascii_alphabetic() || c == b'_' {
                let len = rest
                    .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                    .unwrap_or(rest.len());
                tokens.push(Token {
                    kind: TokenKind::Ident(&rest[..len]),
                    span: Span::new(i, i + len),
                });
                i += len;
            } else if c.is_ascii_digit()
                || (c == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
            {
                let (tok, next) = lex_number(source, i)?;
                tokens.push(tok);
                i = next;
            } else if let Some(p) = PUNCTUATORS.iter().find(|p| rest.starts_with(*p)) {
                tokens.push(Token {
                    kind: TokenKind::Punct(p),
                    span: Span::new(i, i + p.len()),
                });
                i += p.len();
            } else {
                let ch = rest.chars().next().expect("non-empty");
                return Err(ClcError::at(
                    Stage::Lex,
                    Span::new(i, i + ch.len_utf8()),
                    source,
                    format!("unexpected character `{ch}`"),
                ));
            }
        }
        Ok(tokens)
    }

    /// Every character a punctuator is made of: runs of them glue into
    /// punctuators and comment openers across piece boundaries.
    const PUNCT_CHARS: &str = "<>=!&|+-*/%^~?:;,.()[]{}";

    /// The other pieces random sources are glued from: whitespace,
    /// identifiers, numbers and comments.
    const WORDS: &[&str] = &[
        " ",
        "\n",
        "\t",
        "x",
        "_a1",
        "int",
        "e",
        "42",
        "7u",
        "0x1F",
        "1.5f",
        ".5",
        "1e3",
        "// line\n",
        "/* block */",
        "#pragma p\n",
    ];

    /// Piece `k` (mod their number): a whole punctuator, so each one
    /// turns up often, a punctuator character, or a word.
    fn piece(k: usize) -> &'static str {
        let k = k % (PUNCTUATORS.len() + PUNCT_CHARS.len() + WORDS.len());
        match k.checked_sub(PUNCTUATORS.len()) {
            None => PUNCTUATORS[k],
            Some(c) if c < PUNCT_CHARS.len() => &PUNCT_CHARS[c..c + 1],
            Some(c) => WORDS[c - PUNCT_CHARS.len()],
        }
    }

    /// Characters outside the language.
    const STRAYS: &[&str] = &["@", "$", "`", "\\", "\"", "'", "é", "€", "\u{7f}"];

    fn glue(picks: &[usize]) -> String {
        picks.iter().map(|&k| piece(k)).collect()
    }

    fn same_outcome(src: &str) -> Result<(), TestCaseError> {
        match (lex(src), reference_lex(src)) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(got), Err(want)) => {
                prop_assert_eq!(got.build_log(), want.build_log());
            }
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "lex gave {got:?}, the reference {want:?}"
                )))
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn punctuators_munch_like_the_table(picks in proptest::collection::vec(0usize..1000, 0..48)) {
            same_outcome(&glue(&picks))?;
        }

        #[test]
        fn stray_characters_are_reported_where_the_table_says(
            picks in proptest::collection::vec(0usize..1000, 0..32),
            at in 0usize..1000,
            stray in 0usize..1000,
        ) {
            let mut pieces: Vec<&str> = picks.iter().map(|&k| piece(k)).collect();
            pieces.insert(at % (pieces.len() + 1), STRAYS[stray % STRAYS.len()]);
            same_outcome(&pieces.concat())?;
        }
    }

    #[test]
    fn every_punctuator_lexes_alone_to_itself() {
        for p in PUNCTUATORS {
            assert_eq!(kinds(p), vec![TokenKind::Punct(p)], "{p}");
        }
    }

    #[test]
    fn non_ascii_characters_are_reported_whole() {
        let src = "__kernel void f() { int x = 1; é }";
        let err = lex(src).unwrap_err();
        assert_eq!(err.message(), "unexpected character `é`");
        assert_eq!((err.line(), err.col()), (1, 32));
        let err = lex("€").unwrap_err();
        assert_eq!(err.message(), "unexpected character `€`");
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_identifiers_and_puncts() {
        assert_eq!(
            kinds("a+_b2"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct("+"),
                TokenKind::Ident("_b2"),
            ]
        );
    }

    #[test]
    fn maximal_munch_operators() {
        assert_eq!(
            kinds("a<<=b<<c<=d"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct("<<="),
                TokenKind::Ident("b"),
                TokenKind::Punct("<<"),
                TokenKind::Ident("c"),
                TokenKind::Punct("<="),
                TokenKind::Ident("d"),
            ]
        );
    }

    #[test]
    fn lexes_integer_literals() {
        assert_eq!(
            kinds("42 0x2A 7u 9ul 3L"),
            vec![
                TokenKind::IntLit {
                    value: 42,
                    unsigned: false,
                    long: false
                },
                TokenKind::IntLit {
                    value: 42,
                    unsigned: false,
                    long: false
                },
                TokenKind::IntLit {
                    value: 7,
                    unsigned: true,
                    long: false
                },
                TokenKind::IntLit {
                    value: 9,
                    unsigned: true,
                    long: true
                },
                TokenKind::IntLit {
                    value: 3,
                    unsigned: false,
                    long: true
                },
            ]
        );
    }

    #[test]
    fn lexes_float_literals() {
        assert_eq!(
            kinds("1.5 2.0f .25 1e3 2.5e-2 1f"),
            vec![
                TokenKind::FloatLit {
                    value: 1.5,
                    single: false
                },
                TokenKind::FloatLit {
                    value: 2.0,
                    single: true
                },
                TokenKind::FloatLit {
                    value: 0.25,
                    single: false
                },
                TokenKind::FloatLit {
                    value: 1e3,
                    single: false
                },
                TokenKind::FloatLit {
                    value: 2.5e-2,
                    single: false
                },
                TokenKind::FloatLit {
                    value: 1.0,
                    single: true
                },
            ]
        );
    }

    #[test]
    fn member_access_is_not_a_float() {
        assert_eq!(
            kinds("s.x"),
            vec![
                TokenKind::Ident("s"),
                TokenKind::Punct("."),
                TokenKind::Ident("x"),
            ]
        );
    }

    #[test]
    fn skips_comments_and_pragmas() {
        let src = "a // one\n/* two\nthree */ b\n#pragma OPENCL EXTENSION cl_khr_fp64 : enable\nc";
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
            ]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        let err = lex("x /* nope").unwrap_err();
        assert!(err.message().contains("unterminated"));
    }

    #[test]
    fn rejects_stray_characters() {
        let err = lex("a @ b").unwrap_err();
        assert!(err.message().contains('@'));
    }

    #[test]
    fn spans_point_at_tokens() {
        let toks = lex("ab  cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(4, 6));
    }

    #[test]
    fn exponent_without_digits_is_identifier_suffix() {
        // `1e` is the int 1 followed by identifier `e` (C would reject,
        // we tolerate by splitting — parser will then reject the sequence).
        assert_eq!(
            kinds("1e"),
            vec![
                TokenKind::IntLit {
                    value: 1,
                    unsigned: false,
                    long: false
                },
                TokenKind::Ident("e"),
            ]
        );
    }
}

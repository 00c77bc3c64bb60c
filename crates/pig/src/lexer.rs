//! Tokenizer for the Pig-Latin subset.

use std::fmt;

/// One token with its 1-based line for error messages.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (case preserved; keyword matching is
    /// case-insensitive in the parser).
    Ident(String),
    /// Single-quoted string literal (quotes stripped).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `=`
    Equals,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::Equals => write!(f, "="),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Semi => write!(f, ";"),
            TokenKind::Colon => write!(f, ":"),
            TokenKind::Dot => write!(f, "."),
        }
    }
}

/// Lexing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}
impl std::error::Error for LexError {}

/// Tokenize a script. `--` starts a line comment (Pig convention).
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            // The grammar compares nothing: `==` is no token, not two `=`.
            b'=' if bytes.get(i + 1) == Some(&b'=') => {
                return Err(LexError {
                    line,
                    message: "unexpected \"==\"".into(),
                });
            }
            b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Equals,
                    line,
                });
                i += 1;
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    line,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    line,
                });
                i += 1;
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    line,
                });
                i += 1;
            }
            b';' => {
                tokens.push(Token {
                    kind: TokenKind::Semi,
                    line,
                });
                i += 1;
            }
            b':' => {
                tokens.push(Token {
                    kind: TokenKind::Colon,
                    line,
                });
                i += 1;
            }
            b'.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    line,
                });
                i += 1;
            }
            b'\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    if bytes[j] == b'\n' {
                        return Err(LexError {
                            line,
                            message: "unterminated string literal".into(),
                        });
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError {
                        line,
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push(Token {
                    kind: TokenKind::Str(source[start..j].to_string()),
                    line,
                });
                i = j + 1;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || (bytes[i] == b'.'
                            && i + 1 < bytes.len()
                            && bytes[i + 1].is_ascii_digit()))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &source[start..i];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| LexError {
                        line,
                        message: format!("bad float literal {text:?}"),
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| LexError {
                        line,
                        message: format!("bad int literal {text:?}"),
                    })?)
                };
                tokens.push(Token { kind, line });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                let start = i;
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(source[start..i].to_string()),
                    line,
                });
            }
            _ => {
                // Every arm consumes whole ASCII bytes or whole literals,
                // so `i` starts a character: report all of its bytes.
                let ch = source
                    .get(i..)
                    .and_then(|rest| rest.chars().next())
                    .unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(LexError {
                    line,
                    message: format!("unexpected character {ch:?}"),
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_assignment() {
        assert_eq!(
            kinds("A = LOAD 'x';"),
            vec![
                TokenKind::Ident("A".into()),
                TokenKind::Equals,
                TokenKind::Ident("LOAD".into()),
                TokenKind::Str("x".into()),
                TokenKind::Semi,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("5 0.95 100"),
            vec![
                TokenKind::Int(5),
                TokenKind::Float(0.95),
                TokenKind::Int(100)
            ]
        );
    }

    #[test]
    fn lexes_schema_and_dots() {
        assert_eq!(
            kinds("(a:int, I.F)"),
            vec![
                TokenKind::LParen,
                TokenKind::Ident("a".into()),
                TokenKind::Colon,
                TokenKind::Ident("int".into()),
                TokenKind::Comma,
                TokenKind::Ident("I".into()),
                TokenKind::Dot,
                TokenKind::Ident("F".into()),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn comments_skipped_and_lines_tracked() {
        let toks = lex("-- comment\nA = B;\n").unwrap();
        assert_eq!(toks[0].line, 2);
    }

    #[test]
    fn dollar_params_are_idents() {
        assert_eq!(kinds("$KMER"), vec![TokenKind::Ident("$KMER".into())]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("A = LOAD 'oops").is_err());
        assert!(lex("A = LOAD 'oops\n'").is_err());
    }

    #[test]
    fn unexpected_char_is_error() {
        let err = lex("A @ B").unwrap_err();
        assert!(err.message.contains('@'));
    }

    #[test]
    fn unexpected_multibyte_char_is_reported_whole() {
        for (src, ch) in [("A = é;", 'é'), ("A = B;\nC = 𝄞;", '𝄞')] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.message, format!("unexpected character {ch:?}"), "{src}");
            assert_eq!(err.line, src.lines().count(), "{src}");
        }
    }
}

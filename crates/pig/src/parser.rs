//! Recursive-descent parser for the Pig-Latin subset of Algorithm 3.

use std::collections::HashMap;
use std::fmt;

use crate::lexer::{lex, LexError, Token, TokenKind};

/// A parsed script: ordered statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Statements in source order.
    pub statements: Vec<Statement>,
}

/// One statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `alias = <operator>;`
    Assign {
        /// Relation alias being defined.
        alias: String,
        /// The defining operator.
        op: Operator,
    },
    /// `STORE alias INTO 'path';`
    Store {
        /// Relation to persist.
        alias: String,
        /// DFS output path.
        path: String,
    },
}

/// Relational operators.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// `LOAD 'path' [USING Loader] [AS (schema)]`
    Load {
        /// DFS input path.
        path: String,
        /// Loader UDF name (defaults to the text loader).
        loader: Option<String>,
        /// Declared field names/types.
        schema: Vec<FieldDecl>,
    },
    /// `FOREACH input GENERATE item, item, ...`
    Foreach {
        /// Input relation alias.
        input: String,
        /// Generated items.
        items: Vec<GenItem>,
    },
    /// `GROUP input ALL` or `GROUP input BY field`
    Group {
        /// Input relation alias.
        input: String,
        /// Grouping mode.
        by: GroupBy,
    },
}

/// Grouping mode.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupBy {
    /// Single global group (`GROUP x ALL`).
    All,
    /// Group by a named field.
    Field(String),
}

/// One `GENERATE` item.
#[derive(Debug, Clone, PartialEq)]
pub struct GenItem {
    /// The expression to evaluate.
    pub expr: Expr,
    /// Whether it is wrapped in `FLATTEN(...)`.
    pub flatten: bool,
    /// Optional `AS (...)` field declarations.
    pub schema: Vec<FieldDecl>,
}

/// Declared output field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Optional Pig type annotation.
    pub ty: Option<String>,
}

/// Expressions inside `GENERATE` / UDF arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a field of the current relation.
    Field(String),
    /// `Relation.Field` cross-relation reference (Algorithm 3's `I.F`).
    Dotted {
        /// Referenced relation alias.
        relation: String,
        /// Field within that relation.
        field: String,
    },
    /// UDF invocation.
    Udf {
        /// UDF name as written.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Integer literal.
    LitLong(i64),
    /// Float literal.
    LitDouble(f64),
    /// String literal.
    LitString(String),
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}
impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Substitute `$NAME` parameters, then lex and parse.
pub fn parse_script(source: &str, params: &HashMap<String, String>) -> Result<Script, ParseError> {
    let tokens = lex(&substitute(source, params)?)?;
    Parser { tokens, pos: 0 }.script()
}

/// `source` with its parameters replaced, in one pass. `$` followed by
/// a whole identifier (`[A-Za-z_][A-Za-z0-9_]*`) is a parameter, and an
/// unbound one is an error at its line; `$` before any other character
/// is literal text inside a quoted literal and an error at its line
/// outside one. `--` comments outside a quoted literal are copied
/// untouched, and a value is never rescanned. A value holding `'`
/// may not land inside a quoted literal, whose end it would move.
fn substitute(source: &str, params: &HashMap<String, String>) -> Result<String, ParseError> {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut copied = 0;
    let mut line = 1;
    let mut quoted = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                // A literal ends at its line; the lexer reports it.
                line += 1;
                quoted = false;
                i += 1;
            }
            b'-' if !quoted && bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                quoted = !quoted;
                i += 1;
            }
            b'$' if bytes
                .get(i + 1)
                .is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_') =>
            {
                let end = bytes[i + 1..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .map_or(bytes.len(), |len| i + 1 + len);
                let name = &source[i + 1..end];
                let Some(value) = params.get(name) else {
                    return Err(ParseError {
                        line,
                        message: format!("unbound parameter ${name}"),
                    });
                };
                if quoted && value.contains('\'') {
                    return Err(ParseError {
                        line,
                        message: format!("parameter ${name} puts a quote inside a quoted literal"),
                    });
                }
                out.push_str(&source[copied..i]);
                out.push_str(value);
                copied = end;
                i = end;
            }
            b'$' if !quoted => {
                return Err(ParseError {
                    line,
                    message: "'$' outside a quoted literal must start a parameter name".into(),
                });
            }
            _ => i += 1,
        }
    }
    out.push_str(&source[copied..]);
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t.map(|t| t.kind)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        match self.next() {
            Some(k) if &k == kind => Ok(()),
            Some(k) => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected {kind}, found {k}"),
            }),
            None => Err(self.err(format!("expected {kind}, found end of input"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(TokenKind::Ident(s)) => Ok(s),
            Some(k) => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected identifier, found {k}"),
            }),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let id = self.ident()?;
        if id.eq_ignore_ascii_case(kw) {
            Ok(())
        } else {
            Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected keyword {kw}, found {id}"),
            })
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(TokenKind::Str(s)) => Ok(s),
            Some(k) => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected string literal, found {k}"),
            }),
            None => Err(self.err("expected string literal, found end of input")),
        }
    }

    fn script(mut self) -> Result<Script, ParseError> {
        let mut statements = Vec::new();
        while self.peek().is_some() {
            statements.push(self.statement()?);
        }
        Ok(Script { statements })
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.peek_keyword("STORE") {
            self.keyword("STORE")?;
            let alias = self.ident()?;
            self.keyword("INTO")?;
            let path = self.string()?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Statement::Store { alias, path });
        }
        let alias = self.ident()?;
        self.expect(&TokenKind::Equals)?;
        let op = if self.peek_keyword("LOAD") {
            self.load()?
        } else if self.peek_keyword("FOREACH") {
            self.foreach()?
        } else if self.peek_keyword("GROUP") {
            self.group()?
        } else {
            let found = self
                .peek()
                .map_or("end of input".into(), ToString::to_string);
            return Err(self.err(format!("expected LOAD, FOREACH or GROUP, found {found}")));
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Statement::Assign { alias, op })
    }

    fn load(&mut self) -> Result<Operator, ParseError> {
        self.keyword("LOAD")?;
        let path = self.string()?;
        let loader = if self.peek_keyword("USING") {
            self.keyword("USING")?;
            Some(self.ident()?)
        } else {
            None
        };
        let schema = if self.peek_keyword("AS") {
            self.keyword("AS")?;
            self.schema()?
        } else {
            Vec::new()
        };
        Ok(Operator::Load {
            path,
            loader,
            schema,
        })
    }

    fn foreach(&mut self) -> Result<Operator, ParseError> {
        self.keyword("FOREACH")?;
        let input = self.ident()?;
        self.keyword("GENERATE")?;
        let mut items = vec![self.gen_item()?];
        while matches!(self.peek(), Some(TokenKind::Comma)) {
            self.expect(&TokenKind::Comma)?;
            items.push(self.gen_item()?);
        }
        Ok(Operator::Foreach { input, items })
    }

    fn gen_item(&mut self) -> Result<GenItem, ParseError> {
        let flatten = self.peek_keyword("FLATTEN");
        let expr = if flatten {
            self.keyword("FLATTEN")?;
            self.expect(&TokenKind::LParen)?;
            let e = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            e
        } else {
            self.expr()?
        };
        let schema = if self.peek_keyword("AS") {
            self.keyword("AS")?;
            self.schema()?
        } else {
            Vec::new()
        };
        Ok(GenItem {
            expr,
            flatten,
            schema,
        })
    }

    fn group(&mut self) -> Result<Operator, ParseError> {
        self.keyword("GROUP")?;
        let input = self.ident()?;
        if self.peek_keyword("ALL") {
            self.keyword("ALL")?;
            Ok(Operator::Group {
                input,
                by: GroupBy::All,
            })
        } else {
            self.keyword("BY")?;
            let field = self.ident()?;
            Ok(Operator::Group {
                input,
                by: GroupBy::Field(field),
            })
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(TokenKind::Int(v)) => Ok(Expr::LitLong(v)),
            Some(TokenKind::Float(v)) => Ok(Expr::LitDouble(v)),
            Some(TokenKind::Str(s)) => Ok(Expr::LitString(s)),
            Some(TokenKind::Ident(name)) => match self.peek() {
                Some(TokenKind::LParen) => {
                    self.expect(&TokenKind::LParen)?;
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(TokenKind::RParen)) {
                        args.push(self.expr()?);
                        while matches!(self.peek(), Some(TokenKind::Comma)) {
                            self.expect(&TokenKind::Comma)?;
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Udf { name, args })
                }
                Some(TokenKind::Dot) => {
                    self.expect(&TokenKind::Dot)?;
                    let field = self.ident()?;
                    Ok(Expr::Dotted {
                        relation: name,
                        field,
                    })
                }
                _ => Ok(Expr::Field(name)),
            },
            Some(k) => Err(ParseError {
                line: self.tokens[self.pos - 1].line,
                message: format!("expected expression, found {k}"),
            }),
            None => Err(self.err("expected expression, found end of input")),
        }
    }

    fn schema(&mut self) -> Result<Vec<FieldDecl>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut fields = vec![self.field_decl()?];
        while matches!(self.peek(), Some(TokenKind::Comma)) {
            self.expect(&TokenKind::Comma)?;
            fields.push(self.field_decl()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(fields)
    }

    fn field_decl(&mut self) -> Result<FieldDecl, ParseError> {
        let name = self.ident()?;
        let ty = if matches!(self.peek(), Some(TokenKind::Colon)) {
            self.expect(&TokenKind::Colon)?;
            Some(self.ident()?)
        } else {
            None
        };
        Ok(FieldDecl { name, ty })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Script {
        parse_script(src, &HashMap::new()).unwrap()
    }

    #[test]
    fn parses_load_with_loader_and_schema() {
        let s = parse("A = LOAD 'in.fa' USING FastaStorage AS (readid:chararray, d:int, seq:bytearray, header:chararray);");
        match &s.statements[0] {
            Statement::Assign {
                alias,
                op:
                    Operator::Load {
                        path,
                        loader,
                        schema,
                    },
            } => {
                assert_eq!(alias, "A");
                assert_eq!(path, "in.fa");
                assert_eq!(loader.as_deref(), Some("FastaStorage"));
                assert_eq!(schema.len(), 4);
                assert_eq!(schema[0].name, "readid");
                assert_eq!(schema[0].ty.as_deref(), Some("chararray"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_foreach_flatten_udf() {
        let s = parse(
            "B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid)) AS (seq:chararray, seqid:chararray);",
        );
        match &s.statements[0] {
            Statement::Assign {
                op: Operator::Foreach { input, items },
                ..
            } => {
                assert_eq!(input, "A");
                assert_eq!(items.len(), 1);
                assert!(items[0].flatten);
                match &items[0].expr {
                    Expr::Udf { name, args } => {
                        assert_eq!(name, "StringGenerator");
                        assert_eq!(
                            args,
                            &vec![Expr::Field("seq".into()), Expr::Field("readid".into())]
                        );
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_group_all_and_by() {
        let s = parse("I = GROUP F ALL; G = GROUP F BY seqid;");
        assert_eq!(
            s.statements[0],
            Statement::Assign {
                alias: "I".into(),
                op: Operator::Group {
                    input: "F".into(),
                    by: GroupBy::All
                }
            }
        );
        assert_eq!(
            s.statements[1],
            Statement::Assign {
                alias: "G".into(),
                op: Operator::Group {
                    input: "F".into(),
                    by: GroupBy::Field("seqid".into())
                }
            }
        );
    }

    #[test]
    fn parses_store() {
        let s = parse("STORE K INTO '/out1';");
        assert_eq!(
            s.statements[0],
            Statement::Store {
                alias: "K".into(),
                path: "/out1".into()
            }
        );
    }

    #[test]
    fn parses_dotted_reference_and_numeric_args() {
        let s = parse("J = FOREACH F GENERATE FLATTEN(CalcSim(minwise, I.F, 100, 0.95));");
        match &s.statements[0] {
            Statement::Assign {
                op: Operator::Foreach { items, .. },
                ..
            } => match &items[0].expr {
                Expr::Udf { args, .. } => {
                    assert_eq!(
                        args[1],
                        Expr::Dotted {
                            relation: "I".into(),
                            field: "F".into()
                        }
                    );
                    assert_eq!(args[2], Expr::LitLong(100));
                    assert_eq!(args[3], Expr::LitDouble(0.95));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn param_substitution() {
        let mut params = HashMap::new();
        params.insert("INPUT".to_string(), "/data/x.fa".to_string());
        params.insert("KMER".to_string(), "5".to_string());
        let s = parse_script(
            "A = LOAD '$INPUT'; C = FOREACH A GENERATE FLATTEN(K(seq, $KMER));",
            &params,
        )
        .unwrap();
        match &s.statements[0] {
            Statement::Assign {
                op: Operator::Load { path, .. },
                ..
            } => {
                assert_eq!(path, "/data/x.fa")
            }
            other => panic!("unexpected {other:?}"),
        }
        match &s.statements[1] {
            Statement::Assign {
                op: Operator::Foreach { items, .. },
                ..
            } => match &items[0].expr {
                Expr::Udf { args, .. } => assert_eq!(args[1], Expr::LitLong(5)),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbound_param_is_error() {
        let err = parse_script("A = LOAD '$NOPE';", &HashMap::new()).unwrap_err();
        assert!(err.message.contains("unbound parameter"), "{err}");
    }

    fn params(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// The path of each `LOAD` in `source`, parsed under `pairs`.
    fn load_paths(source: &str, pairs: &[(&str, &str)]) -> Vec<String> {
        parse_script(source, &params(pairs))
            .unwrap()
            .statements
            .into_iter()
            .filter_map(|s| match s {
                Statement::Assign {
                    op: Operator::Load { path, .. },
                    ..
                } => Some(path),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn param_in_comment_is_copied_untouched() {
        let src = "-- costs $5; see $NOPE and 'don't'\nA = LOAD 'x'; -- $ALSO\n";
        assert_eq!(load_paths(src, &[]), ["x"]);
    }

    #[test]
    fn param_is_a_whole_identifier() {
        let pairs = [("IN", "/a"), ("INPUT", "/b")];
        let src = "A = LOAD '$INPUT'; B = LOAD '$IN'; C = LOAD '$IN.fa';";
        assert_eq!(load_paths(src, &pairs), ["/b", "/a", "/a.fa"]);
        let err = parse_script("A = LOAD '$INPUTX';", &params(&pairs)).unwrap_err();
        assert_eq!(err.message, "unbound parameter $INPUTX");
    }

    #[test]
    fn unbound_param_names_itself_at_its_line() {
        let src = "A = LOAD 'x';\n\nB = FOREACH A GENERATE K(seq, $NOPE);\n";
        let err = parse_script(src, &HashMap::new()).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (3, "unbound parameter $NOPE")
        );
        let err = parse_script("A = LOAD 'x';\nB = LOAD 'x$y';", &HashMap::new()).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "unbound parameter $y")
        );
    }

    #[test]
    fn dollar_before_a_non_identifier_is_literal() {
        assert_eq!(
            load_paths("A = LOAD 'costs $5, $ and $';", &[]),
            ["costs $5, $ and $"]
        );
    }

    #[test]
    fn dollar_before_a_non_identifier_outside_a_literal_is_error() {
        for (src, line) in [
            ("A = LOAD 'x';\nB = FOREACH A GENERATE $0;", 2),
            ("A = LOAD 'x' AS ($);", 1),
        ] {
            let err = parse_script(src, &HashMap::new()).unwrap_err();
            assert_eq!(err.line, line, "{src}");
            assert!(err.message.contains("'$'"), "{err}");
        }
    }

    #[test]
    fn param_values_are_not_rescanned() {
        let pairs = [("A", "$B"), ("B", "/b")];
        assert_eq!(
            load_paths("A = LOAD '$A'; B = LOAD '$B';", &pairs),
            ["$B", "/b"]
        );
    }

    #[test]
    fn quote_in_value_inside_a_literal_is_error() {
        let pairs = [("IN", "a'b")];
        let err = parse_script("A = LOAD 'x';\nB = LOAD '$IN';", &params(&pairs)).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains("$IN"), "{err}");
        assert!(!err.message.contains("unterminated"), "{err}");
        // Outside a literal a value may bring its own quotes.
        let pairs = [("P", "'/q'")];
        assert_eq!(load_paths("A = LOAD $P;", &pairs), ["/q"]);
    }

    #[test]
    fn keywords_case_insensitive() {
        let s = parse("a = load 'x'; store a into 'y';");
        assert_eq!(s.statements.len(), 2);
    }

    #[test]
    fn missing_semicolon_is_error() {
        assert!(parse_script("A = LOAD 'x'", &HashMap::new()).is_err());
    }

    #[test]
    fn statements_outside_algorithm3_are_positioned_errors() {
        for stmt in [
            "B = FILTER A BY keep;",
            "B = DISTINCT A;",
            "B = ORDER A BY f0 DESC;",
            "B = LIMIT A 2;",
        ] {
            let src = format!("A = LOAD 'x';\n\n{stmt}\nSTORE B INTO 'y';\n");
            let err = parse_script(&src, &HashMap::new()).unwrap_err();
            assert_eq!(err.line, 3, "{stmt}: {err}");
            assert!(
                err.message
                    .starts_with("expected LOAD, FOREACH or GROUP, found "),
                "{stmt}: {err}"
            );
        }
        for op in ["==", "!=", "<", ">="] {
            let src = format!("A = LOAD 'x';\nB = FOREACH A GENERATE f0 {op} 1;\n");
            let err = crate::lexer::lex(&src).unwrap_err();
            assert_eq!(err.line, 2, "{op}: {err}");
            assert!(err.message.contains(&op[..1]), "{op}: {err}");
            assert_eq!(parse_script(&src, &HashMap::new()).unwrap_err().line, 2);
        }
    }

    #[test]
    fn multiple_generate_items() {
        let s = parse("F = FOREACH E GENERATE FLATTEN(minwise), FLATTEN(seqid3);");
        match &s.statements[0] {
            Statement::Assign {
                op: Operator::Foreach { items, .. },
                ..
            } => {
                assert_eq!(items.len(), 2);
                assert!(items.iter().all(|i| i.flatten));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_algorithm3_script_parses() {
        let mut params = HashMap::new();
        for (k, v) in [
            ("INPUT", "/in.fa"),
            ("KMER", "5"),
            ("NUMHASH", "100"),
            ("DIV", "1048583"),
            ("LINK", "'average'"),
            ("CUTOFF", "0.95"),
            ("OUTPUT1", "/out/h"),
            ("OUTPUT2", "/out/g"),
        ] {
            params.insert(k.to_string(), v.to_string());
        }
        let script = r#"
            A = LOAD '$INPUT' USING FastaStorage AS (readid:chararray, d:int, seq:bytearray, header:chararray);
            B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid)) AS (seq:chararray, seqid:chararray);
            C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, $KMER)) AS (seqkmer:long, seqid2:chararray);
            E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, $NUMHASH, $DIV)) AS (minwise:long, seqid3:chararray);
            F = FOREACH E GENERATE FLATTEN(minwise), FLATTEN(seqid3);
            I = GROUP F ALL;
            J = FOREACH F GENERATE FLATTEN(CalculatePairwiseSimilarity(minwise, I.F)) AS (similaritymatrix:double);
            K = FOREACH J GENERATE FLATTEN(AgglomerativeHierarchicalClustering(similaritymatrix, $LINK, $NUMHASH, $CUTOFF)) AS (clusterlabel:int);
            L = FOREACH I GENERATE FLATTEN(GreedyClustering(I.F, $NUMHASH, $CUTOFF)) AS (clusterlabel:int);
            STORE K INTO '$OUTPUT1';
            STORE L INTO '$OUTPUT2';
        "#;
        let s = parse_script(script, &params).unwrap();
        assert_eq!(s.statements.len(), 11);
    }
}

//! Prolog tokenizer.
//!
//! Produces a flat token stream with source positions.  The token set covers
//! what the ICPP'88 benchmarks and the CGE annotation syntax need: atoms
//! (identifier, quoted and symbolic), variables, integers, punctuation, the
//! clause terminator, and comments (`%` line comments and `/* ... */`).

use crate::error::{FrontError, FrontResult};
use crate::term::INT_MAX;

/// The kind of a lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An atom name (unquoted identifier, quoted atom or symbolic atom).
    Atom(String),
    /// A variable name (starts with an uppercase letter or `_`).
    Var(String),
    /// An integer literal.
    Int(i64),
    /// `(` that immediately follows an atom with no intervening layout —
    /// i.e. the opening of a compound term's argument list.
    OpenCall,
    /// `(` used for grouping.
    Open,
    /// `)`
    Close,
    /// `[`
    OpenList,
    /// `]`
    CloseList,
    /// `,`
    Comma,
    /// `|`
    Bar,
    /// `!`
    Cut,
    /// End of clause: `.` followed by layout or end of input.
    End,
}

/// A token together with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: usize,
    pub column: usize,
}

/// True for characters that can form symbolic atoms such as `=..`, `=<`, `->`.
fn is_symbol_char(c: char) -> bool {
    matches!(
        c,
        '+' | '-' | '*' | '/' | '\\' | '^' | '<' | '>' | '=' | '~' | ':' | '.' | '?' | '@' | '#' | '&' | '$'
    )
}

/// Tokenize a complete source string.
pub fn tokenize(src: &str) -> FrontResult<Vec<Token>> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    column: usize,
    src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { chars: src.chars().collect(), pos: 0, line: 1, column: 1, src }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn error(&self, msg: impl Into<String>) -> FrontError {
        FrontError::new(msg, self.line, self.column)
    }

    fn run(mut self) -> FrontResult<Vec<Token>> {
        let mut out = Vec::new();
        // True when the previous token was an atom/var and no layout has been
        // seen since; used to classify `(` as OpenCall.
        let mut adjacent_to_name = false;
        while let Some(c) = self.peek() {
            let (line, column) = (self.line, self.column);
            if c.is_whitespace() {
                self.bump();
                adjacent_to_name = false;
                continue;
            }
            if c == '%' {
                while let Some(c) = self.peek() {
                    if c == '\n' {
                        break;
                    }
                    self.bump();
                }
                adjacent_to_name = false;
                continue;
            }
            if c == '/' && self.peek2() == Some('*') {
                self.bump();
                self.bump();
                loop {
                    match self.bump() {
                        Some('*') if self.peek() == Some('/') => {
                            self.bump();
                            break;
                        }
                        Some(_) => {}
                        None => return Err(self.error("unterminated block comment")),
                    }
                }
                adjacent_to_name = false;
                continue;
            }

            let kind = if c.is_ascii_digit() {
                adjacent_to_name = false;
                TokenKind::Int(self.lex_integer()?)
            } else if c == '_' || c.is_uppercase() {
                adjacent_to_name = true;
                TokenKind::Var(self.lex_name())
            } else if c.is_lowercase() {
                adjacent_to_name = true;
                TokenKind::Atom(self.lex_name())
            } else if c == '\'' {
                adjacent_to_name = true;
                TokenKind::Atom(self.lex_quoted()?)
            } else if c == '(' {
                self.bump();
                let k = if adjacent_to_name { TokenKind::OpenCall } else { TokenKind::Open };
                adjacent_to_name = false;
                k
            } else if c == ')' {
                self.bump();
                adjacent_to_name = false;
                TokenKind::Close
            } else if c == '[' {
                self.bump();
                adjacent_to_name = false;
                TokenKind::OpenList
            } else if c == ']' {
                self.bump();
                adjacent_to_name = true; // `[]` may be followed by nothing special
                TokenKind::CloseList
            } else if c == ',' {
                self.bump();
                adjacent_to_name = false;
                TokenKind::Comma
            } else if c == '|' {
                self.bump();
                adjacent_to_name = false;
                TokenKind::Bar
            } else if c == '!' {
                self.bump();
                adjacent_to_name = false;
                TokenKind::Cut
            } else if c == ';' {
                self.bump();
                adjacent_to_name = false;
                TokenKind::Atom(";".to_string())
            } else if is_symbol_char(c) {
                // `.` terminates a clause when followed by layout or EOF.
                if c == '.' {
                    let next = self.peek2();
                    if next.is_none() || next.map(|n| n.is_whitespace() || n == '%').unwrap_or(false) {
                        self.bump();
                        adjacent_to_name = false;
                        out.push(Token { kind: TokenKind::End, line, column });
                        continue;
                    }
                }
                adjacent_to_name = true;
                TokenKind::Atom(self.lex_symbolic())
            } else {
                return Err(self.error(format!("unexpected character {c:?}")));
            };
            out.push(Token { kind, line, column });
        }
        let _ = self.src;
        Ok(out)
    }

    fn lex_integer(&mut self) -> FrontResult<i64> {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match s.parse::<i64>() {
            Ok(n) if n <= INT_MAX => Ok(n),
            _ => Err(self.error(format!("integer literal out of range: {s}"))),
        }
    }

    fn lex_name(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn lex_symbolic(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if is_symbol_char(c) {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn lex_quoted(&mut self) -> FrontResult<String> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('\'') => {
                    if self.peek() == Some('\'') {
                        s.push('\'');
                        self.bump();
                    } else {
                        return Ok(s);
                    }
                }
                Some('\\') => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('\\') => s.push('\\'),
                    Some('\'') => s.push('\''),
                    Some(other) => s.push(other),
                    None => return Err(self.error("unterminated quoted atom")),
                },
                Some(c) => s.push(c),
                None => return Err(self.error("unterminated quoted atom")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_fact() {
        assert_eq!(
            kinds("foo(bar, 42)."),
            vec![
                TokenKind::Atom("foo".into()),
                TokenKind::OpenCall,
                TokenKind::Atom("bar".into()),
                TokenKind::Comma,
                TokenKind::Int(42),
                TokenKind::Close,
                TokenKind::End,
            ]
        );
    }

    #[test]
    fn variables_and_anonymous() {
        assert_eq!(
            kinds("X _Y _"),
            vec![TokenKind::Var("X".into()), TokenKind::Var("_Y".into()), TokenKind::Var("_".into()),]
        );
    }

    #[test]
    fn symbolic_atoms_and_end() {
        assert_eq!(
            kinds("X =< Y."),
            vec![
                TokenKind::Var("X".into()),
                TokenKind::Atom("=<".into()),
                TokenKind::Var("Y".into()),
                TokenKind::End,
            ]
        );
    }

    #[test]
    fn neck_is_a_symbolic_atom() {
        assert_eq!(
            kinds("a :- b."),
            vec![
                TokenKind::Atom("a".into()),
                TokenKind::Atom(":-".into()),
                TokenKind::Atom("b".into()),
                TokenKind::End,
            ]
        );
    }

    #[test]
    fn grouping_paren_vs_call_paren() {
        let k = kinds("f(X), (a & b)");
        assert_eq!(k[1], TokenKind::OpenCall);
        assert!(k.contains(&TokenKind::Open));
    }

    #[test]
    fn list_and_bar() {
        assert_eq!(
            kinds("[H|T]"),
            vec![
                TokenKind::OpenList,
                TokenKind::Var("H".into()),
                TokenKind::Bar,
                TokenKind::Var("T".into()),
                TokenKind::CloseList,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a. % line comment\n/* block\ncomment */ b."),
            vec![TokenKind::Atom("a".into()), TokenKind::End, TokenKind::Atom("b".into()), TokenKind::End,]
        );
    }

    #[test]
    fn quoted_atoms() {
        assert_eq!(
            kinds("'hello world' 'it''s'"),
            vec![TokenKind::Atom("hello world".into()), TokenKind::Atom("it's".into())]
        );
    }

    #[test]
    fn cut_token() {
        assert_eq!(kinds("!, a"), vec![TokenKind::Cut, TokenKind::Comma, TokenKind::Atom("a".into())]);
    }

    #[test]
    fn dot_inside_symbolic_atom_is_not_end() {
        // `=..` is a single symbolic atom, not a clause terminator.
        assert_eq!(
            kinds("X =.. L."),
            vec![
                TokenKind::Var("X".into()),
                TokenKind::Atom("=..".into()),
                TokenKind::Var("L".into()),
                TokenKind::End,
            ]
        );
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        assert!(tokenize("/* never closed").is_err());
    }

    #[test]
    fn huge_integer_is_an_error() {
        assert!(tokenize("99999999999999999999999999").is_err());
    }

    #[test]
    fn integers_stop_at_int_max() {
        assert_eq!(kinds("4611686018427387903"), [TokenKind::Int(INT_MAX)]);
        let err = tokenize("4611686018427387904").unwrap_err();
        assert!(err.to_string().contains("integer literal out of range"), "{err}");
        assert!(tokenize("9223372036854775807").is_err());
    }
}

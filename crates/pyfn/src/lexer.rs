//! Indentation-aware tokenizer for the pyfn language.
//!
//! Follows CPython's model: leading whitespace at the start of a logical
//! line produces `Indent`/`Dedent` tokens against a stack of indentation
//! levels; blank lines and comment-only lines are skipped; parentheses and
//! brackets implicitly join lines.

use std::fmt;

/// A lexical token with its source line (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// Token kind and payload.
    pub(crate) kind: Tok,
    /// 1-based source line.
    pub(crate) line: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    // Layout
    Indent,
    Dedent,
    Newline,
    EndOfFile,
    // Literals and names
    Int(i64),
    Float(f64),
    Str(String),
    Name(String),
    // Keywords
    Def,
    Return,
    If,
    Elif,
    Else,
    While,
    For,
    In,
    Break,
    Continue,
    Pass,
    And,
    Or,
    Not,
    NoneKw,
    True,
    False,
    Raise,
    // Operators and punctuation
    Plus,
    Minus,
    Star,
    DoubleStar,
    Slash,
    DoubleSlash,
    Percent,
    Eq, // =
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Dot,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Indent => write!(f, "<indent>"),
            Tok::Dedent => write!(f, "<dedent>"),
            Tok::Newline => write!(f, "<newline>"),
            Tok::EndOfFile => write!(f, "<eof>"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::Name(n) => write!(f, "{n}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// Tokenize `source`. Errors are formatted messages with line numbers.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, String> {
    let mut tokens = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    let mut paren_depth = 0usize;

    let lines: Vec<&str> = source.split('\n').collect();
    let mut lineno = 0usize;

    while lineno < lines.len() {
        let raw = lines[lineno];
        lineno += 1;
        let line_number = lineno;

        // Skip blank / comment-only lines entirely (no NEWLINE token).
        let trimmed = raw.trim_start();
        if paren_depth == 0 && (trimmed.is_empty() || trimmed.starts_with('#')) {
            continue;
        }

        // Indentation handling only applies outside brackets.
        if paren_depth == 0 {
            let indent = raw.len() - trimmed.len();
            if raw[..indent].contains('\t') {
                return Err(format!(
                    "line {line_number}: tabs are not allowed in indentation"
                ));
            }
            let current = *indents.last().unwrap();
            if indent > current {
                indents.push(indent);
                tokens.push(Token {
                    kind: Tok::Indent,
                    line: line_number,
                });
            } else if indent < current {
                while *indents.last().unwrap() > indent {
                    indents.pop();
                    tokens.push(Token {
                        kind: Tok::Dedent,
                        line: line_number,
                    });
                }
                if *indents.last().unwrap() != indent {
                    return Err(format!("line {line_number}: inconsistent dedent"));
                }
            }
        }

        // Tokenize the line content.
        let mut chars = raw.char_indices().peekable();
        // Skip leading whitespace (already accounted in indentation).
        while let Some(&(_, c)) = chars.peek() {
            if c == ' ' {
                chars.next();
            } else {
                break;
            }
        }

        let mut produced_any = false;
        while let Some(&(i, c)) = chars.peek() {
            match c {
                ' ' => {
                    chars.next();
                }
                '#' => break, // comment to end of line
                '(' | '[' | '{' => {
                    paren_depth += 1;
                    tokens.push(Token {
                        kind: match c {
                            '(' => Tok::LParen,
                            '[' => Tok::LBracket,
                            _ => Tok::LBrace,
                        },
                        line: line_number,
                    });
                    chars.next();
                    produced_any = true;
                }
                ')' | ']' | '}' => {
                    if paren_depth == 0 {
                        return Err(format!("line {line_number}: unmatched '{c}'"));
                    }
                    paren_depth -= 1;
                    tokens.push(Token {
                        kind: match c {
                            ')' => Tok::RParen,
                            ']' => Tok::RBracket,
                            _ => Tok::RBrace,
                        },
                        line: line_number,
                    });
                    chars.next();
                    produced_any = true;
                }
                '\'' | '"' => {
                    let quote = c;
                    chars.next();
                    let mut s = String::new();
                    let mut closed = false;
                    while let Some((_, c2)) = chars.next() {
                        match c2 {
                            '\\' => match chars.next() {
                                Some((_, 'n')) => s.push('\n'),
                                Some((_, 't')) => s.push('\t'),
                                Some((_, '\\')) => s.push('\\'),
                                Some((_, '\'')) => s.push('\''),
                                Some((_, '"')) => s.push('"'),
                                Some((_, other)) => {
                                    return Err(format!(
                                        "line {line_number}: unknown escape '\\{other}'"
                                    ))
                                }
                                None => {
                                    return Err(format!("line {line_number}: unterminated string"))
                                }
                            },
                            c2 if c2 == quote => {
                                closed = true;
                                break;
                            }
                            other => s.push(other),
                        }
                    }
                    if !closed {
                        return Err(format!("line {line_number}: unterminated string"));
                    }
                    tokens.push(Token {
                        kind: Tok::Str(s),
                        line: line_number,
                    });
                    produced_any = true;
                }
                c if c.is_ascii_digit() => {
                    let start = i;
                    let mut end = i;
                    let mut is_float = false;
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_ascii_digit() {
                            end = j + c2.len_utf8();
                            chars.next();
                        } else if c2 == '.' && !is_float {
                            // Lookahead: `.` followed by a digit makes a float;
                            // otherwise it's (e.g.) a method call on an int.
                            let mut ahead = chars.clone();
                            ahead.next();
                            if ahead.peek().is_some_and(|&(_, c3)| c3.is_ascii_digit()) {
                                is_float = true;
                                end = j + 1;
                                chars.next();
                            } else {
                                break;
                            }
                        } else {
                            break;
                        }
                    }
                    let text = &raw[start..end];
                    let kind = if is_float {
                        Tok::Float(
                            text.parse::<f64>()
                                .map_err(|e| format!("line {line_number}: bad float: {e}"))?,
                        )
                    } else {
                        Tok::Int(
                            text.parse::<i64>()
                                .map_err(|e| format!("line {line_number}: bad int: {e}"))?,
                        )
                    };
                    tokens.push(Token {
                        kind,
                        line: line_number,
                    });
                    produced_any = true;
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = i;
                    let mut end = i;
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_ascii_alphanumeric() || c2 == '_' {
                            end = j + c2.len_utf8();
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let word = &raw[start..end];
                    let kind = match word {
                        "def" => Tok::Def,
                        "return" => Tok::Return,
                        "if" => Tok::If,
                        "elif" => Tok::Elif,
                        "else" => Tok::Else,
                        "while" => Tok::While,
                        "for" => Tok::For,
                        "in" => Tok::In,
                        "break" => Tok::Break,
                        "continue" => Tok::Continue,
                        "pass" => Tok::Pass,
                        "and" => Tok::And,
                        "or" => Tok::Or,
                        "not" => Tok::Not,
                        "None" => Tok::NoneKw,
                        "True" => Tok::True,
                        "False" => Tok::False,
                        "raise" => Tok::Raise,
                        _ => Tok::Name(word.to_string()),
                    };
                    tokens.push(Token {
                        kind,
                        line: line_number,
                    });
                    produced_any = true;
                }
                _ => {
                    chars.next();
                    let next_c = chars.peek().map(|&(_, c2)| c2);
                    let two = |next: char| -> bool { next_c == Some(next) };
                    let kind = match c {
                        '+' => {
                            if two('=') {
                                chars.next();
                                Tok::PlusEq
                            } else {
                                Tok::Plus
                            }
                        }
                        '-' => {
                            if two('=') {
                                chars.next();
                                Tok::MinusEq
                            } else {
                                Tok::Minus
                            }
                        }
                        '*' => {
                            if two('*') {
                                chars.next();
                                Tok::DoubleStar
                            } else if two('=') {
                                chars.next();
                                Tok::StarEq
                            } else {
                                Tok::Star
                            }
                        }
                        '/' => {
                            if two('/') {
                                chars.next();
                                Tok::DoubleSlash
                            } else if two('=') {
                                chars.next();
                                Tok::SlashEq
                            } else {
                                Tok::Slash
                            }
                        }
                        '%' => Tok::Percent,
                        '=' => {
                            if two('=') {
                                chars.next();
                                Tok::EqEq
                            } else {
                                Tok::Eq
                            }
                        }
                        '!' => {
                            if two('=') {
                                chars.next();
                                Tok::NotEq
                            } else {
                                return Err(format!("line {line_number}: unexpected '!'"));
                            }
                        }
                        '<' => {
                            if two('=') {
                                chars.next();
                                Tok::Le
                            } else {
                                Tok::Lt
                            }
                        }
                        '>' => {
                            if two('=') {
                                chars.next();
                                Tok::Ge
                            } else {
                                Tok::Gt
                            }
                        }
                        ',' => Tok::Comma,
                        ':' => Tok::Colon,
                        '.' => Tok::Dot,
                        other => {
                            return Err(format!(
                                "line {line_number}: unexpected character '{other}'"
                            ))
                        }
                    };
                    tokens.push(Token {
                        kind,
                        line: line_number,
                    });
                    produced_any = true;
                }
            }
        }

        if paren_depth == 0 && produced_any {
            tokens.push(Token {
                kind: Tok::Newline,
                line: line_number,
            });
        }
    }

    if paren_depth != 0 {
        return Err("unexpected end of input inside brackets".into());
    }
    let last_line = lines.len();
    while indents.len() > 1 {
        indents.pop();
        tokens.push(Token {
            kind: Tok::Dedent,
            line: last_line,
        });
    }
    tokens.push(Token {
        kind: Tok::EndOfFile,
        line: last_line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_expression_line() {
        assert_eq!(
            kinds("x = 1 + 2\n"),
            vec![
                Tok::Name("x".into()),
                Tok::Eq,
                Tok::Int(1),
                Tok::Plus,
                Tok::Int(2),
                Tok::Newline,
                Tok::EndOfFile
            ]
        );
    }

    #[test]
    fn indentation_produces_indent_dedent() {
        let toks = kinds("def f():\n    return 1\n");
        assert!(toks.contains(&Tok::Indent));
        assert!(toks.contains(&Tok::Dedent));
        let ipos = toks.iter().position(|t| *t == Tok::Indent).unwrap();
        let dpos = toks.iter().position(|t| *t == Tok::Dedent).unwrap();
        assert!(ipos < dpos);
    }

    #[test]
    fn nested_indentation() {
        let toks = kinds("def f():\n    if 1:\n        return 2\n    return 3\n");
        let n_ind = toks.iter().filter(|t| **t == Tok::Indent).count();
        let n_ded = toks.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(n_ind, 2);
        assert_eq!(n_ded, 2);
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        let toks = kinds("x = 1\n\n# comment\n   \ny = 2\n");
        let newlines = toks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn trailing_comment_stripped() {
        assert_eq!(
            kinds("x = 1  # set x\n"),
            vec![
                Tok::Name("x".into()),
                Tok::Eq,
                Tok::Int(1),
                Tok::Newline,
                Tok::EndOfFile
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds(r#"s = 'a\n"b"' + "c'd""#),
            vec![
                Tok::Name("s".into()),
                Tok::Eq,
                Tok::Str("a\n\"b\"".into()),
                Tok::Plus,
                Tok::Str("c'd".into()),
                Tok::Newline,
                Tok::EndOfFile
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 10\n")[..3],
            [Tok::Int(1), Tok::Float(2.5), Tok::Int(10)]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a // b ** c != d <= e\n")[..9],
            [
                Tok::Name("a".into()),
                Tok::DoubleSlash,
                Tok::Name("b".into()),
                Tok::DoubleStar,
                Tok::Name("c".into()),
                Tok::NotEq,
                Tok::Name("d".into()),
                Tok::Le,
                Tok::Name("e".into()),
            ]
        );
    }

    #[test]
    fn augmented_assignment() {
        assert_eq!(
            kinds("x += 1\ny *= 2\n")[..3],
            [Tok::Name("x".into()), Tok::PlusEq, Tok::Int(1)]
        );
    }

    #[test]
    fn implicit_line_join_inside_brackets() {
        let toks = kinds("f(1,\n  2,\n  3)\n");
        // One logical line → one Newline.
        assert_eq!(toks.iter().filter(|t| **t == Tok::Newline).count(), 1);
        assert!(!toks.contains(&Tok::Indent));
    }

    #[test]
    fn keywords_vs_names() {
        let toks = kinds("for item in items\n");
        assert_eq!(toks[0], Tok::For);
        assert_eq!(toks[1], Tok::Name("item".into()));
        assert_eq!(toks[2], Tok::In);
        assert_eq!(toks[3], Tok::Name("items".into()));
    }

    #[test]
    fn errors() {
        assert!(lex("x = 'unterminated\n").is_err());
        assert!(lex("x = 1 @ 2\n").is_err());
        assert!(lex("\tx = 1\n").is_err());
        assert!(lex("x = (1\n").is_err());
        assert!(lex("x = 1)\n").is_err());
        assert!(
            lex("def f():\n    a = 1\n  b = 2\n").is_err(),
            "inconsistent dedent"
        );
        assert!(lex("x = ! y\n").is_err());
    }

    #[test]
    fn dot_after_int_is_method_not_float() {
        // `1 .x` style is weird, but `(1).bit` shape: ensure `x.append` works.
        let toks = kinds("xs.append(1)\n");
        assert_eq!(toks[0], Tok::Name("xs".into()));
        assert_eq!(toks[1], Tok::Dot);
        assert_eq!(toks[2], Tok::Name("append".into()));
    }

    #[test]
    fn eof_dedents_close_all_blocks() {
        let toks = kinds("def f():\n    if 1:\n        return 2");
        let n_ded = toks.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(n_ded, 2);
        assert_eq!(toks.last(), Some(&Tok::EndOfFile));
    }
}

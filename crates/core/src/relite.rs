//! `relite` — a small regular-expression engine.
//!
//! The identity-mapping configuration of multi-user endpoints uses "a simple
//! regular expression matching language" (§IV-A.2, Listing 8) to match
//! identity fields and extract capture groups. We implement the needed subset
//! from scratch (the `regex` crate is outside the allowed dependency set):
//!
//! - literals, `.` (any char), escaped metacharacters (`\.` etc.)
//! - character classes `[a-z0-9_]` and negated classes `[^...]`
//! - alternation `|` (top level and inside groups)
//! - capture groups `( ... )`
//! - quantifiers `*`, `+`, `?` (greedy, applied to the previous atom)
//! - anchors: patterns are **fully anchored** (match the whole input), like
//!   Python's `re.fullmatch`, which is the semantics the Globus identity
//!   mapper applies to the `match` field.
//! - case-insensitive matching via [`Regex::new_ci`] (the paper's "functions
//!   for common transformations (e.g., ignoring case)").
//!
//! Implementation: recursive-descent parse into an AST, then backtracking
//! matching with capture tracking. Inputs are the short strings of identity
//! documents, so worst-case backtracking is acceptable; a recursion-depth
//! cap guards against pathological patterns.

use crate::error::{GcxError, GcxResult};

/// A compiled pattern.
#[derive(Debug, Clone)]
pub struct Regex {
    root: Node,
    case_insensitive: bool,
    n_groups: usize,
}

/// The result of a successful match: the full text plus capture groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captures {
    /// `groups[i]` is capture group `i` (0-indexed as in the Globus mapping
    /// language, where `{0}` is the *first parenthesized group*).
    pub groups: Vec<Option<String>>,
}

#[derive(Debug, Clone)]
enum Node {
    Empty,
    Char(char),
    AnyChar,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Group(usize, Box<Node>),
    Concat(Vec<Node>),
    Alt(Vec<Node>),
    Repeat {
        node: Box<Node>,
        min: u32,
        max: Option<u32>,
    },
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    pattern: &'a str,
    group_count: usize,
}

impl<'a> Parser<'a> {
    fn new(pattern: &'a str) -> Self {
        Self {
            chars: pattern.chars().collect(),
            pos: 0,
            pattern,
            group_count: 0,
        }
    }

    fn err(&self, msg: &str) -> GcxError {
        GcxError::Parse(format!(
            "regex '{}': {msg} at offset {}",
            self.pattern, self.pos
        ))
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn parse_alt(&mut self, depth: usize) -> GcxResult<Node> {
        if depth > 64 {
            return Err(self.err("nesting too deep"));
        }
        let mut branches = vec![self.parse_concat(depth)?];
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.parse_concat(depth)?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Node::Alt(branches)
        })
    }

    fn parse_concat(&mut self, depth: usize) -> GcxResult<Node> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat(depth)?);
        }
        Ok(match items.len() {
            0 => Node::Empty,
            1 => items.pop().unwrap(),
            _ => Node::Concat(items),
        })
    }

    fn parse_repeat(&mut self, depth: usize) -> GcxResult<Node> {
        let atom = self.parse_atom(depth)?;
        match self.peek() {
            Some('*') => {
                self.bump();
                Ok(Node::Repeat {
                    node: Box::new(atom),
                    min: 0,
                    max: None,
                })
            }
            Some('+') => {
                self.bump();
                Ok(Node::Repeat {
                    node: Box::new(atom),
                    min: 1,
                    max: None,
                })
            }
            Some('?') => {
                self.bump();
                Ok(Node::Repeat {
                    node: Box::new(atom),
                    min: 0,
                    max: Some(1),
                })
            }
            _ => Ok(atom),
        }
    }

    fn parse_atom(&mut self, depth: usize) -> GcxResult<Node> {
        match self.bump() {
            None => Err(self.err("unexpected end of pattern")),
            Some('(') => {
                let idx = self.group_count;
                self.group_count += 1;
                let inner = self.parse_alt(depth + 1)?;
                if self.bump() != Some(')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(Node::Group(idx, Box::new(inner)))
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Node::AnyChar),
            Some('\\') => {
                let c = self.bump().ok_or_else(|| self.err("dangling escape"))?;
                match c {
                    'd' => Ok(Node::Class {
                        negated: false,
                        ranges: vec![('0', '9')],
                    }),
                    'w' => Ok(Node::Class {
                        negated: false,
                        ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                    }),
                    's' => Ok(Node::Class {
                        negated: false,
                        ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                    }),
                    'n' => Ok(Node::Char('\n')),
                    't' => Ok(Node::Char('\t')),
                    other => Ok(Node::Char(other)),
                }
            }
            Some(c @ ('*' | '+' | '?')) => {
                Err(self.err(&format!("quantifier '{c}' with nothing to repeat")))
            }
            Some(c) => Ok(Node::Char(c)),
        }
    }

    fn parse_class(&mut self) -> GcxResult<Node> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        loop {
            let c = match self.bump() {
                None => return Err(self.err("unclosed character class")),
                Some(']') if !ranges.is_empty() || negated => break,
                Some(']') => break, // empty class `[]` matches nothing
                Some('\\') => self.bump().ok_or_else(|| self.err("dangling escape"))?,
                Some(c) => c,
            };
            if self.peek() == Some('-') && self.chars.get(self.pos + 1).copied() != Some(']') {
                self.bump(); // the '-'
                let hi = match self.bump() {
                    None => return Err(self.err("unclosed character class")),
                    Some('\\') => self.bump().ok_or_else(|| self.err("dangling escape"))?,
                    Some(hi) => hi,
                };
                if hi < c {
                    return Err(self.err("invalid range"));
                }
                ranges.push((c, hi));
            } else {
                ranges.push((c, c));
            }
        }
        Ok(Node::Class { negated, ranges })
    }
}

struct Matcher<'t> {
    text: Vec<char>,
    ci: bool,
    caps: Vec<Option<(usize, usize)>>,
    steps: usize,
    budget: usize,
    _marker: std::marker::PhantomData<&'t ()>,
}

impl Matcher<'_> {
    fn char_eq(&self, a: char, b: char) -> bool {
        if self.ci {
            a.eq_ignore_ascii_case(&b)
        } else {
            a == b
        }
    }

    fn class_match(&self, negated: bool, ranges: &[(char, char)], c: char) -> bool {
        let probe = if self.ci { c.to_ascii_lowercase() } else { c };
        let hit = ranges.iter().any(|&(lo, hi)| {
            if self.ci {
                let lo = lo.to_ascii_lowercase();
                let hi = hi.to_ascii_lowercase();
                probe >= lo && probe <= hi || (c >= lo && c <= hi)
            } else {
                c >= lo && c <= hi
            }
        });
        hit != negated
    }

    /// Try to match `node` starting at `pos`; on success call `k` with the
    /// end position. Returns true if the continuation eventually succeeds.
    fn run(
        &mut self,
        node: &Node,
        pos: usize,
        k: &mut dyn FnMut(&mut Self, usize) -> bool,
    ) -> bool {
        self.steps += 1;
        if self.steps > self.budget {
            return false; // backtracking budget exhausted — treat as no match
        }
        match node {
            Node::Empty => k(self, pos),
            Node::Char(c) => {
                if pos < self.text.len() && self.char_eq(*c, self.text[pos]) {
                    k(self, pos + 1)
                } else {
                    false
                }
            }
            Node::AnyChar => {
                if pos < self.text.len() {
                    k(self, pos + 1)
                } else {
                    false
                }
            }
            Node::Class { negated, ranges } => {
                if pos < self.text.len() && self.class_match(*negated, ranges, self.text[pos]) {
                    k(self, pos + 1)
                } else {
                    false
                }
            }
            Node::Group(idx, inner) => {
                let idx = *idx;
                let saved = self.caps[idx];
                let inner = inner.clone();
                let ok = self.run(&inner, pos, &mut |m, end| {
                    let prev = m.caps[idx];
                    m.caps[idx] = Some((pos, end));
                    if k(m, end) {
                        true
                    } else {
                        m.caps[idx] = prev;
                        false
                    }
                });
                if !ok {
                    self.caps[idx] = saved;
                }
                ok
            }
            Node::Concat(items) => self.run_concat(items, pos, k),
            Node::Alt(branches) => {
                for b in branches {
                    if self.run(b, pos, k) {
                        return true;
                    }
                }
                false
            }
            Node::Repeat { node, min, max } => self.run_repeat(node, pos, *min, *max, 0, k),
        }
    }

    fn run_concat(
        &mut self,
        items: &[Node],
        pos: usize,
        k: &mut dyn FnMut(&mut Self, usize) -> bool,
    ) -> bool {
        match items.split_first() {
            None => k(self, pos),
            Some((head, tail)) => {
                let tail = tail.to_vec();
                self.run(head, pos, &mut |m, next| m.run_concat(&tail, next, k))
            }
        }
    }

    fn run_repeat(
        &mut self,
        node: &Node,
        pos: usize,
        min: u32,
        max: Option<u32>,
        done: u32,
        k: &mut dyn FnMut(&mut Self, usize) -> bool,
    ) -> bool {
        let can_more = max.is_none_or(|m| done < m);
        // Greedy: try one more repetition first.
        if can_more {
            let node2 = node.clone();
            let matched = self.run(node, pos, &mut |m, next| {
                if next == pos {
                    // Zero-width iteration: it can satisfy `min` (e.g. `()+`
                    // matches "") but must not loop — stop expanding here.
                    if done + 1 >= min {
                        k(m, next)
                    } else {
                        m.run_repeat(&node2, next, min, max, done + 1, k)
                    }
                } else {
                    m.run_repeat(&node2, next, min, max, done + 1, k)
                }
            });
            if matched {
                return true;
            }
        }
        if done >= min {
            k(self, pos)
        } else {
            false
        }
    }
}

impl Regex {
    /// Compile a case-sensitive pattern.
    pub fn new(pattern: &str) -> GcxResult<Self> {
        Self::compile(pattern, false)
    }

    /// Compile a case-insensitive pattern.
    pub fn new_ci(pattern: &str) -> GcxResult<Self> {
        Self::compile(pattern, true)
    }

    fn compile(pattern: &str, case_insensitive: bool) -> GcxResult<Self> {
        let mut p = Parser::new(pattern);
        let root = p.parse_alt(0)?;
        if p.pos != p.chars.len() {
            return Err(p.err("unexpected ')'"));
        }
        Ok(Self {
            root,
            case_insensitive,
            n_groups: p.group_count,
        })
    }

    /// Match the **entire** input (like `re.fullmatch`), returning captures
    /// on success.
    pub fn full_match(&self, text: &str) -> Option<Captures> {
        let chars: Vec<char> = text.chars().collect();
        let len = chars.len();
        let mut m = Matcher {
            text: chars,
            ci: self.case_insensitive,
            caps: vec![None; self.n_groups],
            steps: 0,
            budget: 200_000,
            _marker: std::marker::PhantomData,
        };
        let ok = m.run(&self.root, 0, &mut |_, end| end == len);
        if !ok {
            return None;
        }
        let text_chars: Vec<char> = text.chars().collect();
        let groups = m
            .caps
            .iter()
            .map(|span| span.map(|(s, e)| text_chars[s..e].iter().collect()))
            .collect();
        Some(Captures { groups })
    }

    /// Convenience: does the pattern match the whole input?
    pub fn is_full_match(&self, text: &str) -> bool {
        self.full_match(text).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(pat: &str, text: &str) -> Option<Vec<Option<String>>> {
        Regex::new(pat).unwrap().full_match(text).map(|c| c.groups)
    }

    #[test]
    fn literal_match_is_anchored() {
        assert!(Regex::new("abc").unwrap().is_full_match("abc"));
        assert!(!Regex::new("abc").unwrap().is_full_match("xabc"));
        assert!(!Regex::new("abc").unwrap().is_full_match("abcx"));
        assert!(!Regex::new("abc").unwrap().is_full_match("ab"));
    }

    #[test]
    fn listing8_identity_mapping_pattern() {
        // The paper's example: "(.*)@uchicago\\.edu" extracts the username.
        let re = Regex::new(r"(.*)@uchicago\.edu").unwrap();
        let c = re.full_match("kyle@uchicago.edu").unwrap();
        assert_eq!(c.groups[0].as_deref(), Some("kyle"));
        assert!(
            re.full_match("kyle@uchicagoXedu").is_none(),
            "escaped dot is literal"
        );
        assert!(re.full_match("kyle@anl.gov").is_none());
    }

    #[test]
    fn dot_and_classes() {
        assert!(Regex::new("a.c").unwrap().is_full_match("abc"));
        assert!(!Regex::new("a.c").unwrap().is_full_match("ac"));
        assert!(Regex::new("[a-z]+").unwrap().is_full_match("hello"));
        assert!(!Regex::new("[a-z]+").unwrap().is_full_match("Hello"));
        assert!(Regex::new("[^0-9]+").unwrap().is_full_match("abc"));
        assert!(!Regex::new("[^0-9]+").unwrap().is_full_match("a1c"));
        assert!(Regex::new(r"\d\d\d").unwrap().is_full_match("123"));
        assert!(Regex::new(r"\w+").unwrap().is_full_match("user_42"));
    }

    #[test]
    fn quantifiers() {
        assert!(Regex::new("ab*c").unwrap().is_full_match("ac"));
        assert!(Regex::new("ab*c").unwrap().is_full_match("abbbc"));
        assert!(!Regex::new("ab+c").unwrap().is_full_match("ac"));
        assert!(Regex::new("ab?c").unwrap().is_full_match("abc"));
        assert!(Regex::new("ab?c").unwrap().is_full_match("ac"));
        assert!(!Regex::new("ab?c").unwrap().is_full_match("abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::new("(foo|bar)-(baz|qux)").unwrap();
        assert_eq!(re.n_groups, 2);
        let c = re.full_match("bar-baz").unwrap();
        assert_eq!(c.groups[0].as_deref(), Some("bar"));
        assert_eq!(c.groups[1].as_deref(), Some("baz"));
        assert!(re.full_match("foo-").is_none());
    }

    #[test]
    fn greedy_with_backtracking() {
        // (.*)@(.*) on a@b@c — greedy first group takes a@b.
        let c = caps("(.*)@(.*)", "a@b@c").unwrap();
        assert_eq!(c[0].as_deref(), Some("a@b"));
        assert_eq!(c[1].as_deref(), Some("c"));
    }

    #[test]
    fn optional_group_is_none_when_unused() {
        let re = Regex::new("a(b)?c").unwrap();
        let c = re.full_match("ac").unwrap();
        assert_eq!(c.groups[0], None);
        let c = re.full_match("abc").unwrap();
        assert_eq!(c.groups[0].as_deref(), Some("b"));
    }

    #[test]
    fn case_insensitive() {
        let re = Regex::new_ci("(.*)@UChicago\\.EDU").unwrap();
        let c = re.full_match("Kyle@uchicago.edu").unwrap();
        assert_eq!(c.groups[0].as_deref(), Some("Kyle"));
        assert!(Regex::new_ci("[a-z]+").unwrap().is_full_match("MiXeD"));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("(abc").is_err());
        assert!(Regex::new("abc)").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a[z-a]").is_err());
        assert!(Regex::new("a\\").is_err());
    }

    #[test]
    fn zero_width_star_terminates() {
        // (a?)* on "b" must not loop forever.
        assert!(Regex::new("(a?)*b").unwrap().is_full_match("b"));
        assert!(Regex::new("(a?)*b").unwrap().is_full_match("aab"));
    }

    #[test]
    fn empty_pattern_matches_empty() {
        assert!(Regex::new("").unwrap().is_full_match(""));
        assert!(!Regex::new("").unwrap().is_full_match("x"));
    }

    #[test]
    fn unicode_text() {
        assert!(Regex::new(".+").unwrap().is_full_match("héllo"));
        let c = caps("(.*)@example\\.org", "ü.ser@example.org").unwrap();
        assert_eq!(c[0].as_deref(), Some("ü.ser"));
    }

    #[test]
    fn pathological_pattern_fails_safely() {
        // Classic exponential blowup; budget makes it return (no match) fast.
        let re = Regex::new("(a+)+b").unwrap();
        assert!(!re.is_full_match(&"a".repeat(40)));
    }
}

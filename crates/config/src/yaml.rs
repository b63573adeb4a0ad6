//! A mini-YAML parser.
//!
//! Covers the subset that Globus Compute endpoint configurations actually
//! use (Listings 5 and 9 of the paper):
//!
//! - indentation-nested maps (`key: value` / `key:` + indented block)
//! - block lists (`- item`, including maps inside list items)
//! - scalars: integers, floats, booleans (`true`/`false`), `null`/`~`,
//!   single- and double-quoted strings, and bare strings
//! - comments (`# …` to end of line) and blank lines
//! - inline flow lists `[a, b, c]` (one level, scalar elements)
//!
//! Deliberately *not* supported: anchors, aliases, multi-document streams,
//! block scalars, tabs for indentation. Tabs are a hard error — silently
//! treating a tab as one space is the classic YAML foot-gun.
//!
//! Parsed documents are [`gcx_core::Value`] trees. Configs are only ever
//! read, so there is no writer.

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::value::Value;

/// Parse a mini-YAML document into a [`Value`].
///
/// An empty (or comment-only) document parses to `Value::None`.
pub fn parse_yaml(text: &str) -> GcxResult<Value> {
    let lines = preprocess(text)?;
    if lines.is_empty() {
        return Ok(Value::None);
    }
    let mut p = BlockParser {
        lines: &lines,
        pos: 0,
    };
    let v = p.parse_block(lines[0].indent)?;
    if p.pos != lines.len() {
        let line = &lines[p.pos];
        return Err(GcxError::Parse(format!(
            "yaml: unexpected content at line {}: '{}'",
            line.number, line.content
        )));
    }
    Ok(v)
}

struct Line<'a> {
    indent: usize,
    content: &'a str,
    number: usize,
}

/// Strip comments and blanks; compute indentation; reject tabs.
fn preprocess(text: &str) -> GcxResult<Vec<Line<'_>>> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let number = i + 1;
        if raw.trim_start().starts_with('#') || raw.trim().is_empty() {
            continue;
        }
        let indent = raw.len() - raw.trim_start_matches(' ').len();
        let rest = &raw[indent..];
        if rest.starts_with('\t') || raw[..indent.min(raw.len())].contains('\t') {
            return Err(GcxError::Parse(format!(
                "yaml: tab character in indentation at line {number}"
            )));
        }
        // Trim trailing comments that are preceded by whitespace and not
        // inside quotes.
        let content = strip_trailing_comment(rest).trim_end();
        if content.is_empty() {
            continue;
        }
        out.push(Line {
            indent,
            content,
            number,
        });
    }
    Ok(out)
}

/// Cut a `#` comment that follows whitespace and is not inside a quoted
/// scalar. A quote opens a scalar only where one starts: at the start of
/// the line, after `[` or `,`, or after `:` or `-` and a space. Anywhere
/// else it is a literal character, as in `name: don't`.
fn strip_trailing_comment(s: &str) -> &str {
    let bytes = s.as_bytes();
    // The quote of the scalar we are inside, if any.
    let mut open: Option<u8> = None;
    // The last non-space byte before `i`, and whether a space followed it.
    let (mut last, mut gap) = (None, false);
    for (i, &b) in bytes.iter().enumerate() {
        match open {
            Some(quote) if b == quote => open = None,
            Some(_) => {}
            None => match b {
                b'\'' | b'"' => {
                    let starts_scalar = match last {
                        None | Some(b'[' | b',') => true,
                        Some(b':' | b'-') => gap,
                        _ => false,
                    };
                    if starts_scalar {
                        open = Some(b);
                    }
                }
                b'#' if i == 0 || bytes[i - 1] == b' ' => return &s[..i],
                _ => {}
            },
        }
        if b == b' ' {
            gap = true;
        } else {
            (last, gap) = (Some(b), false);
        }
    }
    s
}

struct BlockParser<'a, 'b> {
    lines: &'b [Line<'a>],
    pos: usize,
}

impl<'a, 'b> BlockParser<'a, 'b> {
    fn peek(&self) -> Option<&'b Line<'a>> {
        self.lines.get(self.pos)
    }

    /// Parse the block starting at the current line, which must be indented
    /// exactly `indent`.
    fn parse_block(&mut self, indent: usize) -> GcxResult<Value> {
        let line = self
            .peek()
            .ok_or_else(|| GcxError::Parse("yaml: unexpected end of document".into()))?;
        if line.content.starts_with("- ") || line.content == "-" {
            self.parse_list(indent)
        } else {
            self.parse_map(indent)
        }
    }

    fn parse_map(&mut self, indent: usize) -> GcxResult<Value> {
        let mut map = std::collections::BTreeMap::new();
        while let Some(line) = self.peek() {
            if line.indent < indent {
                break;
            }
            if line.indent > indent {
                return Err(GcxError::Parse(format!(
                    "yaml: unexpected indentation at line {}",
                    line.number
                )));
            }
            if line.content.starts_with("- ") || line.content == "-" {
                break; // a list at the same indent ends the map (error upstream)
            }
            let number = line.number;
            let (key, rest) = split_key(line.content, number)?;
            if map.contains_key(&key) {
                return Err(GcxError::Parse(format!(
                    "yaml: duplicate key '{key}' at line {number}"
                )));
            }
            self.pos += 1;
            let value = if rest.is_empty() {
                // Block value: next line is deeper, or a list at the same
                // indent (YAML allows `key:` with `- item` not indented).
                match self.peek() {
                    Some(next) if next.indent > indent => self.parse_block(next.indent)?,
                    Some(next)
                        if next.indent == indent
                            && (next.content.starts_with("- ") || next.content == "-") =>
                    {
                        self.parse_list(indent)?
                    }
                    _ => Value::None,
                }
            } else {
                parse_scalar(rest, number)?
            };
            map.insert(key, value);
        }
        Ok(Value::Map(map))
    }

    fn parse_list(&mut self, indent: usize) -> GcxResult<Value> {
        let mut items = Vec::new();
        while let Some(line) = self.peek() {
            if line.indent != indent || !(line.content.starts_with("- ") || line.content == "-") {
                if line.indent >= indent && !line.content.starts_with('-') {
                    break;
                }
                if line.indent < indent {
                    break;
                }
                return Err(GcxError::Parse(format!(
                    "yaml: malformed list item at line {}",
                    line.number
                )));
            }
            let number = line.number;
            let rest = line.content[1..].trim_start();
            if rest.is_empty() {
                // `-` with block content below.
                self.pos += 1;
                match self.peek() {
                    Some(next) if next.indent > indent => {
                        items.push(self.parse_block(next.indent)?)
                    }
                    _ => items.push(Value::None),
                }
            } else if rest.contains(':') && looks_like_key(rest) {
                // Inline map start: `- key: value` — rewrite the current line
                // as a map entry at a synthetic deeper indent.
                let inner_indent = indent + 2;
                let item = self.parse_inline_list_map(indent, inner_indent, number)?;
                items.push(item);
            } else {
                self.pos += 1;
                items.push(parse_scalar(rest, number)?);
            }
        }
        Ok(Value::List(items))
    }

    /// Handle `- key: value` followed by continuation lines indented past
    /// the dash.
    fn parse_inline_list_map(
        &mut self,
        dash_indent: usize,
        inner_indent: usize,
        _number: usize,
    ) -> GcxResult<Value> {
        let mut map = std::collections::BTreeMap::new();
        // First entry comes from the dash line itself.
        {
            let line = self.peek().unwrap();
            let number = line.number;
            let rest = line.content[1..].trim_start();
            let (key, val_text) = split_key(rest, number)?;
            self.pos += 1;
            let value = if val_text.is_empty() {
                match self.peek() {
                    Some(next) if next.indent > inner_indent => self.parse_block(next.indent)?,
                    Some(next)
                        if next.indent == inner_indent
                            && (next.content.starts_with("- ") || next.content == "-") =>
                    {
                        self.parse_list(inner_indent)?
                    }
                    _ => Value::None,
                }
            } else {
                parse_scalar(val_text, number)?
            };
            map.insert(key, value);
        }
        // Continuation entries at inner_indent.
        while let Some(line) = self.peek() {
            if line.indent <= dash_indent || line.content.starts_with("- ") {
                break;
            }
            if line.indent != inner_indent {
                return Err(GcxError::Parse(format!(
                    "yaml: bad indentation in list item at line {}",
                    line.number
                )));
            }
            let number = line.number;
            let (key, val_text) = split_key(line.content, number)?;
            if map.contains_key(&key) {
                return Err(GcxError::Parse(format!(
                    "yaml: duplicate key '{key}' at line {number}"
                )));
            }
            self.pos += 1;
            let value = if val_text.is_empty() {
                match self.peek() {
                    Some(next) if next.indent > inner_indent => self.parse_block(next.indent)?,
                    Some(next)
                        if next.indent == inner_indent
                            && (next.content.starts_with("- ") || next.content == "-") =>
                    {
                        self.parse_list(inner_indent)?
                    }
                    _ => Value::None,
                }
            } else {
                parse_scalar(val_text, number)?
            };
            map.insert(key, value);
        }
        Ok(Value::Map(map))
    }
}

fn looks_like_key(s: &str) -> bool {
    // A key is a run of non-colon chars followed by `: ` or line-ending `:`.
    // Quoted strings and flow collections are scalars, not keys.
    if s.starts_with(['\'', '"', '[', '{']) {
        return false;
    }
    match s.find(':') {
        Some(i) => s[i + 1..].is_empty() || s.as_bytes().get(i + 1) == Some(&b' '),
        None => false,
    }
}

fn split_key(content: &str, number: usize) -> GcxResult<(String, &str)> {
    let idx = content
        .find(':')
        .filter(|i| content[*i + 1..].is_empty() || content.as_bytes()[*i + 1] == b' ')
        .ok_or_else(|| GcxError::Parse(format!("yaml: expected 'key: value' at line {number}")))?;
    let key = content[..idx].trim();
    if key.is_empty() {
        return Err(GcxError::Parse(format!("yaml: empty key at line {number}")));
    }
    let key = unquote(key);
    Ok((key, content[idx + 1..].trim()))
}

fn unquote(s: &str) -> String {
    if (s.starts_with('\'') && s.ends_with('\'') && s.len() >= 2)
        || (s.starts_with('"') && s.ends_with('"') && s.len() >= 2)
    {
        s[1..s.len() - 1].to_string()
    } else {
        s.to_string()
    }
}

/// Parse a scalar (or inline flow list).
fn parse_scalar(s: &str, number: usize) -> GcxResult<Value> {
    let s = s.trim();
    if s.starts_with('[') {
        if !s.ends_with(']') {
            return Err(GcxError::Parse(format!(
                "yaml: unterminated flow list at line {number}"
            )));
        }
        let inner = &s[1..s.len() - 1];
        if inner.trim().is_empty() {
            return Ok(Value::List(vec![]));
        }
        let items = split_flow(inner)
            .into_iter()
            .map(|item| parse_scalar(item.trim(), number))
            .collect::<GcxResult<Vec<_>>>()?;
        return Ok(Value::List(items));
    }
    if s.starts_with('{') {
        if s == "{}" {
            return Ok(Value::Map(Default::default()));
        }
        return Err(GcxError::Parse(format!(
            "yaml: flow maps are not supported (line {number})"
        )));
    }
    if s.starts_with('\'') || s.starts_with('"') {
        let quote = s.chars().next().unwrap();
        if s.len() < 2 || !s.ends_with(quote) {
            return Err(GcxError::Parse(format!(
                "yaml: unterminated string at line {number}"
            )));
        }
        return Ok(Value::Str(s[1..s.len() - 1].to_string()));
    }
    Ok(match s {
        "null" | "~" | "Null" | "NULL" => Value::None,
        "true" | "True" => Value::Bool(true),
        "false" | "False" => Value::Bool(false),
        _ => {
            if let Ok(i) = s.parse::<i64>() {
                Value::Int(i)
            } else if let Ok(f) = s.parse::<f64>() {
                // Bare words like "nan"/"inf" parse as floats in Rust; treat
                // only numeric-looking text as a float.
                if s.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+')
                {
                    Value::Float(f)
                } else {
                    Value::Str(s.to_string())
                }
            } else {
                Value::Str(s.to_string())
            }
        }
    })
}

/// Split a flow-list body on top-level commas (respecting quotes and nested
/// brackets).
fn split_flow(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_single = false;
    let mut in_double = false;
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            '[' if !in_single && !in_double => depth += 1,
            ']' if !in_single && !in_double => depth = depth.saturating_sub(1),
            ',' if !in_single && !in_double && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing5_mpi_endpoint_config() {
        // Listing 5 of the paper (comments stripped to what our subset keeps).
        let text = r#"
# Configuration for a Slurm based HPC system
display_name: SlurmHPC
engine:
    type: GlobusMPIEngine
    mpi_launcher: srun

    provider:
        type: SlurmProvider

    launcher:
        type: SimpleLauncher

    # Specify # of nodes per batch job
    nodes_per_block: 4
"#;
        let v = parse_yaml(text).unwrap();
        assert_eq!(v.get("display_name").unwrap().as_str(), Some("SlurmHPC"));
        let engine = v.get("engine").unwrap();
        assert_eq!(
            engine.get("type").unwrap().as_str(),
            Some("GlobusMPIEngine")
        );
        assert_eq!(engine.get("mpi_launcher").unwrap().as_str(), Some("srun"));
        assert_eq!(engine.get("nodes_per_block").unwrap().as_int(), Some(4));
        assert_eq!(
            engine
                .get("provider")
                .unwrap()
                .get("type")
                .unwrap()
                .as_str(),
            Some("SlurmProvider")
        );
    }

    #[test]
    fn listing9_template_text_survives() {
        // The MEP template itself is YAML with {{ }} placeholders in values.
        let text = r#"
engine:
  type: GlobusComputeEngine
  nodes_per_block: "{{ NODES_PER_BLOCK }}"

provider:
  type: SlurmProvider
  partition: cpu
  account: "{{ ACCOUNT_ID }}"
  walltime: "{{ WALLTIME|default('00:30:00') }}"

launcher:
  type: SrunLauncher
"#;
        let v = parse_yaml(text).unwrap();
        assert_eq!(
            v.get("provider").unwrap().get("account").unwrap().as_str(),
            Some("{{ ACCOUNT_ID }}")
        );
        assert_eq!(
            v.get("launcher").unwrap().get("type").unwrap().as_str(),
            Some("SrunLauncher")
        );
    }

    #[test]
    fn scalars() {
        let v = parse_yaml("a: 1\nb: 2.5\nc: true\nd: null\ne: hello\nf: 'qu: oted'\n").unwrap();
        assert_eq!(v.get("a").unwrap(), &Value::Int(1));
        assert_eq!(v.get("b").unwrap(), &Value::Float(2.5));
        assert_eq!(v.get("c").unwrap(), &Value::Bool(true));
        assert_eq!(v.get("d").unwrap(), &Value::None);
        assert_eq!(v.get("e").unwrap().as_str(), Some("hello"));
        assert_eq!(v.get("f").unwrap().as_str(), Some("qu: oted"));
    }

    #[test]
    fn block_lists() {
        let v = parse_yaml("items:\n  - 1\n  - two\n  - true\n").unwrap();
        let items = v.get("items").unwrap().as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[1].as_str(), Some("two"));
    }

    #[test]
    fn list_of_maps() {
        let text = "mappings:\n  - source: '{username}'\n    output: '{0}'\n  - source: x\n";
        let v = parse_yaml(text).unwrap();
        let maps = v.get("mappings").unwrap().as_list().unwrap();
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].get("source").unwrap().as_str(), Some("{username}"));
        assert_eq!(maps[0].get("output").unwrap().as_str(), Some("{0}"));
        assert_eq!(maps[1].get("source").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn flow_list() {
        let v = parse_yaml("allowed: [a, 'b c', 3]\nempty: []\n").unwrap();
        let l = v.get("allowed").unwrap().as_list().unwrap();
        assert_eq!(l[0].as_str(), Some("a"));
        assert_eq!(l[1].as_str(), Some("b c"));
        assert_eq!(l[2].as_int(), Some(3));
        assert_eq!(v.get("empty").unwrap().as_list().unwrap().len(), 0);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let v = parse_yaml("# top\n\na: 1  # trailing\n\n# done\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_int(), Some(1));
    }

    #[test]
    fn hash_inside_quotes_is_literal() {
        let v = parse_yaml("a: 'x # y'\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x # y"));
    }

    #[test]
    fn apostrophe_inside_a_bare_scalar_opens_no_quote() {
        let v =
            parse_yaml("name: don't  # note\nitems:\n  - don't # c\n  - [a, 'b # c']\n").unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("don't"));
        let items = v.get("items").unwrap().as_list().unwrap();
        assert_eq!(items[0].as_str(), Some("don't"));
        assert_eq!(items[1].as_list().unwrap()[1].as_str(), Some("b # c"));
    }

    #[test]
    fn errors() {
        assert!(parse_yaml("\ta: 1\n").is_err(), "tabs rejected");
        assert!(
            parse_yaml("a: 1\na: 2\n").is_err(),
            "duplicate keys rejected"
        );
        assert!(parse_yaml("a: [1, 2\n").is_err(), "unterminated flow list");
        assert!(parse_yaml("a: 'oops\n").is_err(), "unterminated string");
        assert!(parse_yaml(": 1\n").is_err(), "empty key");
        assert!(
            parse_yaml("just some words\n").is_err(),
            "top level must be a map or list"
        );
    }

    #[test]
    fn empty_document_is_none() {
        assert_eq!(parse_yaml("").unwrap(), Value::None);
        assert_eq!(parse_yaml("# only a comment\n").unwrap(), Value::None);
    }

    #[test]
    fn nested_empty_value_is_none() {
        let v = parse_yaml("a:\nb: 1\n").unwrap();
        assert_eq!(v.get("a").unwrap(), &Value::None);
    }
}

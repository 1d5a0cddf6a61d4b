//! Command-line argument parsing for the `tamperscope` binary.
//!
//! Hand-rolled (the workspace takes no CLI dependency): positionals plus
//! `--flag` / `--flag value` / `--flag=value`. Whether a flag consumes
//! the next token is decided by the [`VALUE_FLAGS`] list, not by peeking
//! at the token's shape — peeking made boolean flags swallow whatever
//! followed them (`classify --jsonl capture.pcap` used to parse with no
//! positional at all, rejecting a perfectly good invocation). A flag in
//! neither list is an error: a typo must not be a silently different run.

use std::io::{self, Write};

/// Flags that take a value.
pub const VALUE_FLAGS: &[&str] = &[
    "sessions",
    "days",
    "seed",
    "threads",
    "world",
    "max-flows",
    "metrics-json",
    "pops",
    "out",
];

/// Flags that take none.
const BOOL_FLAGS: &[&str] = &["jsonl", "explain", "json-summary", "full"];

/// Parsed command line: positionals in order, flags with optional values.
#[derive(Debug, Default)]
pub struct Args {
    /// Non-flag tokens, in order.
    pub positional: Vec<String>,
    /// `(name, value)` pairs, in order; later occurrences win on lookup.
    pub flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse raw tokens (everything after the subcommand). A `--flag` no
    /// subcommand knows is an error naming it.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(flag) = a.strip_prefix("--") {
                let (name, given) = match flag.split_once('=') {
                    Some((n, v)) => (n, Some(v.to_owned())),
                    None => (flag, None),
                };
                let takes_value = VALUE_FLAGS.contains(&name);
                if !takes_value && !BOOL_FLAGS.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                let value = match given {
                    None if takes_value => it.next().cloned(),
                    given => given,
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    /// The value of the last `--name`, if any was given with a value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parse the value of `--name` as u64, erroring on a flag given
    /// without a value or with one that does not parse. An absent flag
    /// still yields `default`.
    pub fn get_u64_strict(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.iter().rev().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, None)) => Err(format!("--{name} requires a value")),
            Some((_, Some(v))) => v
                .parse()
                .map_err(|_| format!("--{name}: {v:?} is not an unsigned integer")),
        }
    }

    /// True when `--name` appeared at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

/// `classify`'s per-flow output: every flow's text in one buffer plus a
/// `(first_index, offset, length)` entry each, so shards render in place,
/// merge by appending, and write in global first-record order.
#[derive(Debug, Default)]
pub struct VerdictLines {
    text: String,
    index: Vec<(u64, usize, usize)>,
}

impl VerdictLines {
    /// Add the flow first seen at record `first_index`: `render` appends
    /// its text to the buffer, and a newline follows.
    pub fn push(&mut self, first_index: u64, render: impl FnOnce(&mut String)) {
        let off = self.text.len();
        render(&mut self.text);
        self.text.push('\n');
        self.index.push((first_index, off, self.text.len() - off));
    }

    /// Append another shard's flows.
    pub fn merge(&mut self, other: VerdictLines) {
        let base = self.text.len();
        self.text.push_str(&other.text);
        self.index.extend(
            other
                .index
                .iter()
                .map(|&(i, off, len)| (i, base + off, len)),
        );
    }

    /// Write every flow's text, once, in `first_index` order.
    pub fn write_sorted(mut self, out: &mut impl Write) -> io::Result<()> {
        self.index
            .sort_unstable_by_key(|&(first_index, _, _)| first_index);
        for &(_, off, len) in &self.index {
            out.write_all(&self.text.as_bytes()[off..off + len])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw).expect("known flags only")
    }

    #[test]
    fn verdict_lines_merge_shards_and_write_in_first_index_order() {
        let mut a = VerdictLines::default();
        a.push(7, |t| t.push_str("seven"));
        a.push(2, |t| t.push_str("two\nlines"));
        let mut b = VerdictLines::default();
        b.push(5, |t| t.push_str("five"));
        a.merge(b);
        let mut out = Vec::new();
        a.write_sorted(&mut out).unwrap();
        assert_eq!(out, b"two\nlines\nfive\nseven\n");
    }

    #[test]
    fn boolean_flag_does_not_swallow_positional() {
        // The historical bug: `--jsonl` peeked ahead and consumed the
        // capture path as its "value".
        let a = args(&["--jsonl", "capture.pcap"]);
        assert_eq!(a.positional, vec!["capture.pcap"]);
        assert!(a.has("jsonl"));
        assert_eq!(a.get("jsonl"), None);
    }

    #[test]
    fn value_flags_consume_the_next_token() {
        let a = args(&["--threads", "8", "capture.pcap", "--max-flows", "1000"]);
        assert_eq!(a.get_u64_strict("threads", 0), Ok(8));
        assert_eq!(a.get_u64_strict("max-flows", 0), Ok(1000));
        assert_eq!(a.positional, vec!["capture.pcap"]);
    }

    #[test]
    fn equals_syntax_works_for_any_flag() {
        let a = args(&["--seed=42", "--jsonl", "--world=spec.json"]);
        assert_eq!(a.get_u64_strict("seed", 0), Ok(42));
        assert_eq!(a.get("world"), Some("spec.json"));
        assert!(a.has("jsonl"));
    }

    #[test]
    fn last_occurrence_wins() {
        let a = args(&["--seed", "1", "--seed", "2"]);
        assert_eq!(a.get_u64_strict("seed", 0), Ok(2));
    }

    #[test]
    fn missing_value_at_end_is_tolerated() {
        let a = args(&["--threads"]);
        assert!(a.has("threads"));
        assert_eq!(a.get("threads"), None);
        assert!(a.get_u64_strict("threads", 3).is_err());
    }

    #[test]
    fn strict_parse_accepts_valid_and_absent_values() {
        let a = args(&["--threads", "8"]);
        assert_eq!(a.get_u64_strict("threads", 1), Ok(8));
        assert_eq!(a.get_u64_strict("sessions", 500), Ok(500));
    }

    #[test]
    fn strict_parse_rejects_garbage_instead_of_defaulting() {
        let a = args(&["--threads=abc"]);
        let err = a.get_u64_strict("threads", 1).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("abc"), "{err}");
    }

    #[test]
    fn strict_parse_rejects_missing_value_and_negative_numbers() {
        let a = args(&["--seed"]);
        assert!(a.get_u64_strict("seed", 7).is_err());
        let b = args(&["--max-flows=-4"]);
        assert!(b.get_u64_strict("max-flows", 0).is_err());
    }

    #[test]
    fn strict_parse_uses_the_last_occurrence() {
        let a = args(&["--threads", "2", "--threads", "oops"]);
        assert!(a.get_u64_strict("threads", 1).is_err());
        let b = args(&["--threads", "oops", "--threads", "2"]);
        assert_eq!(b.get_u64_strict("threads", 1), Ok(2));
    }
}

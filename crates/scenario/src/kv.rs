//! The one plain-text `key = value` codec behind scenario specs, run records and
//! result-cache records.
//!
//! Grammar, line by line: blank lines and lines starting with `#` are skipped;
//! every other line is `key = value`, split at its *first* `=` (so values may
//! contain `=`), with both sides trimmed. A line without `=` is an error naming
//! its line number. Keys may repeat (a manual workload's `flow` lines); lookups
//! by key see the first occurrence. A value that must span lines (the canonical
//! spec stored in a cache record) is written through [`escape`].

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// A parsed document: its `(key, value)` pairs, borrowed from the input, in order.
#[derive(Debug)]
pub(crate) struct Kv<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Kv<'a> {
    /// Parse `text`.
    pub(crate) fn read(text: &'a str) -> Result<Kv<'a>, String> {
        let mut pairs = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            pairs.push((k.trim(), v.trim()));
        }
        Ok(Kv { pairs })
    }

    /// Every pair, in input order.
    pub(crate) fn pairs(&self) -> &[(&'a str, &'a str)] {
        &self.pairs
    }

    /// The value of the first `key` line.
    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        self.all(key).next()
    }

    /// [`Kv::get`], erroring when the key is absent.
    pub(crate) fn require(&self, key: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| format!("missing key {key}"))
    }

    /// The values of every `key` line, in input order.
    pub(crate) fn all<'k>(&'k self, key: &'k str) -> impl Iterator<Item = &'a str> + 'k {
        self.pairs
            .iter()
            .filter(move |(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// The required value of `key`, parsed as a `T`.
    pub(crate) fn parse<T>(&self, key: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let v = self.require(key)?;
        v.parse().map_err(|e| format!("bad {key} = {v}: {e}"))
    }

    /// The value of `key` parsed as a `T`, or `None` when the key is absent.
    pub(crate) fn parse_opt<T>(&self, key: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.parse(key).map(Some),
        }
    }
}

/// Builds a document: a `# header` comment line, then one `key = value` line per
/// [`Writer::push`].
pub(crate) struct Writer(String);

impl Writer {
    /// A document starting with the comment line `# {header}`.
    pub(crate) fn new(header: &str) -> Writer {
        Writer(format!("# {header}\n"))
    }

    /// Append the line `key = value`.
    pub(crate) fn push(&mut self, key: &str, value: impl Display) {
        let _ = writeln!(self.0, "{key} = {value}");
    }

    /// The document text.
    pub(crate) fn finish(self) -> String {
        self.0
    }
}

/// Escape multi-line text into a single value (`\` → `\\`, newline → `\n`).
pub(crate) fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Invert [`escape`]. Errors on a dangling trailing backslash or unknown escape.
pub(crate) fn unescape(text: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Characters the codec treats specially, plus ordinary and non-ASCII ones.
    const ALPHABET: &[char] = &[
        '\\', '\n', '=', '#', ' ', '\t', 'n', 'a', 'Z', '0', '-', ':', 'é', 'λ', '→', '🙂',
    ];

    fn text(indices: &[usize]) -> String {
        indices.iter().map(|&i| ALPHABET[i]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escape_and_write_round_trip(
            value in prop::collection::vec(0..ALPHABET.len(), 0..24),
            key in prop::collection::vec(0..ALPHABET.len(), 1..8),
        ) {
            let value = text(&value);
            let escaped = escape(&value);
            prop_assert!(!escaped.contains('\n'), "{:?}", escaped);
            prop_assert_eq!(unescape(&escaped).unwrap(), value.clone());

            // A written pair reads back whenever the key is a valid one (no `=` or
            // newline, not blank, not a comment) and neither side needs trimming:
            // the escaped value is a single line, and any `=` in it stays in the value.
            let key: String = text(&key).replace(['=', '\n'], "k");
            let key = key.trim();
            let trimmed = escaped.trim() == escaped;
            if !key.is_empty() && !key.starts_with('#') && trimmed {
                let mut w = Writer::new("round trip");
                w.push(key, &escaped);
                w.push("after", "x");
                let doc = w.finish();
                let kv = Kv::read(&doc).unwrap();
                prop_assert_eq!(kv.pairs().len(), 2, "{:?}", doc);
                prop_assert_eq!(kv.get(key), Some(escaped.as_str()), "{:?}", doc);
                prop_assert_eq!(unescape(kv.require(key).unwrap()).unwrap(), value);
            }
        }
    }

    #[test]
    fn unescape_rejects_dangling_and_unknown_escapes() {
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn reader_splits_at_the_first_equals_and_skips_comments() {
        let kv = Kv::read("# header\n\n  a = 1 \nb=x=y\n# c = 3\nflow = 1\nflow = 2\n").unwrap();
        assert_eq!(
            kv.pairs(),
            &[("a", "1"), ("b", "x=y"), ("flow", "1"), ("flow", "2")]
        );
        assert_eq!(kv.get("flow"), Some("1"));
        assert_eq!(kv.all("flow").collect::<Vec<_>>(), ["1", "2"]);
        assert_eq!(kv.get("c"), None);
        assert_eq!(kv.parse::<u32>("a"), Ok(1));
        assert_eq!(kv.parse_opt::<u32>("c"), Ok(None));
        assert_eq!(kv.require("c").unwrap_err(), "missing key c");
        let err = kv.parse::<u32>("b").unwrap_err();
        assert!(err.starts_with("bad b = x=y"), "{err}");
        assert_eq!(
            Kv::read("a = 1\nno equals\n").unwrap_err(),
            "line 2: expected key = value"
        );
    }
}

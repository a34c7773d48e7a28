//! Plain-text task-graph format (`.tg`), round-trippable and versioned.
//!
//! ```text
//! # comment lines start with '#'
//! format tg <version>          (optional; must precede tasks/edges)
//! meta <key> <value...>        (optional; must precede tasks/edges)
//! task <id> <load_ns> [name]
//! edge <from> <to> <weight_ns>
//! ```
//!
//! Task ids must be dense `0..n` and appear before any edge that uses
//! them. The format exists so experiments can persist exact instances
//! (integer nanoseconds — no float drift).
//!
//! The `format`/`meta` header (added for the frozen regression corpus,
//! see `anneal-arena::corpus`) carries provenance that is not part of
//! the graph itself — instance names, host-topology specs, adversary
//! seeds. Keys are single tokens; values are the rest of the line with
//! interior whitespace collapsed to single spaces. Files without a
//! header parse exactly as before, and [`from_text`] ignores any meta
//! it finds, so the extension is fully backward compatible.
//!
//! ```
//! use anneal_graph::textio::{from_text_with_meta, to_text_with_meta, TextMeta};
//! # use anneal_graph::builder::TaskGraphBuilder;
//! # let mut b = TaskGraphBuilder::new();
//! # let a = b.add_task(1_000);
//! # let c = b.add_task(2_000);
//! # b.add_edge(a, c, 50).unwrap();
//! # let g = b.build().unwrap();
//! let mut meta = TextMeta::new();
//! meta.push("name", "example-instance");
//! meta.push("topology", "ring 5");
//! let text = to_text_with_meta(&g, &meta);
//! let (h, parsed) = from_text_with_meta(&text).unwrap();
//! assert_eq!(h.num_tasks(), g.num_tasks());
//! assert_eq!(parsed.get("topology"), Some("ring 5"));
//! ```

use std::fmt::Write as _;

use crate::builder::TaskGraphBuilder;
use crate::dag::TaskGraph;
use crate::error::GraphError;
use crate::ids::TaskId;

/// Newest `.tg` text-format version this library reads and writes.
/// Version 1 added the `format`/`meta` header; headerless files are
/// treated as version 1 with no metadata.
pub const TG_TEXT_VERSION: u32 = 1;

/// Ordered key/value metadata carried in a `.tg` header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextMeta {
    /// Version declared by a `format tg <v>` line ([`TG_TEXT_VERSION`]
    /// when serialized by [`to_text_with_meta`]; `None` when parsed
    /// from a headerless file).
    pub version: Option<u32>,
    /// `meta` entries in file order; keys may repeat.
    pub entries: Vec<(String, String)>,
}

impl TextMeta {
    /// An empty header.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics when the key is empty or contains whitespace, or when the
    /// value contains a newline — either would not round-trip.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let key = key.into();
        let value = value.into();
        assert!(
            !key.is_empty() && !key.contains(char::is_whitespace),
            "meta key must be one non-empty token, got {key:?}"
        );
        assert!(!value.contains('\n'), "meta value must be one line");
        self.entries.push((key, value));
        self
    }

    /// The first value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Serializes `g` to the headerless `.tg` text format.
pub fn to_text(g: &TaskGraph) -> String {
    let mut out = String::new();
    write_comment_and_body(&mut out, g);
    out
}

/// Serializes `g` with a version-1 `format`/`meta` header. The declared
/// version is always [`TG_TEXT_VERSION`]; `meta.version` is ignored on
/// output.
#[expect(clippy::unwrap_used, reason = "fmt::Write into a String is infallible")]
pub fn to_text_with_meta(g: &TaskGraph, meta: &TextMeta) -> String {
    let mut out = String::new();
    writeln!(out, "format tg {TG_TEXT_VERSION}").unwrap();
    for (k, v) in &meta.entries {
        if v.is_empty() {
            writeln!(out, "meta {k}").unwrap();
        } else {
            writeln!(out, "meta {k} {v}").unwrap();
        }
    }
    write_comment_and_body(&mut out, g);
    out
}

#[expect(clippy::unwrap_used, reason = "fmt::Write into a String is infallible")]
fn write_comment_and_body(out: &mut String, g: &TaskGraph) {
    writeln!(
        out,
        "# annealsched taskgraph: {} tasks, {} edges",
        g.num_tasks(),
        g.num_edges()
    )
    .unwrap();
    for t in g.tasks() {
        let name = g.name(t);
        if name == format!("t{}", t.index()) {
            writeln!(out, "task {} {}", t.index(), g.load(t)).unwrap();
        } else {
            writeln!(out, "task {} {} {}", t.index(), g.load(t), name).unwrap();
        }
    }
    for (a, b, w) in g.edges() {
        writeln!(out, "edge {} {} {}", a.index(), b.index(), w).unwrap();
    }
}

/// Parses the `.tg` text format produced by [`to_text`] or
/// [`to_text_with_meta`], discarding any header.
pub fn from_text(text: &str) -> Result<TaskGraph, GraphError> {
    from_text_with_meta(text).map(|(g, _)| g)
}

/// Parses the `.tg` text format, returning the graph and its header.
///
/// Rejects a `format` line that is not `format tg <v>` with
/// `v <= `[`TG_TEXT_VERSION`], a repeated `format` line, and any
/// `format`/`meta` line appearing after the first `task` or `edge`.
pub fn from_text_with_meta(text: &str) -> Result<(TaskGraph, TextMeta), GraphError> {
    let mut b = TaskGraphBuilder::new();
    let mut meta = TextMeta::new();
    let mut expected_id = 0usize;
    let mut body_started = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse_err = |msg: &str| GraphError::Parse {
            line: lineno,
            msg: msg.to_string(),
        };
        match parts.next() {
            Some("format") => {
                if body_started {
                    return Err(parse_err("format line must precede tasks and edges"));
                }
                if meta.version.is_some() {
                    return Err(parse_err("repeated format line"));
                }
                if parts.next() != Some("tg") {
                    return Err(parse_err("expected 'format tg <version>'"));
                }
                let v: u32 = parts
                    .next()
                    .ok_or_else(|| parse_err("missing format version"))?
                    .parse()
                    .map_err(|_| parse_err("bad format version"))?;
                if parts.next().is_some() {
                    return Err(parse_err("trailing tokens after format version"));
                }
                if v == 0 || v > TG_TEXT_VERSION {
                    return Err(parse_err(&format!(
                        "unsupported tg format version {v} (this library reads <= {TG_TEXT_VERSION})"
                    )));
                }
                meta.version = Some(v);
            }
            Some("meta") => {
                if body_started {
                    return Err(parse_err("meta line must precede tasks and edges"));
                }
                let key = parts
                    .next()
                    .ok_or_else(|| parse_err("missing meta key"))?
                    .to_string();
                let value: Vec<&str> = parts.collect();
                meta.entries.push((key, value.join(" ")));
            }
            Some("task") => {
                body_started = true;
                let id: usize = parts
                    .next()
                    .ok_or_else(|| parse_err("missing task id"))?
                    .parse()
                    .map_err(|_| parse_err("bad task id"))?;
                if id != expected_id {
                    return Err(parse_err(&format!(
                        "task ids must be dense and in order (expected {expected_id}, got {id})"
                    )));
                }
                expected_id += 1;
                let load: u64 = parts
                    .next()
                    .ok_or_else(|| parse_err("missing load"))?
                    .parse()
                    .map_err(|_| parse_err("bad load"))?;
                let rest: Vec<&str> = parts.collect();
                if rest.is_empty() {
                    b.add_task(load);
                } else {
                    b.add_named_task(load, rest.join(" "));
                }
            }
            Some("edge") => {
                body_started = true;
                let from: usize = parts
                    .next()
                    .ok_or_else(|| parse_err("missing edge source"))?
                    .parse()
                    .map_err(|_| parse_err("bad edge source"))?;
                let to: usize = parts
                    .next()
                    .ok_or_else(|| parse_err("missing edge target"))?
                    .parse()
                    .map_err(|_| parse_err("bad edge target"))?;
                let w: u64 = parts
                    .next()
                    .ok_or_else(|| parse_err("missing edge weight"))?
                    .parse()
                    .map_err(|_| parse_err("bad edge weight"))?;
                if parts.next().is_some() {
                    return Err(parse_err("trailing tokens after edge"));
                }
                b.add_edge(TaskId::from_index(from), TaskId::from_index(to), w)?;
            }
            Some(tok) => return Err(parse_err(&format!("unknown directive '{tok}'"))),
            #[expect(
                clippy::unreachable,
                reason = "empty lines are skipped before splitting"
            )]
            None => unreachable!("blank lines filtered above"),
        }
    }
    Ok((b.build()?, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskGraphBuilder;

    fn sample() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_named_task(1_000, "alpha task");
        let x = b.add_task(2_000);
        let c = b.add_task(3_000);
        b.add_edge(a, x, 10).unwrap();
        b.add_edge(a, c, 20).unwrap();
        b.add_edge(x, c, 30).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let text = to_text(&g);
        let h = from_text(&text).unwrap();
        assert_eq!(h.num_tasks(), g.num_tasks());
        assert_eq!(h.num_edges(), g.num_edges());
        assert_eq!(h.loads(), g.loads());
        assert_eq!(h.name(TaskId::from_index(0)), "alpha task");
        let eg: Vec<_> = g.edges().collect();
        let eh: Vec<_> = h.edges().collect();
        assert_eq!(eg, eh);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hi\n\ntask 0 5\n   \ntask 1 6\nedge 0 1 7\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.num_tasks(), 2);
        assert_eq!(
            g.edge_weight(TaskId::from_index(0), TaskId::from_index(1)),
            Some(7)
        );
    }

    #[test]
    fn rejects_sparse_ids() {
        let err = from_text("task 1 5\n").unwrap_err();
        match err {
            GraphError::Parse { line: 1, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_tokens() {
        assert!(from_text("task x 5\n").is_err());
        assert!(from_text("task 0\n").is_err());
        assert!(from_text("frob 0 1\n").is_err());
        assert!(from_text("task 0 5\ntask 1 5\nedge 0 1\n").is_err());
        assert!(from_text("task 0 5\ntask 1 5\nedge 0 1 2 3\n").is_err());
    }

    #[test]
    fn propagates_graph_errors() {
        // edge to unknown task
        let err = from_text("task 0 5\nedge 0 3 1\n").unwrap_err();
        assert_eq!(err, GraphError::UnknownTask(TaskId::from_index(3)));
    }

    #[test]
    fn meta_roundtrip() {
        let g = sample();
        let mut meta = TextMeta::new();
        meta.push("name", "corpus-001")
            .push("topology", "mesh 3 2")
            .push("flag", "");
        let text = to_text_with_meta(&g, &meta);
        assert!(text.starts_with("format tg 1\n"));
        let (h, parsed) = from_text_with_meta(&text).unwrap();
        assert_eq!(h.loads(), g.loads());
        assert_eq!(parsed.version, Some(TG_TEXT_VERSION));
        assert_eq!(parsed.get("name"), Some("corpus-001"));
        assert_eq!(parsed.get("topology"), Some("mesh 3 2"));
        assert_eq!(parsed.get("flag"), Some(""));
        assert_eq!(parsed.get("absent"), None);
        // serializing the parsed header again is byte-identical
        assert_eq!(to_text_with_meta(&h, &parsed), text);
    }

    #[test]
    fn headerless_files_have_no_meta() {
        let (g, meta) = from_text_with_meta("task 0 5\n").unwrap();
        assert_eq!(g.num_tasks(), 1);
        assert_eq!(meta, TextMeta::new());
        assert_eq!(meta.version, None);
    }

    #[test]
    fn from_text_ignores_meta() {
        let g = from_text("format tg 1\nmeta name x\ntask 0 5\n").unwrap();
        assert_eq!(g.num_tasks(), 1);
    }

    #[test]
    fn meta_values_collapse_interior_whitespace() {
        let (_, meta) = from_text_with_meta("meta note a   b\t c\ntask 0 5\n").unwrap();
        assert_eq!(meta.get("note"), Some("a b c"));
    }

    #[test]
    fn rejects_bad_headers() {
        // unsupported / malformed version
        assert!(from_text("format tg 2\ntask 0 5\n").is_err());
        assert!(from_text("format tg 0\ntask 0 5\n").is_err());
        assert!(from_text("format tg x\ntask 0 5\n").is_err());
        assert!(from_text("format dot 1\ntask 0 5\n").is_err());
        assert!(from_text("format tg 1 extra\ntask 0 5\n").is_err());
        assert!(from_text("format tg\ntask 0 5\n").is_err());
        // repeated format line
        assert!(from_text("format tg 1\nformat tg 1\ntask 0 5\n").is_err());
        // header after body
        assert!(from_text("task 0 5\nformat tg 1\n").is_err());
        assert!(from_text("task 0 5\nmeta k v\n").is_err());
        // meta without a key
        assert!(from_text("meta\ntask 0 5\n").is_err());
    }

    #[test]
    #[should_panic(expected = "one non-empty token")]
    fn meta_key_with_whitespace_panics() {
        TextMeta::new().push("bad key", "v");
    }
}

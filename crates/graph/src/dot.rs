//! Graphviz DOT export.

use std::fmt::Write as _;

use crate::dag::TaskGraph;
use crate::units::as_us;

/// Options controlling DOT rendering.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name used in the `digraph <name> { ... }` header.
    pub name: String,
    /// Show task loads (µs) in node labels.
    pub show_loads: bool,
    /// Show edge communication weights (µs) as edge labels.
    pub show_weights: bool,
    /// Rank tasks by layer (`rankdir=TB` with same-rank groups).
    pub rank_by_layer: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "taskgraph".into(),
            show_loads: true,
            show_weights: true,
            rank_by_layer: false,
        }
    }
}

/// Renders `g` in Graphviz DOT format.
#[expect(clippy::unwrap_used, reason = "fmt::Write into a String is infallible")]
pub fn to_dot(g: &TaskGraph, opts: &DotOptions) -> String {
    let mut out = String::new();
    writeln!(out, "digraph {} {{", sanitize(&opts.name)).unwrap();
    writeln!(out, "  node [shape=box];").unwrap();
    for t in g.tasks() {
        if opts.show_loads {
            writeln!(
                out,
                "  {} [label=\"{}\\n{:.2} us\"];",
                t.index(),
                escape(g.name(t)),
                as_us(g.load(t))
            )
            .unwrap();
        } else {
            writeln!(out, "  {} [label=\"{}\"];", t.index(), escape(g.name(t))).unwrap();
        }
    }
    for (a, b, w) in g.edges() {
        if opts.show_weights {
            writeln!(
                out,
                "  {} -> {} [label=\"{:.2}\"];",
                a.index(),
                b.index(),
                as_us(w)
            )
            .unwrap();
        } else {
            writeln!(out, "  {} -> {};", a.index(), b.index()).unwrap();
        }
    }
    if opts.rank_by_layer {
        for layer in crate::levels::layers(g) {
            let ids: Vec<String> = layer.iter().map(|t| t.index().to_string()).collect();
            writeln!(out, "  {{ rank=same; {} }}", ids.join("; ")).unwrap();
        }
    }
    writeln!(out, "}}").unwrap();
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("g{cleaned}")
    } else if cleaned.is_empty() {
        "taskgraph".into()
    } else {
        cleaned
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskGraphBuilder;

    fn tiny() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_named_task(1_000, "alpha");
        let c = b.add_named_task(2_000, "beta");
        b.add_edge(a, c, 500).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn renders_nodes_and_edges() {
        let s = to_dot(&tiny(), &DotOptions::default());
        assert!(s.starts_with("digraph taskgraph {"));
        assert!(s.contains("alpha"));
        assert!(s.contains("1.00 us"));
        assert!(s.contains("0 -> 1 [label=\"0.50\"];"));
        assert!(s.trim_end().ends_with('}'));
    }

    #[test]
    fn bare_mode() {
        let opts = DotOptions {
            show_loads: false,
            show_weights: false,
            ..DotOptions::default()
        };
        let s = to_dot(&tiny(), &opts);
        assert!(s.contains("0 -> 1;"));
        assert!(!s.contains("us"));
    }

    #[test]
    fn rank_by_layer_emits_groups() {
        let opts = DotOptions {
            rank_by_layer: true,
            ..DotOptions::default()
        };
        let s = to_dot(&tiny(), &opts);
        assert!(s.contains("rank=same"));
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("my graph!"), "my_graph_");
        assert_eq!(sanitize("2fast"), "g2fast");
        assert_eq!(sanitize(""), "taskgraph");
    }

    #[test]
    fn escapes_labels() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}

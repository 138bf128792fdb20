//! Plain-text edge-list I/O.
//!
//! Format: one `src dst` pair per line (whitespace separated); lines starting
//! with `#` or `%` are comments. This matches the SNAP/webgraph text formats
//! that the paper's datasets ship in.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::directed::DirectedGraph;
use crate::error::GraphError;
use crate::ids::VertexId;

/// Reads a directed graph from an edge-list reader.
pub fn read_edge_list<R: Read>(reader: R) -> Result<DirectedGraph, GraphError> {
    let mut b = GraphBuilder::new(0);
    let mut line = String::new();
    let mut reader = BufReader::new(reader);
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let src = parse_vertex(it.next(), lineno)?;
        let dst = parse_vertex(it.next(), lineno)?;
        b.add_edge(src, dst);
    }
    Ok(b.build())
}

fn parse_vertex(tok: Option<&str>, line: usize) -> Result<VertexId, GraphError> {
    let tok = tok
        .ok_or_else(|| GraphError::Parse { line, message: "expected two vertex ids".into() })?;
    tok.parse::<VertexId>()
        .map_err(|e| GraphError::Parse { line, message: format!("bad vertex id {tok:?}: {e}") })
}

/// Writes a directed graph as an edge list.
pub fn write_edge_list<W: Write>(g: &DirectedGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# directed edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a directed graph from an edge-list file.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> Result<DirectedGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes a partitioning assignment as `vertex partition` lines — the output
/// format the paper describes feeding into Giraph ("a list of pairs
/// (v_i, l_j)", §V-F).
pub fn write_assignment<W: Write>(labels: &[u32], writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    for (v, &l) in labels.iter().enumerate() {
        writeln!(w, "{v} {l}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = GraphBuilder::new(4).add_edges([(0, 1), (1, 2), (3, 0)]).build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# comment\n\n% comment\n0 1\n 1  2 \n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn missing_second_vertex_is_an_error() {
        let err = read_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn assignment_format() {
        let mut buf = Vec::new();
        write_assignment(&[2, 0, 1], &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "0 2\n1 0\n2 1\n");
    }
}

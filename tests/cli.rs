//! Drives the `spinner` binary: argument checks exit 2 with the usage
//! before any input is read, and a valid run writes one label per vertex.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch file under the system temp dir, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str, contents: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("spinner-cli-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp file");
        Self(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Two triangles joined by one edge.
const EDGES: &str = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n";

fn spinner(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spinner")).args(args).output().expect("run spinner")
}

fn assert_usage_exit(out: &Output, why: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{why}: stderr {stderr}");
    assert!(stderr.contains("usage: spinner"), "{why}: stderr {stderr}");
    assert!(!stderr.contains("loaded"), "{why}: input was read before the check");
}

#[test]
fn bad_c_exits_with_usage_before_reading_input() {
    let input = TempFile::new("bad-c.txt", EDGES);
    for c in ["1.0", "0.5", "nan", "inf", "-3", "x"] {
        let out = spinner(&[input.path(), "--k", "2", "--c", c]);
        assert_usage_exit(&out, &format!("--c {c}"));
    }
}

#[test]
fn k_outside_the_label_range_exits_with_usage() {
    let input = TempFile::new("bad-k.txt", EDGES);
    let beyond = (u64::from(spinner_core::MAX_K) + 1).to_string();
    for k in ["0", beyond.as_str(), "4294967296"] {
        let out = spinner(&[input.path(), "--k", k]);
        assert_usage_exit(&out, &format!("--k {k}"));
    }
}

#[test]
fn valid_run_writes_one_label_per_vertex() {
    let input = TempFile::new("ok.txt", EDGES);
    let output = TempFile::new("ok-labels.txt", "");
    let out = spinner(&[input.path(), "--k", "2", "--c", "1.1", "--output", output.path()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr {stderr}");
    assert!(stderr.contains("partitioned into k=2"), "stderr {stderr}");
    let labels = std::fs::read_to_string(&output.0).expect("labels written");
    let pairs: Vec<(u32, u32)> = labels
        .lines()
        .map(|line| {
            let mut it = line.split_whitespace().map(|x| x.parse().expect("integer"));
            (it.next().expect("vertex"), it.next().expect("label"))
        })
        .collect();
    assert_eq!(pairs.iter().map(|&(v, _)| v).collect::<Vec<_>>(), (0..6).collect::<Vec<_>>());
    assert!(pairs.iter().all(|&(_, l)| l < 2));
}

#[test]
fn unreadable_input_exits_1() {
    let out = spinner(&["/nonexistent/spinner-cli-input.txt", "--k", "2"]);
    assert_eq!(out.status.code(), Some(1));
}

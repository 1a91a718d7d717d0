//! The benchmark's sources pass the repository's own determinism lint and
//! semantic analyzer: every wall-clock read carries its
//! `lint:allow(wall-clock)` marker, and the actor shims keep the
//! panic-path discipline of the actors they wrap.

use std::path::{Path, PathBuf};

fn sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in ["src", "tests"] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .expect("source directory is readable")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.sort();
        for f in files {
            let src = std::fs::read_to_string(&f).expect("source file is readable");
            out.push((f, src));
        }
    }
    assert!(out.len() > 5, "found the benchmark's sources");
    out
}

#[test]
fn determinism_lint_is_clean() {
    for (path, src) in sources() {
        let findings = check::lint::lint_source(&path, &src);
        assert!(
            findings.is_empty(),
            "{}: {:?}",
            path.display(),
            findings.iter().map(|f| f.to_json()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn unmarked_wall_clock_reads_are_caught() {
    let findings = check::lint::lint_source(Path::new("x.rs"), "let t = Instant::now();");
    assert_eq!(findings.len(), 1, "the lint sees an unmarked read");
}

#[test]
fn semantic_analyzer_is_clean() {
    let ws = check::analysis::Workspace::from_sources(sources());
    let findings = check::analysis::analyze(&ws);
    assert!(
        findings.is_empty(),
        "{:?}",
        findings.iter().map(|f| f.to_json()).collect::<Vec<_>>()
    );
}

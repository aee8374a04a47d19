//! The docs list the crates that exist: README.md's "Workspace layout"
//! table and DESIGN.md's "Workspace inventory" table each have a row for
//! every directory under `crates/`, and every `` `crates/…` `` path either
//! file cites exists.

use std::fs;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The table lines of the section under `## {heading}`.
fn table_rows<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    let start = doc
        .find(&format!("\n## {heading}\n"))
        .unwrap_or_else(|| panic!("no '## {heading}' section"));
    doc[start + 1..]
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with('|'))
        .collect()
}

/// Every inline code span outside fenced blocks that starts with `crates/`.
fn cited_paths(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| span.starts_with("crates/"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_crate_has_a_row_and_every_cited_path_exists() {
    let mut crates: Vec<String> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.is_dir())
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    assert!(crates.iter().any(|c| c == "placement"), "{crates:?}");

    let mut missing = Vec::new();
    for (file, heading) in [
        ("README.md", "Workspace layout"),
        ("DESIGN.md", "Workspace inventory"),
    ] {
        let doc = read(file);
        let rows = table_rows(&doc, heading);
        for c in &crates {
            let cell = format!("| `crates/{c}` |");
            if !rows.iter().any(|r| r.contains(&cell)) {
                missing.push(format!("{file} \"{heading}\": no row for crates/{c}"));
            }
        }
        for path in cited_paths(&doc) {
            if !root().join(&path).exists() {
                missing.push(format!("{file}: `{path}` does not exist"));
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

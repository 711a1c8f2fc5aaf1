//! The workspace's determinism lint covers `crates/*/src`; this
//! package sits outside it, so it lints itself: every source file
//! must be clean under the rules that would apply to a bench crate —
//! in particular D002, with `clock.rs` holding the one reasoned allow.

use std::path::Path;

#[test]
fn msbench_sources_pass_simlint() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<_> = std::fs::read_dir(&src)
        .expect("src/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(files.iter().any(|p| p.ends_with("clock.rs")));
    let mut wall_clock_files = Vec::new();
    for path in &files {
        let name = path.file_name().expect("file name").to_string_lossy();
        let text = std::fs::read_to_string(path).expect("source file");
        let findings = simlint::lint_source(&format!("crates/bench/src/{name}"), &text);
        assert!(findings.is_empty(), "{name}: {findings:?}");
        if text.contains("simlint::allow(D002)") {
            wall_clock_files.push(name.into_owned());
        }
    }
    assert_eq!(
        wall_clock_files,
        ["clock.rs"],
        "one file reads the wall clock"
    );
}

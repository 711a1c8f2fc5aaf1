//! Fixture-driven self-tests: every rule must fire on its bad
//! fixture, the allow directive must suppress it, and per-file
//! allowlists must be honored.

use simlint::{lint_source, RULES};

const SIM_PATH: &str = "crates/simnet/src/fixture.rs";

fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src).into_iter().map(|f| f.rule).collect()
}

#[test]
fn d001_fires_on_hashmap_in_sim_crate() {
    let src =
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
    let hits = rules_hit(SIM_PATH, src);
    assert!(hits.contains(&"D001"), "hits = {hits:?}");
    // The harness crate may use std hashing: rule scope is sim crates.
    assert!(rules_hit("crates/experiments/src/fixture.rs", src).is_empty());
}

#[test]
fn d002_fires_everywhere_but_the_harness_allowlist() {
    let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
    assert!(rules_hit(SIM_PATH, src).contains(&"D002"));
    assert!(rules_hit("crates/experiments/src/fig8.rs", src).contains(&"D002"));
    // The two wall-clock harness files are exempt by path.
    assert!(rules_hit("crates/experiments/src/main.rs", src).is_empty());
    assert!(rules_hit("crates/experiments/src/run.rs", src).is_empty());
}

#[test]
fn d003_fires_outside_simrng() {
    let src = "use rand::rngs::SmallRng;\nfn f() { let r = rand::thread_rng(); }\n";
    let hits = rules_hit(SIM_PATH, src);
    assert_eq!(hits, vec!["D003", "D003"]);
    // The one place allowed to touch the raw generator.
    assert!(rules_hit("crates/simkernel/src/rng.rs", src).is_empty());
}

#[test]
fn d004_fires_on_statics_but_not_lifetimes() {
    assert!(rules_hit(SIM_PATH, "static COUNTER: u32 = 0;\n").contains(&"D004"));
    assert!(rules_hit(SIM_PATH, "thread_local! { static X: u32 = 0; }\n").contains(&"D004"));
    assert!(rules_hit(SIM_PATH, "fn f(s: &'static str) -> &'static str { s }\n").is_empty());
    assert!(rules_hit(SIM_PATH, "fn is_static(x: u32) -> bool { x == 0 }\n").is_empty());
}

#[test]
fn d005_fires_on_plain_boxed_events_in_simkernel() {
    let boxed = "fn f(ev: Box<dyn Event>) { let _ = ev; }\n";
    let arced = "fn g(ev: Arc<dyn Event>) { let _ = ev; }\n";
    let hits = rules_hit("crates/simkernel/src/sim.rs", boxed);
    assert!(hits.contains(&"D005"), "hits = {hits:?}");
    assert!(rules_hit("crates/simkernel/src/sim.rs", arced).contains(&"D005"));
    // The pool and event modules define the boxed representation.
    assert!(rules_hit("crates/simkernel/src/pool.rs", boxed).is_empty());
    assert!(rules_hit("crates/simkernel/src/event.rs", boxed).is_empty());
    // Scope is the kernel crate: harness and net crates may hold plain
    // boxes (they never sit on the per-shard dispatch loop).
    assert!(rules_hit(SIM_PATH, boxed).is_empty());
    // Kernel test code may box freely.
    let test_src = "#[cfg(test)]\nmod tests {\n    fn t(ev: Box<dyn Event>) { let _ = ev; }\n}\n";
    assert!(rules_hit("crates/simkernel/src/sim.rs", test_src).is_empty());
    // An EventBox-typed path does not trip the rule.
    let pooled = "fn h(ev: EventBox) { let _ = ev; }\n";
    assert!(rules_hit("crates/simkernel/src/sim.rs", pooled).is_empty());
}

#[test]
fn p001_fires_on_message_path_panics_but_not_tests() {
    for bad in [
        "fn f() { panic!(\"boom\"); }\n",
        "fn f() { unreachable!(); }\n",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        "fn f(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n",
    ] {
        assert!(rules_hit(SIM_PATH, bad).contains(&"P001"), "src = {bad}");
    }
    // Panics in #[cfg(test)] regions are fine.
    let test_src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { panic!(\"expected\"); }\n}\n";
    assert!(rules_hit(SIM_PATH, test_src).is_empty());
    // P001 is scoped to kernel/message-path crates.
    assert!(rules_hit("crates/apps/src/fixture.rs", "fn f() { panic!(); }\n").is_empty());
}

#[test]
fn allow_with_reason_suppresses_same_line_and_next_line() {
    let trailing =
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // simlint::allow(P001): fixture reason\n";
    assert!(rules_hit(SIM_PATH, trailing).is_empty());
    let above = "// simlint::allow(P001): fixture reason\nfn f() { panic!(); }\n";
    assert!(rules_hit(SIM_PATH, above).is_empty());
    // An allow for the wrong rule does not suppress.
    let wrong = "// simlint::allow(D001): wrong rule\nfn f() { panic!(); }\n";
    let hits = rules_hit(SIM_PATH, wrong);
    assert!(
        hits.contains(&"P001") && hits.contains(&"L100"),
        "hits = {hits:?}"
    );
}

#[test]
fn l100_flags_unused_allows() {
    let src = "// simlint::allow(D001): nothing here violates it\nfn f() {}\n";
    assert_eq!(rules_hit(SIM_PATH, src), vec!["L100"]);
}

#[test]
fn l101_flags_malformed_allows() {
    // Missing reason, unknown rule, missing colon: all malformed.
    for bad in [
        "// simlint::allow(P001)\nfn f() {}\n",
        "// simlint::allow(P001):\nfn f() {}\n",
        "// simlint::allow(X999): unknown rule\nfn f() {}\n",
        "// simlint::allow P001: no parens\nfn f() {}\n",
    ] {
        assert_eq!(rules_hit(SIM_PATH, bad), vec!["L101"], "src = {bad}");
    }
}

#[test]
fn comments_and_strings_do_not_trigger() {
    let src = "// a HashMap would panic! here\nfn f() { let s = \"HashMap panic! Instant\"; let _ = s; }\n";
    assert!(rules_hit(SIM_PATH, src).is_empty());
    let raw = "fn f() { let s = r#\"thread_rng() static\"#; let _ = s; }\n";
    assert!(rules_hit(SIM_PATH, raw).is_empty());
}

#[test]
fn findings_carry_location_and_snippet() {
    let src = "fn ok() {}\nfn f() { panic!(\"boom\"); }\n";
    let fs = lint_source(SIM_PATH, src);
    assert_eq!(fs.len(), 1);
    assert_eq!(fs[0].file, SIM_PATH);
    assert_eq!(fs[0].line, 2);
    assert_eq!(fs[0].rule, "P001");
    assert!(
        fs[0].snippet.contains("panic!"),
        "snippet = {}",
        fs[0].snippet
    );
    let shown = fs[0].to_string();
    assert!(shown.contains("fixture.rs:2"), "display = {shown}");
}

#[test]
fn every_rule_documents_itself() {
    for r in RULES {
        assert!(!r.summary.is_empty() && !r.rationale.is_empty(), "{}", r.id);
        assert!(!r.patterns.is_empty(), "{}", r.id);
    }
}

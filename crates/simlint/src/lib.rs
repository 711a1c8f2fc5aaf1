//! # simlint — determinism lint pass for the simulation workspace
//!
//! The determinism contract of this workspace (bit-identical digests
//! for identical configs, at any thread count) is easy to break with
//! one innocent-looking line: a `HashMap` iteration, a wall-clock
//! read, an RNG seeded from entropy. `simlint` is a workspace-aware
//! static-analysis pass that walks every `crates/*/src` file with a
//! comment- and string-aware token scanner and enforces the contract
//! as named rules. It deliberately has **zero dependencies** — no
//! `syn`, no `dylint` — so it runs anywhere the workspace builds.
//!
//! ## Rules
//!
//! | id | what it forbids |
//! |------|------------------------------------------------------|
//! | D001 | `HashMap`/`HashSet`/`RandomState` in sim crates (iteration order is seeded per-process) |
//! | D002 | `Instant`/`SystemTime` outside the harness allowlist (wall clock must never feed results) |
//! | D003 | RNG outside `SimRng` (`thread_rng`, entropy seeding, raw `SmallRng`, …) |
//! | D004 | `static`/`thread_local!` in sim crates (hidden cross-run state) |
//! | D005 | plain `Box<dyn Event>`/`Arc<dyn Event>` in `simkernel` outside the pool/event modules (hot path must allocate through `EventPool`) |
//! | P001 | `panic!`/`unreachable!`/`.unwrap()`/`.expect(` in kernel/message-path crates |
//! | L100 | an allow directive that suppressed nothing |
//! | L101 | a malformed allow directive |
//!
//! ## Escape hatch
//!
//! A finding can be suppressed with an inline directive **that must
//! carry a reason**, either trailing on the same line or on the line
//! directly above:
//!
//! ```text
//! (comment) simlint::allow(P001): harvest-time API, never on the event path
//! ```
//!
//! Directives are only recognised at the start of a comment's text,
//! so prose that merely *mentions* the syntax (like this paragraph,
//! which wraps it in a code fence) does not count. An allow that does
//! not match any finding is itself reported (L100), so stale allows
//! cannot accumulate.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

// ---------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------

/// One lint rule: an id, a rationale, and the token patterns that
/// trigger it, scoped to a crate set and optional per-file allowlist.
pub struct Rule {
    /// Stable identifier (`D001`, `P001`, …) used in allow directives.
    pub id: &'static str,
    /// One-line description for `msx lint --rules`.
    pub summary: &'static str,
    /// Why the rule exists — what breaks when it is violated.
    pub rationale: &'static str,
    /// Crate names the rule applies to; empty slice = every crate.
    pub crates: &'static [&'static str],
    /// Skip `#[cfg(test)]` regions (panics in tests are fine).
    pub skip_test_code: bool,
    /// Workspace-relative path suffixes that are fully exempt.
    pub allow_files: &'static [&'static str],
    /// Identifier-boundary token patterns that trigger the rule.
    pub patterns: &'static [&'static str],
}

/// Crates whose event-path state must be deterministic end to end.
const SIM_CRATES: &[&str] = &[
    "simkernel",
    "simnet",
    "mobistreams",
    "dsps",
    "apps",
    "baselines",
];

/// Crates whose message/event paths must not panic (a lost phone or a
/// mis-wired send is simulation *input*, not a programming error).
const NO_PANIC_CRATES: &[&str] = &["simkernel", "simnet", "mobistreams", "dsps"];

/// The registry, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        summary: "no HashMap/HashSet/RandomState in sim crates",
        rationale: "std hash iteration order is seeded per-process; any \
                    iteration leaks that order into event order and breaks \
                    bit-identical digests. Use BTreeMap/BTreeSet.",
        crates: SIM_CRATES,
        skip_test_code: false,
        allow_files: &[],
        patterns: &["HashMap", "HashSet", "RandomState", "hash_map", "hash_set"],
    },
    Rule {
        id: "D002",
        summary: "no Instant/SystemTime outside the harness allowlist",
        rationale: "wall-clock reads differ run to run; they may time the \
                    harness (wall_secs in reports) but must never feed \
                    simulated state or the report digest.",
        crates: &[],
        skip_test_code: false,
        allow_files: &[
            "crates/experiments/src/main.rs",
            "crates/experiments/src/run.rs",
        ],
        patterns: &["Instant", "SystemTime"],
    },
    Rule {
        id: "D003",
        summary: "no RNG outside SimRng",
        rationale: "all randomness must flow through the per-shard forked \
                    SimRng streams; thread-local or entropy-seeded RNGs \
                    give different draws every run and every thread count.",
        crates: &[],
        skip_test_code: false,
        allow_files: &["crates/simkernel/src/rng.rs"],
        patterns: &[
            "thread_rng",
            "ThreadRng",
            "OsRng",
            "from_entropy",
            "getrandom",
            "SmallRng",
            "StdRng",
            "SeedableRng",
        ],
    },
    Rule {
        id: "D004",
        summary: "no statics or thread-locals in sim crates",
        rationale: "a static or thread_local! is hidden state that survives \
                    across runs (and differs across threads); all sim state \
                    must live in actors so a fresh Sim is a fresh world.",
        crates: SIM_CRATES,
        skip_test_code: false,
        allow_files: &[],
        patterns: &["static", "thread_local!"],
    },
    Rule {
        id: "D005",
        summary: "no plain Box<dyn Event>/Arc<dyn Event> on kernel hot paths",
        rationale: "the kernel's event hot path allocates through the \
                    generation-checked EventPool and moves EventBox values; \
                    a plain boxed trait object on a send/dispatch path \
                    silently bypasses the pool, dodging the pool_recycled/\
                    pool_aliasing accounting and regressing the warm-worker \
                    allocation win. Take `impl Into<EventBox>` or call \
                    `EventPool::make` instead; only the pool/event modules \
                    define the boxed representation.",
        crates: &["simkernel"],
        skip_test_code: true,
        allow_files: &[
            "crates/simkernel/src/pool.rs",
            "crates/simkernel/src/event.rs",
        ],
        patterns: &["Box<dyn Event>", "Arc<dyn Event>"],
    },
    Rule {
        id: "P001",
        summary: "no panics on kernel/message paths",
        rationale: "a lost phone, a late frame, or a mis-wired send is \
                    simulation input, not a programming error; count it in \
                    NetStats rejects (or return a typed error) instead of \
                    taking down a fleet-scale run.",
        crates: NO_PANIC_CRATES,
        skip_test_code: true,
        allow_files: &[],
        patterns: &[
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
            ".unwrap()",
            ".expect(",
        ],
    },
];

// ---------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------

/// One lint hit: a rule violated at a file:line, with the offending
/// source line for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`D001`, …, or `L100`/`L101` for allow hygiene).
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
    /// The source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.snippet
        )
    }
}

// ---------------------------------------------------------------------
// Comment/string-aware scanner
// ---------------------------------------------------------------------

/// One source line split into its code (string contents blanked) and
/// the text of every comment that touches the line.
struct LineView {
    /// The line with comments removed and string/char contents
    /// replaced by spaces; quotes and all other code survive.
    code: String,
    /// Text of each comment segment on this line (`//`, `///`, `//!`
    /// or the per-line slice of a block comment), without delimiters.
    comments: Vec<String>,
}

/// Tokenizer state across a file.
enum St {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Split a file into per-line code/comment views. Handles line and
/// nested block comments, strings, raw strings (`r#"…"#`), byte
/// strings, and the `'a` lifetime vs `'a'` char-literal ambiguity.
fn scan(src: &str) -> Vec<LineView> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut code = String::new();
    let mut comments: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut st = St::Normal;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            match st {
                St::LineComment => {
                    comments.push(std::mem::take(&mut cur));
                    st = St::Normal;
                }
                St::BlockComment(_) => comments.push(std::mem::take(&mut cur)),
                St::CharLit => st = St::Normal, // malformed; resync
                _ => {}
            }
            out.push(LineView {
                code: std::mem::take(&mut code),
                comments: std::mem::take(&mut comments),
            });
            i += 1;
            continue;
        }
        match st {
            St::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    st = St::LineComment;
                    i += 2;
                    // Doc-comment markers are delimiter, not text.
                    while matches!(chars.get(i), Some('/') | Some('!')) {
                        i += 1;
                    }
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw/byte strings: (b?)r#*" — only when the leading
                // letter starts a token (not the tail of `for` etc.).
                if (c == 'r' || c == 'b') && !code.chars().next_back().is_some_and(is_ident) {
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let raw = c == 'r' || chars.get(i + 1) == Some(&'r');
                    if raw {
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            code.push('"');
                            st = St::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                    } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        code.push('"');
                        st = St::Str;
                        i += 2;
                        continue;
                    }
                    code.push(c);
                    i += 1;
                    continue;
                }
                if c == '"' {
                    code.push('"');
                    st = St::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // `'\n'` / `'x'` are char literals; `'a` in `<'a>`
                    // or `'static` is a lifetime and stays in the code
                    // view (the apostrophe guards D004's `static`).
                    if chars.get(i + 1) == Some(&'\\')
                        || (chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\''))
                    {
                        code.push('\'');
                        st = St::CharLit;
                        i += 1;
                        continue;
                    }
                    code.push('\'');
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
            St::LineComment => {
                cur.push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        comments.push(std::mem::take(&mut cur));
                        st = St::Normal;
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // A backslash-newline continuation must leave the
                    // newline for the line splitter above.
                    code.push(' ');
                    i += if chars.get(i + 1) == Some(&'\n') {
                        1
                    } else {
                        2
                    };
                } else if c == '"' {
                    code.push('"');
                    st = St::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                let mut close = c == '"';
                for k in 0..hashes as usize {
                    close = close && chars.get(i + 1 + k) == Some(&'#');
                }
                if close {
                    code.push('"');
                    st = St::Normal;
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            St::CharLit => {
                if c == '\\' {
                    code.push(' ');
                    i += 2;
                } else if c == '\'' {
                    code.push('\'');
                    st = St::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if let St::LineComment | St::BlockComment(_) = st {
        comments.push(cur);
    }
    if !code.is_empty() || !comments.is_empty() {
        out.push(LineView { code, comments });
    }
    out
}

/// Mark every line that belongs to a `#[cfg(test)]` item's block
/// (attribute lines included), by brace-depth tracking on code views.
fn test_mask(lines: &[LineView]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth = 0usize;
    let mut pending = false;
    for (idx, lv) in lines.iter().enumerate() {
        if depth == 0 && lv.code.contains("#[cfg(test)]") {
            pending = true;
        }
        let mut in_test = depth > 0 || pending;
        if in_test {
            for c in lv.code.chars() {
                match c {
                    '{' => {
                        pending = false;
                        depth += 1;
                    }
                    '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            in_test = true;
        }
        mask[idx] = in_test;
    }
    mask
}

// ---------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------

struct Allow {
    /// 0-based line index of the directive.
    line: usize,
    rule: String,
    used: bool,
}

/// Extract well-formed allow directives and report malformed ones
/// (L101). A directive is only recognised at the start of a comment's
/// trimmed text, so prose mentioning the syntax never triggers.
fn collect_allows(file: &str, lines: &[LineView], findings: &mut Vec<Finding>) -> Vec<Allow> {
    const HEAD: &str = "simlint::allow";
    let mut allows = Vec::new();
    for (idx, lv) in lines.iter().enumerate() {
        for text in &lv.comments {
            let t = text.trim();
            let Some(rest) = t.strip_prefix(HEAD) else {
                continue;
            };
            let parsed = rest
                .strip_prefix('(')
                .and_then(|r| r.split_once(')'))
                .and_then(|(rule, tail)| {
                    let rule = rule.trim();
                    let reason = tail.strip_prefix(':')?.trim();
                    let known =
                        rule == "L100" || rule == "L101" || RULES.iter().any(|r| r.id == rule);
                    (known && !reason.is_empty()).then(|| rule.to_string())
                });
            match parsed {
                Some(rule) => allows.push(Allow {
                    line: idx,
                    rule,
                    used: false,
                }),
                None => findings.push(Finding {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: "L101",
                    message: format!(
                        "malformed allow directive {t:?}: expected \
                         `simlint::allow(RULE): reason` with a known rule \
                         id and a non-empty reason"
                    ),
                    snippet: t.chars().take(120).collect(),
                }),
            }
        }
    }
    allows
}

// ---------------------------------------------------------------------
// Pattern matching
// ---------------------------------------------------------------------

/// Identifier-boundary occurrences of `needle` in a code view. The
/// char before an identifier-leading needle must not be an identifier
/// char **or `'`** (so `'static` never matches `static`); the char
/// after an identifier-trailing needle must not be an identifier char
/// (so `Instant` never matches `Instantiate`).
fn token_matches(code: &str, needle: &str) -> bool {
    let lead = needle.chars().next().is_some_and(is_ident);
    let trail = needle.chars().next_back().is_some_and(is_ident);
    for (pos, _) in code.match_indices(needle) {
        if lead {
            let prev = code[..pos].chars().next_back();
            if prev.is_some_and(|c| is_ident(c) || c == '\'') {
                continue;
            }
        }
        if trail {
            let next = code[pos + needle.len()..].chars().next();
            if next.is_some_and(is_ident) {
                continue;
            }
        }
        return true;
    }
    false
}

// ---------------------------------------------------------------------
// Lint driver
// ---------------------------------------------------------------------

/// Crate name from a workspace-relative path like
/// `crates/simnet/src/wifi.rs`.
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Lint one file's source. `path` is the workspace-relative path
/// (forward slashes) — it selects which rules and allowlists apply.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let lines = scan(src);
    let mask = test_mask(&lines);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    let mut allows = collect_allows(path, &lines, &mut findings);
    let krate = crate_of(path).unwrap_or("");

    for rule in RULES {
        if !rule.crates.is_empty() && !rule.crates.contains(&krate) {
            continue;
        }
        if rule.allow_files.iter().any(|s| path.ends_with(s)) {
            continue;
        }
        for (idx, lv) in lines.iter().enumerate() {
            if rule.skip_test_code && mask[idx] {
                continue;
            }
            let Some(needle) = rule.patterns.iter().find(|n| token_matches(&lv.code, n)) else {
                continue;
            };
            // A matching allow on this line or the line above
            // suppresses the finding and is marked used.
            if let Some(a) = allows
                .iter_mut()
                .find(|a| a.rule == rule.id && (a.line == idx || a.line + 1 == idx))
            {
                a.used = true;
                continue;
            }
            findings.push(Finding {
                file: path.to_string(),
                line: idx + 1,
                rule: rule.id,
                message: format!("`{}` — {}", needle.trim(), rule.summary),
                snippet: raw_lines
                    .get(idx)
                    .map(|l| l.trim().chars().take(120).collect())
                    .unwrap_or_default(),
            });
        }
    }

    for a in &allows {
        if !a.used {
            findings.push(Finding {
                file: path.to_string(),
                line: a.line + 1,
                rule: "L100",
                message: format!(
                    "unused allow: no {} finding on this line or the next \
                     — remove the stale directive",
                    a.rule
                ),
                snippet: raw_lines
                    .get(a.line)
                    .map(|l| l.trim().chars().take(120).collect())
                    .unwrap_or_default(),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Recursively collect `.rs` files under `dir`, sorted for
/// deterministic report order.
fn rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            rs_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint every `crates/*/src/**/*.rs` under the workspace root.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no crates/)", root.display()),
        ));
    }
    let mut members: Vec<_> = fs::read_dir(&crates_dir)?.collect::<io::Result<Vec<_>>>()?;
    members.sort_by_key(|e| e.file_name());
    let mut findings = Vec::new();
    for m in members {
        let src_dir = m.path().join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&src_dir, &mut files)?;
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&f)?;
            findings.extend(lint_source(&rel, &src));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_blanks_strings_and_comments() {
        let src = "let x = \"HashMap inside\"; // HashMap in comment\n";
        let lines = scan(src);
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].code.contains("HashMap"));
        assert_eq!(lines[0].comments.len(), 1);
        assert!(lines[0].comments[0].contains("HashMap"));
    }

    #[test]
    fn scanner_handles_raw_strings_and_char_literals() {
        let src = "let r = r#\"panic! inside\"#; let c = '\"'; let l: &'static str = \"x\";\n";
        let lines = scan(src);
        assert!(!lines[0].code.contains("panic!"));
        // The lifetime survives in the code view, apostrophe included.
        assert!(lines[0].code.contains("'static"));
    }

    #[test]
    fn scanner_tracks_nested_block_comments() {
        let src = "/* outer /* inner panic! */ still comment */ let a = 1;\n";
        let lines = scan(src);
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[0].code.contains("let a = 1;"));
    }

    #[test]
    fn test_mask_covers_cfg_test_blocks() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let lines = scan(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(token_matches("let m: HashMap<u32, u32>;", "HashMap"));
        assert!(!token_matches("let m: MyHashMapLike;", "HashMap"));
        assert!(!token_matches("fn is_static() {}", "static"));
        assert!(!token_matches("x: &'static str", "static"));
        assert!(token_matches("static FOO: u32 = 3;", "static"));
        assert!(!token_matches("Instantiate::new()", "Instant"));
    }

    /// Regression for the sharded control plane split: rule selection
    /// keys on the crate segment of the path, so files nested below
    /// `src/` (e.g. `src/controller/region.rs`) must stay covered by
    /// the crate-scoped rules exactly like top-level modules.
    #[test]
    fn nested_module_paths_keep_crate_scoped_rules() {
        for path in [
            "crates/mobistreams/src/controller/region.rs",
            "crates/mobistreams/src/controller/deeper/nested.rs",
        ] {
            assert_eq!(crate_of(path), Some("mobistreams"));
            let panics = lint_source(path, "fn f() { panic!(\"boom\"); }\n");
            assert!(
                panics.iter().any(|f| f.rule == "P001"),
                "P001 missed a panic in {path}: {panics:?}"
            );
            let statics = lint_source(path, "static COUNT: u32 = 0;\n");
            assert!(
                statics.iter().any(|f| f.rule == "D004"),
                "D004 missed a static in {path}: {statics:?}"
            );
        }
        // The experiments crate stays exempt from P001 even in nested
        // modules — same selection logic, opposite outcome.
        let exempt = lint_source(
            "crates/experiments/src/sub/dir.rs",
            "fn f() { panic!(\"boom\"); }\n",
        );
        assert!(!exempt.iter().any(|f| f.rule == "P001"));
    }
}

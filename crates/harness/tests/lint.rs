//! In-tree repo lint: mechanical source checks the compiler does not
//! enforce, run as a tier-1 test (and in CI next to clippy).
//!
//! Four rules, all budgeted by `lint_allowlist.txt`:
//!
//! * **no-unwrap** — `.unwrap()` / `.expect(` outside `#[cfg(test)]`
//!   in the hot-path modules (`uarch::core`, `mem::cache`,
//!   `mem::mshr`, `mem::backing`, `mem::tlb`) and the outside-input
//!   ones (`isa::program`, which builds images from wire data,
//!   `obs::json`, `harness::proto`, `harness::store`,
//!   `harness::intern`, which holds programs decoded from wire lines,
//!   `serve`, `rv32::loader`, and the analyzer modules `analyze --scan`
//!   runs over an outside image). A
//!   panic in the cycle loop takes down a whole campaign, and one on a
//!   client's line takes down the daemon; recoverable paths must return
//!   errors.
//! * **exhaustive-match** — no `_ =>` arm in a `match` over
//!   [`sdo_isa`]'s `OpClass` / `Instruction` in security-relevant
//!   files: a new instruction class silently falling into a wildcard
//!   arm is exactly how a transmitter escapes taint tracking.
//! * **no-percycle-alloc** — no heap-allocating constructs
//!   (`Vec::new` / `vec![` / `.clone()` / `.collect()` / `Box::new` /
//!   `to_vec()`) in the per-cycle engine files outside the named
//!   cold-path functions ([`COLD_FNS`]): the data-oriented engine's
//!   stages run allocation-free once warm, and a stray `collect()` in
//!   a stage sweep is exactly the regression this guards against.
//! * **decoder-wildcard** — no `_ =>` arm at all in the RV32 decoder:
//!   every encoding must either decode or map to a typed
//!   `Unsupported` error naming the pc and word. A wildcard arm is how
//!   an unimplemented encoding silently decodes as something else —
//!   the budget is 0 and stays 0.
//! * **no-trunc-cast** — no truncating `as` casts (`as u8`/`u16`/
//!   `u32`/`i8`/`i16`/`i32`) in the RV32 lowering pass or the
//!   analyzer's abstract-memory module: width discipline (the sext32
//!   invariant, `i64` effective addresses) is exactly where a silent
//!   truncation breaks soundness. Use the from_le_bytes helpers or
//!   `i64::from` widenings instead — the budget is 0 and stays 0.
//!
//! The allowlist pins the *current* count per (file, rule). The check
//! is a ratchet in both directions: exceeding the budget fails (fix
//! the code or consciously raise the budget in review), and beating
//! it fails too (lower the budget so the improvement sticks).
//!
//! One more check has no budget: every `cargo … -p <package>` command
//! in the docs and the CI workflow ([`DOC_COMMAND_FILES`]) names a
//! package under `crates/`, and the `--bin`/`--bench` target it names
//! exists there.

use std::path::{Path, PathBuf};

/// Files where panicking helpers are forbidden outside tests: the hot
/// path, where a panic takes down a whole campaign, and the code that
/// reads outside input (wire lines, store files, ELF images), which must
/// turn bad input into a typed error rather than a dead daemon.
const NO_UNWRAP: &[&str] = &[
    "crates/uarch/src/core.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/mshr.rs",
    "crates/mem/src/backing.rs",
    "crates/mem/src/tlb.rs",
    "crates/isa/src/program.rs",
    "crates/obs/src/json.rs",
    "crates/harness/src/proto.rs",
    "crates/harness/src/store.rs",
    "crates/harness/src/intern.rs",
    "crates/harness/src/runner.rs",
    "crates/serve/src/lib.rs",
    "crates/rv32/src/loader.rs",
    "crates/analyze/src/callgraph.rs",
    "crates/analyze/src/cfg.rs",
    "crates/analyze/src/taint.rs",
    "crates/analyze/src/memory.rs",
    "crates/analyze/src/scan.rs",
];

/// Security-relevant files where `OpClass`/`Instruction` matches must
/// be exhaustive (no `_ =>`).
const EXHAUSTIVE_MATCH: &[&str] = &[
    "crates/uarch/src/core.rs",
    "crates/analyze/src/taint.rs",
    "crates/analyze/src/cfg.rs",
    "crates/analyze/src/callgraph.rs",
    "crates/verify/src/oracle.rs",
    "crates/obs/src/trace.rs",
];

/// Decoder files where every `_ =>` arm is forbidden (budget 0): an
/// encoding either decodes or becomes a typed `Unsupported` error.
const DECODER_WILDCARD: &[&str] = &["crates/rv32/src/decode.rs"];

/// Width-discipline files where truncating `as` casts are forbidden
/// (budget 0): the lowering pass keeps every RV32 register
/// sign-extended to 64 bits and the abstract memory keys regions off
/// exact `i64` offsets — one silent `as u32` breaks either invariant.
const NO_TRUNC_CAST: &[&str] =
    &["crates/rv32/src/lower.rs", "crates/analyze/src/memory.rs"];

/// Truncating cast patterns (64-bit and pointer-width targets are
/// fine; narrowing ones are not).
const TRUNC_CAST_PATTERNS: &[&str] =
    &["as u8", "as u16", "as u32", "as i8", "as i16", "as i32"];

/// Per-cycle engine files where heap allocation is forbidden outside
/// the cold-path functions below.
const NO_PERCYCLE_ALLOC: &[&str] = &[
    "crates/uarch/src/core.rs",
    "crates/uarch/src/rob.rs",
    "crates/uarch/src/sched.rs",
];

/// Functions exempt from `no-percycle-alloc`: construction/configuration
/// (run once per core) and diagnostics (never on the cycle loop).
const COLD_FNS: &[&str] = &[
    "new",
    "empty",
    "identity",
    "build_predictor",
    "record_commits",
    "enable_obs",
    "debug_head",
];

/// Allocation patterns the per-cycle rule looks for.
const ALLOC_PATTERNS: &[&str] =
    &["Vec::new", "vec![", ".clone()", ".collect()", "Box::new", "to_vec()"];

/// Docs and workflow whose `cargo` commands must name real targets.
const DOC_COMMAND_FILES: &[&str] = &[
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

const ALLOWLIST: &str = include_str!("lint_allowlist.txt");

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root").into()
}

/// Budget for (file, rule) from the allowlist; 0 when absent.
fn budget(path: &str, rule: &str) -> usize {
    for line in ALLOWLIST.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (p, r, n) = (parts.next(), parts.next(), parts.next());
        assert!(
            n.is_some() && parts.next().is_none(),
            "malformed allowlist line: '{line}' (want '<path> <rule> <count>')"
        );
        if p == Some(path) && r == Some(rule) {
            return n.and_then(|v| v.parse().ok()).expect("numeric budget");
        }
    }
    0
}

/// The portion of a source file before its `#[cfg(test)]` module, with
/// comment-only lines dropped.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let t = line.trim_start();
        if t.starts_with("//") {
            continue;
        }
        out.push((i + 1, line));
    }
    out
}

fn indent_of(text: &str) -> usize {
    text.len() - text.trim_start().len()
}

/// Line numbers of `_ =>` arms whose enclosing `match` has an
/// `OpClass::` or `Instruction::` arm — i.e. wildcard arms that would
/// swallow a newly added instruction kind. Relies on rustfmt layout:
/// arms sit exactly one level deeper than their `match` header.
fn wildcard_arm_lines(text: &str) -> Vec<usize> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.trim_start().starts_with("_ =>") {
            continue;
        }
        let ind = indent_of(line);
        // Nearest enclosing construct: first line above with smaller
        // indentation. For a match arm that is the match header.
        let Some(header) = (0..i).rev().find(|&j| {
            !lines[j].trim().is_empty() && indent_of(lines[j]) < ind
        }) else {
            continue;
        };
        if !lines[header].contains("match ") {
            continue;
        }
        let sibling_arms = (header + 1..i).filter(|&j| indent_of(lines[j]) == ind);
        let mut arms = sibling_arms.map(|j| lines[j]);
        if arms.any(|a| a.contains("OpClass::") || a.contains("Instruction::")) {
            out.push(i + 1);
        }
    }
    out
}

/// Allocation-pattern hits outside [`COLD_FNS`], as `(line, detail)`.
/// Lines are attributed to the most recent `fn` item header; rustfmt
/// layout keeps this exact for the engine files.
fn percycle_alloc_hits(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut current_fn: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let t = line.trim_start();
        if t.starts_with("//") {
            continue;
        }
        if let Some(pos) = t.find("fn ") {
            // Function item headers only: `fn` first on the line or
            // preceded by visibility — not `-> fn(...)` pointer types.
            let head = t[..pos].trim_end();
            if head.is_empty() || head == "pub" || head.starts_with("pub(") {
                let name: String = t[pos + 3..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    current_fn = Some(name);
                }
            }
        }
        if current_fn.as_deref().is_some_and(|f| COLD_FNS.contains(&f)) {
            continue;
        }
        for p in ALLOC_PATTERNS {
            if line.contains(p) {
                let f = current_fn.as_deref().unwrap_or("<module scope>");
                out.push((i + 1, format!("`{p}` in {f} (line {})", i + 1)));
            }
        }
    }
    out
}

/// Truncating-cast hits in non-test, non-comment lines, word-bounded
/// on both sides (so `bias u8` or `as usize` never match).
fn trunc_cast_hits(text: &str) -> Vec<usize> {
    let boundary = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut out = Vec::new();
    for (n, line) in non_test_lines(text) {
        for p in TRUNC_CAST_PATTERNS {
            for (idx, _) in line.match_indices(p) {
                let before = line[..idx].chars().next_back();
                let after = line[idx + p.len()..].chars().next();
                if boundary(before) && boundary(after) {
                    out.push(n);
                }
            }
        }
    }
    out
}

/// One `-p <package>` of a `cargo` command: its 1-based line, the
/// package, and the `(kind, name)` of the `--bin`/`--bench` target
/// that follows it on the line, if any.
type CargoTarget = (usize, String, Option<(&'static str, String)>);

/// Every `-p <package>` (with its target) of the `cargo` commands in
/// `text`. A command runs from a `cargo` word to the end of the line,
/// a `--` (the binary's own arguments follow) or a shell separator;
/// markdown backticks and punctuation around a word are ignored.
fn cargo_targets(text: &str) -> Vec<CargoTarget> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut words = line
            .split_whitespace()
            .map(|w| w.trim_matches(|c: char| "`()[],.;:'\"".contains(c)));
        let mut in_cargo = false;
        let mut package: Option<String> = None;
        while let Some(word) = words.next() {
            let kind = match word {
                "cargo" => {
                    in_cargo = true;
                    continue;
                }
                "--" | "#" | "|" | "&&" | ">" => {
                    in_cargo = false;
                    continue;
                }
                "-p" | "--package" if in_cargo => None,
                "--bin" if in_cargo => Some("bin"),
                "--bench" if in_cargo => Some("bench"),
                _ => continue,
            };
            let Some(value) = words.next() else { break };
            match kind {
                None => {
                    if let Some(previous) = package.replace(value.to_string()) {
                        out.push((i + 1, previous, None));
                    }
                }
                Some(kind) => {
                    if let Some(package) = package.take() {
                        out.push((i + 1, package, Some((kind, value.to_string()))));
                    }
                }
            }
        }
        if let Some(package) = package {
            out.push((i + 1, package, None));
        }
    }
    out
}

/// The `name = "…"` values of every `header` section of a Cargo
/// manifest (`[package]`, `[[bin]]`, …).
fn manifest_names<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if inside {
            let value = line.strip_prefix("name").map(str::trim_start);
            if let Some(value) = value.and_then(|v| v.strip_prefix('=')) {
                out.push(value.trim().trim_matches('"'));
            }
        }
    }
    out
}

#[test]
fn doc_commands_name_real_targets() {
    let root = workspace_root();
    let mut packages = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let name = manifest_names(&manifest, "[package]").first().expect("package name").to_string();
        packages.insert(name, (dir, manifest));
    }
    let mut failures = Vec::new();
    for file in DOC_COMMAND_FILES {
        let text = std::fs::read_to_string(root.join(file)).expect(file);
        for (line, package, target) in cargo_targets(&text) {
            let Some((dir, manifest)) = packages.get(&package) else {
                failures.push(format!("{file}:{line}: no package `{package}` under crates/"));
                continue;
            };
            let Some((kind, name)) = target else { continue };
            let found = if kind == "bin" {
                dir.join("src/bin").join(format!("{name}.rs")).exists()
                    || manifest_names(manifest, "[[bin]]").contains(&name.as_str())
            } else {
                dir.join("benches").join(format!("{name}.rs")).exists()
            };
            if !found {
                failures.push(format!("{file}:{line}: package `{package}` has no {kind} `{name}`"));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn width_discipline_files_have_no_truncating_casts_beyond_budget() {
    let root = workspace_root();
    let mut failures = Vec::new();
    for path in NO_TRUNC_CAST {
        let text = std::fs::read_to_string(root.join(path)).expect(path);
        let hits = trunc_cast_hits(&text);
        let allowed = budget(path, "no-trunc-cast");
        if hits.len() > allowed {
            failures.push(format!(
                "{path}: truncating casts at lines {hits:?} ({} > budget {allowed}) — \
                 use the as_signed/as_unsigned/sext32 from_le_bytes helpers or an \
                 infallible From widening; a silent truncation here breaks the \
                 sext32 / region-offset invariant",
                hits.len()
            ));
        } else if hits.len() < allowed {
            failures.push(format!(
                "{path}: {} truncating casts but budget is {allowed} — lower the budget \
                 in lint_allowlist.txt so the improvement sticks",
                hits.len()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn percycle_engine_files_do_not_allocate_beyond_budget() {
    let root = workspace_root();
    let mut failures = Vec::new();
    for path in NO_PERCYCLE_ALLOC {
        let text = std::fs::read_to_string(root.join(path)).expect(path);
        let hits = percycle_alloc_hits(&text);
        let allowed = budget(path, "no-percycle-alloc");
        if hits.len() > allowed {
            let details: Vec<&str> = hits.iter().map(|(_, d)| d.as_str()).collect();
            failures.push(format!(
                "{path}: heap allocation on the cycle path ({} > budget {allowed}): {} — \
                 reuse a scratch buffer (see Core::scratch_slots / event_buf), or move \
                 the work into a cold-path fn listed in COLD_FNS",
                hits.len(),
                details.join(", ")
            ));
        } else if hits.len() < allowed {
            failures.push(format!(
                "{path}: only {} allocation sites but budget is {allowed} — lower the \
                 budget in lint_allowlist.txt so the improvement sticks",
                hits.len()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn hot_path_modules_do_not_unwrap_beyond_budget() {
    let root = workspace_root();
    let mut failures = Vec::new();
    for path in NO_UNWRAP {
        let text = std::fs::read_to_string(root.join(path)).expect(path);
        let count: usize = non_test_lines(&text)
            .iter()
            .map(|(_, l)| l.matches(".unwrap()").count() + l.matches(".expect(").count())
            .sum();
        let allowed = budget(path, "no-unwrap");
        if count > allowed {
            failures.push(format!(
                "{path}: {count} unwrap()/expect() outside tests exceeds budget {allowed} — \
                 return an error instead, or raise the budget in lint_allowlist.txt"
            ));
        } else if count < allowed {
            failures.push(format!(
                "{path}: only {count} unwrap()/expect() but budget is {allowed} — \
                 lower the budget in lint_allowlist.txt so the improvement sticks"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn security_relevant_matches_are_exhaustive_within_budget() {
    let root = workspace_root();
    let mut failures = Vec::new();
    for path in EXHAUSTIVE_MATCH {
        let text = std::fs::read_to_string(root.join(path)).expect(path);
        let hits = wildcard_arm_lines(&text);
        let allowed = budget(path, "exhaustive-match");
        if hits.len() > allowed {
            failures.push(format!(
                "{path}: `_ =>` arms on OpClass/Instruction matches at lines {hits:?} \
                 ({} > budget {allowed}) — enumerate the variants so new instruction \
                 kinds are a compile error, or raise the budget in lint_allowlist.txt",
                hits.len()
            ));
        } else if hits.len() < allowed {
            failures.push(format!(
                "{path}: {} wildcard arms but budget is {allowed} — lower the budget \
                 in lint_allowlist.txt so the improvement sticks",
                hits.len()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn decoder_files_have_no_wildcard_arms_beyond_budget() {
    // Stricter than `exhaustive-match`: in a decoder, ANY `_ =>` arm
    // (not just over OpClass/Instruction) can swallow an encoding, so
    // all of them count.
    let root = workspace_root();
    let mut failures = Vec::new();
    for path in DECODER_WILDCARD {
        let text = std::fs::read_to_string(root.join(path)).expect(path);
        let hits: Vec<usize> = non_test_lines(&text)
            .iter()
            .filter(|(_, l)| l.trim_start().starts_with("_ =>"))
            .map(|&(n, _)| n)
            .collect();
        let allowed = budget(path, "decoder-wildcard");
        if hits.len() > allowed {
            failures.push(format!(
                "{path}: wildcard arms at lines {hits:?} ({} > budget {allowed}) — decode \
                 the encoding or return a typed Unsupported error carrying pc and word; \
                 a decoder wildcard silently mis-decodes future encodings",
                hits.len()
            ));
        } else if hits.len() < allowed {
            failures.push(format!(
                "{path}: {} wildcard arms but budget is {allowed} — lower the budget \
                 in lint_allowlist.txt so the improvement sticks",
                hits.len()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn allowlist_entries_reference_linted_files() {
    // Stale allowlist entries (renamed files, rules that no longer
    // apply) silently re-open the hole they once budgeted.
    for line in ALLOWLIST.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let path = parts.next().expect("path");
        let rule = parts.next().expect("rule");
        match rule {
            "no-unwrap" => assert!(NO_UNWRAP.contains(&path), "stale entry: {line}"),
            "exhaustive-match" => {
                assert!(EXHAUSTIVE_MATCH.contains(&path), "stale entry: {line}");
            }
            "no-percycle-alloc" => {
                assert!(NO_PERCYCLE_ALLOC.contains(&path), "stale entry: {line}");
            }
            "decoder-wildcard" => {
                assert!(DECODER_WILDCARD.contains(&path), "stale entry: {line}");
            }
            "no-trunc-cast" => {
                assert!(NO_TRUNC_CAST.contains(&path), "stale entry: {line}");
            }
            other => panic!("unknown rule '{other}' in allowlist line: {line}"),
        }
        assert!(workspace_root().join(path).exists(), "allowlisted file missing: {path}");
    }
}

#[cfg(test)]
mod detector_tests {
    use super::*;

    #[test]
    fn wildcard_detector_flags_opclass_matches_only() {
        let flagged = "\
fn f(c: OpClass) {
    match c {
        OpClass::Load => a(),
        _ => b(),
    }
}
";
        assert_eq!(wildcard_arm_lines(flagged), vec![4]);
        let benign = "\
fn f(w: MemWidth) {
    match w {
        MemWidth::Byte => a(),
        _ => b(),
    }
}
";
        assert!(wildcard_arm_lines(benign).is_empty());
        let nested = "\
fn f(i: &Instruction) {
    match i {
        Instruction::Load { .. } => match width {
            MemWidth::Byte => a(),
            _ => b(),
        },
        _ => c(),
    }
}
";
        // The inner MemWidth wildcard is fine; the outer Instruction
        // wildcard is flagged.
        assert_eq!(wildcard_arm_lines(nested), vec![7]);
    }

    #[test]
    fn alloc_detector_exempts_cold_fns_and_flags_stages() {
        let text = "\
impl Core {
    pub fn new() -> Self {
        let v = Vec::new(); // cold: allowed
        Self { v }
    }

    fn issue_stage(&mut self) {
        let snapshot = self.iq.clone();
        let seqs: Vec<u64> = snapshot.iter().collect();
    }
}
";
        let hits = percycle_alloc_hits(text);
        let lines: Vec<usize> = hits.iter().map(|&(l, _)| l).collect();
        assert_eq!(lines, vec![8, 9]);
        // `fn` pointer types must not reset the current function.
        let ptr = "\
fn hot(&self) -> fn(&mut B) -> &mut u32 {
    let x = y.clone();
}
";
        assert_eq!(percycle_alloc_hits(ptr).len(), 1);
    }

    #[test]
    fn trunc_cast_detector_is_word_bounded() {
        let text = "\
fn f(x: u64) -> u32 {
    let a = x as u32; // flagged
    let b = x as u64; // widening target: fine
    let c = x as usize; // pointer width: fine
    let d = alias_u8(x); // identifier containing the letters: fine
}
";
        assert_eq!(trunc_cast_hits(text), vec![2]);
        // Comment-only lines are dropped before matching.
        let commented = "// let a = x as u32;\nlet b = y as i16;\n";
        assert_eq!(trunc_cast_hits(commented), vec![2]);
    }

    #[test]
    fn cargo_target_parser_pairs_packages_with_targets() {
        let text = "\
Run `cargo run --release -p sdo-harness --bin all -- --jobs 2` (or `--bin fig6`).
cargo build --release -p sdo-analyze -p sdo-harness
cargo bench -p sdo-gone
mkdir -p out && cargo test -p sdo-harness --test lint
";
        let owned = |p: &str| p.to_string();
        assert_eq!(
            cargo_targets(text),
            vec![
                (1, owned("sdo-harness"), Some(("bin", owned("all")))),
                (2, owned("sdo-analyze"), None),
                (2, owned("sdo-harness"), None),
                (3, owned("sdo-gone"), None),
                (4, owned("sdo-harness"), None),
            ]
        );
        let manifest = "[package]\nname = \"x\"\n\n[[bin]]\nname = \"y\"\npath = \"src/y.rs\"\n";
        assert_eq!(manifest_names(manifest, "[package]"), vec!["x"]);
        assert_eq!(manifest_names(manifest, "[[bin]]"), vec!["y"]);
    }

    #[test]
    fn non_test_scan_stops_at_test_module_and_skips_comments() {
        let text = "\
fn a() { x.unwrap(); } // real
// x.unwrap() in a comment
#[cfg(test)]
mod tests { fn b() { y.unwrap(); } }
";
        let lines = non_test_lines(text);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].0, 1);
    }
}

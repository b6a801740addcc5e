//! Each harness binary's CLI wiring, checked through the built
//! executables: `--help` prints the binary's own usage page and exits
//! 0, and an argument the binary does not know is a usage error (exit
//! 2) raised before anything simulates.

use std::process::{Command, Output};

/// The binaries that take options only (`usage: <name> [options]`).
const OPTION_ONLY_BINS: &[(&str, &str)] = &[
    ("all", env!("CARGO_BIN_EXE_all")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("rv32", env!("CARGO_BIN_EXE_rv32")),
    ("sensitivity", env!("CARGO_BIN_EXE_sensitivity")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
];

fn run(name: &str, exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().unwrap_or_else(|e| panic!("{name} did not start: {e}"))
}

#[test]
fn help_prints_the_binarys_own_usage_and_exits_0() {
    for &(name, exe) in OPTION_ONLY_BINS {
        let out = run(name, exe, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.starts_with(&format!("usage: {name} ")), "{name} --help printed: {usage}");
    }
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    for &(name, exe) in OPTION_ONLY_BINS {
        let out = run(name, exe, &["--no-such-flag"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} --no-such-flag: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn all_rejects_bench_out_without_writing_a_file() {
    let dir = std::env::temp_dir().join(format!("sdo-cli-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--bench-out", "x"])
        .current_dir(&dir)
        .output()
        .expect("all starts");
    let written = dir.join("x").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!written, "all wrote the file it was given");
}

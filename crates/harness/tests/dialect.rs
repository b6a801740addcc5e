//! One command-line dialect across the harness binaries: an option that
//! takes a value accepts `--flag value` and `--flag=value` alike, and an
//! argument a binary does not declare is `unexpected argument '<arg>'`,
//! exit 2, even where another binary declares it.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().unwrap_or_else(|e| panic!("{exe} did not start: {e}"))
}

#[test]
fn run_takes_both_spellings_with_the_same_output() {
    let prog = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs/figure1.s");
    let exe = env!("CARGO_BIN_EXE_run");
    let spaced = run(exe, &["--variant", "hybrid", "--attack", "futuristic", prog]);
    let joined = run(exe, &["--variant=hybrid", "--attack=futuristic", prog]);
    for out in [&spaced, &joined] {
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let stdout = String::from_utf8_lossy(&joined.stdout);
    assert!(stdout.starts_with("figure1 under Hybrid / Futuristic:"), "{stdout}");
    assert_eq!(joined.stdout, spaced.stdout);
}

#[test]
fn an_option_the_binary_does_not_declare_is_unexpected() {
    // table1 simulates nothing, so it takes no --jobs; compare takes its
    // variants as positionals, so --variant is no kernel name.
    for (name, exe, args) in [
        ("table1", env!("CARGO_BIN_EXE_table1"), &["--jobs", "4"][..]),
        ("compare", env!("CARGO_BIN_EXE_compare"), &["--variant", "hybrid"]),
    ] {
        let out = run(exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        let unexpected = format!("{name}: unexpected argument '{}'\n", args[0]);
        assert!(stderr.starts_with(&unexpected), "{name} {args:?}: {stderr}");
    }
}

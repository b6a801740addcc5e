//! A shared option that `pentest` or `verify` does not declare is an
//! undeclared argument like any other: `unexpected argument '<arg>'`,
//! exit 2, before anything simulates.

use std::process::Command;

#[test]
fn shared_options_a_binary_does_not_declare_are_unexpected() {
    for (name, exe, args) in [
        ("pentest", env!("CARGO_BIN_EXE_pentest"), &["--seed", "3"][..]),
        ("pentest", env!("CARGO_BIN_EXE_pentest"), &["--seed=3"]),
        ("verify", env!("CARGO_BIN_EXE_verify"), &["--metrics", "m"]),
        ("verify", env!("CARGO_BIN_EXE_verify"), &["--csv"]),
    ] {
        let out = Command::new(exe).args(args).output().expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        let unexpected = format!("{name}: unexpected argument '{}'\n", args[0]);
        assert!(stderr.starts_with(&unexpected), "{name} {args:?}: {stderr}");
    }
}

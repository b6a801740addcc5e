//! `verify`'s command line: campaign runs carry in-process observability
//! and are never cached or served, so the client flags the figure
//! binaries take are unknown arguments here, rejected before anything
//! simulates.

use std::process::Command;

#[test]
fn client_flags_are_usage_errors() {
    for args in [&["--server", "x"][..], &["--server=x"], &["--store", "d"], &["--no-cache"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_verify"))
            .args(args)
            .output()
            .expect("verify starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "verify {args:?}: {stderr}");
        let unexpected = format!("verify: unexpected argument '{}'", args[0]);
        assert!(stderr.starts_with(&unexpected), "verify {args:?}: {stderr}");
    }
}

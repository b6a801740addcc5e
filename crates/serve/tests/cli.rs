//! The `serve` binary's command line: it declares `--jobs`, `--socket`
//! and its own `--store`, and any other option, shared or not, is
//! `unexpected argument '<arg>'`, exit 2, before the daemon starts.

use std::process::{Command, Stdio};

#[test]
fn an_undeclared_option_is_unexpected() {
    for args in [&["--csv"][..], &["--metrics", "m"], &["--server", "s"], &["--no-cache"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("serve starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "serve {args:?}: {stderr}");
        let unexpected = format!("serve: unexpected argument '{}'\n", args[0]);
        assert!(stderr.starts_with(&unexpected), "serve {args:?}: {stderr}");
    }
}

//! `analyze`'s command line speaks the shared dialect: an option it does
//! not declare is `unexpected argument '<arg>'`, exit 2, as on every
//! other binary.

use std::process::Command;

#[test]
fn an_undeclared_option_is_unexpected() {
    for args in [&["--bogus"][..], &["--bogus=1"], &["--server", "x"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
            .args(args)
            .output()
            .expect("analyze starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "analyze {args:?}: {stderr}");
        let unexpected = format!("analyze: unexpected argument '{}'\n", args[0]);
        assert!(stderr.starts_with(&unexpected), "analyze {args:?}: {stderr}");
    }
}

//! `quonto-server` command-line handling: a malformed flag value is a
//! usage error (status 2), never a silent fallback to the default.

use std::process::Command;

fn quonto_server(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_quonto-server"))
        .args(args)
        .output()
        .expect("quonto-server runs")
}

#[test]
fn unparseable_numeric_flags_exit_with_usage() {
    for flag in ["--workers", "--queue", "--scale", "--seed", "--summary-s"] {
        let out = quonto_server(&[flag, "two", "--smoke"]);
        assert_eq!(out.status.code(), Some(2), "{flag} two");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: quonto-server"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} must not start a server");
    }
}

#[test]
fn shards_flag_is_unknown() {
    let out = quonto_server(&["--shards", "4", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
}

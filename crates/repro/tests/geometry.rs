//! End-to-end tests of the `geometry` binary's argument checks: values
//! the simulator cannot host exit 2 with a typed message, never a panic
//! or an aborted allocation.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_geometry")).args(args).output().expect("spawn geometry")
}

#[test]
fn unhostable_values_exit_two_without_panicking() {
    let out_dir =
        std::env::temp_dir().join(format!("locality-geometry-test-{}", std::process::id()));
    for (flag, value, message) in [
        ("--page-size", "32", "at least 64"),
        ("--geometry", "4294967296x4294967296", "capped at"),
        ("--geometry", "1099511627776x1", "capped at"),
    ] {
        let out = run(&["--scale", "small", "--out", out_dir.to_str().unwrap(), flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(message), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
    assert!(!out_dir.exists(), "a rejected run must not write output");
}

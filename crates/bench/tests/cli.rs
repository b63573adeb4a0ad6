//! The runner's command line: a name it does not know runs nothing, exits
//! non-zero, and lists the names it does know.

use std::process::Command;

#[test]
fn an_unknown_experiment_exits_non_zero_and_lists_the_valid_names() {
    for args in [&["e4", "e99"][..], &["--smoke"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_gcx-paper"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
        let stderr = String::from_utf8(out.stderr).unwrap();
        for name in [
            "e4", "e5", "e6", "e7", "e8", "e9", "e11", "e12", "e13", "a1", "a2", "a3", "all",
        ] {
            assert!(
                stderr.split_whitespace().any(|w| w == name),
                "{args:?}: `{name}` missing from {stderr:?}"
            );
        }
    }
}

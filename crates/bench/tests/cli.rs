//! The harness binaries refuse flags they do not know and values that
//! do not parse: exit status 2 and an `error:` line naming the flag,
//! before any experiment runs.

use std::process::Command;

const BINARIES: [&str; 5] = [
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_table2"),
    env!("CARGO_BIN_EXE_tables"),
    env!("CARGO_BIN_EXE_figures"),
    env!("CARGO_BIN_EXE_ablation"),
];

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for bin in BINARIES {
        for (args, flag) in [
            (["--grid", "abc"], "--grid"),
            (["--threads", "1"], "--threads"),
        ] {
            let out = Command::new(bin).args(args).output().expect("spawn");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(
                stderr.starts_with("error:") && stderr.contains(flag),
                "{bin} {args:?}: {stderr}"
            );
        }
    }
}

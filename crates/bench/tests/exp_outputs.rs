//! Pins the paper-figure outputs: every `exp_*` binary's stdout must
//! equal its committed copy under `tests/expected/` byte for byte. The
//! outputs are deterministic (seeded), independent of build profile and
//! worker count, so any difference is a behaviour change.

use std::process::Command;

fn assert_output(bin: &str, exe: &str) {
    let out = Command::new(exe).output().expect("runs the binary");
    assert!(out.status.success(), "{bin} failed: {out:?}");
    let path = format!("{}/tests/expected/{bin}.txt", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).expect("reads the expected output");
    let actual = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        actual == expected,
        "{bin} stdout differs from {path}:\n{actual}"
    );
}

macro_rules! pin {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            assert_output(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

pin!(
    exp_ablation_pd,
    exp_baselines,
    exp_case1,
    exp_case2,
    exp_fig1,
    exp_fig3,
    exp_fig4,
    exp_fig5,
);

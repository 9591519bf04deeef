//! `ipg info`, `dot`, `layout`, `route` and `solve` take a fixed number
//! of positionals and no flags, and `compare` takes networks only: an
//! unknown flag or an extra positional is a non-zero exit whose error
//! names the argument and that prints nothing on stdout, not a run that
//! silently ignores it or measures the networks before it. One
//! well-formed run per command still succeeds.

use std::process::Command;

/// Exit status, stdout and stderr of one `ipg` run.
fn ipg(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ipg"))
        .args(args)
        .output()
        .expect("spawn ipg");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn fixed_arity_commands_reject_extra_arguments() {
    // (arguments, the argument the error must name)
    let cases: &[(&[&str], &str)] = &[
        (&["info", "q:3", "--bogus"], "`--bogus`"),
        (&["info", "--bogus", "q:3"], "`--bogus`"),
        (&["dot", "q:2", "extra"], "`extra`"),
        (&["layout", "q:3", "extra"], "`extra`"),
        (&["route", "q:3", "0", "7", "--bogus"], "`--bogus`"),
        (&["route", "q:3", "0", "7", "5"], "`5`"),
        (&["solve", "star:4", "1234", "2134", "extra"], "`extra`"),
        (&["solve", "star:4", "1234", "--bogus"], "`--bogus`"),
        (&["compare", "q:3", "--bogus"], "`--bogus`"),
        (&["compare", "--bogus", "q:3"], "`--bogus`"),
    ];
    for &(args, names) in cases {
        let (ok, stdout, stderr) = ipg(args);
        assert!(!ok, "ipg {args:?} must fail");
        assert_eq!(stdout, "", "ipg {args:?} must print nothing on stdout");
        assert!(
            stderr.contains("unexpected argument") && stderr.contains(names),
            "ipg {args:?}: the error must name {names}, got: {stderr}"
        );
    }
}

#[test]
fn fixed_arity_commands_accept_their_arguments() {
    for args in [
        &["info", "q:3"][..],
        &["dot", "q:2"],
        &["layout", "q:3"],
        &["route", "q:3", "0", "7"],
        &["solve", "star:4", "1234", "2134"],
        &["compare", "q:3", "q:4"],
    ] {
        let (ok, _, stderr) = ipg(args);
        assert!(ok, "ipg {args:?} must succeed, got: {stderr}");
    }
}

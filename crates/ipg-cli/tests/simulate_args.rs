//! `ipg simulate` rejects bad input from outside the process — flags,
//! positionals, the rate and the `IPG_DIST_TIMEOUT` knob — with a non-zero
//! exit and an error that names the offending flag or variable, before
//! any simulation runs.

use std::process::Command;

/// Arguments after `simulate`, environment, what the error must name.
type Case<'a> = (&'a [&'a str], &'a [(&'a str, &'a str)], &'a str);

#[test]
fn simulate_rejects_bad_input_with_a_contextual_error() {
    const NET: &str = "hsn:l=2,nucleus=Q2";
    let cases: &[Case] = &[
        (&[NET, "0.02", "--wrokers", "2"], &[], "--wrokers"),
        (&[NET, "--bogus", "0.02"], &[], "--bogus"),
        (&[NET, "0.02", "0.03"], &[], "`0.03`"),
        (&[NET, "nan"], &[], "rate `nan`"),
        (&[NET, "inf"], &[], "rate `inf`"),
        (&[NET, "-0.5"], &[], "rate `-0.5`"),
        (&[NET, "1.5"], &[], "rate `1.5`"),
        (&[NET, "0.02", "--wormhole", "--vcs", "0"], &[], "--vcs"),
        (&[NET, "0.02", "--wormhole", "--flits", "0"], &[], "--flits"),
        (
            &[NET, "0.02", "--trace-interval", "0"],
            &[],
            "--trace-interval",
        ),
        (&[NET, "0.02", "--workers", "0"], &[], "--workers"),
        (
            &[NET, "0.02", "--workers", "2", "--wormhole"],
            &[],
            "--workers",
        ),
        (
            &[NET, "0.02", "--workers", "2"],
            &[("IPG_DIST_TIMEOUT", "abc")],
            "IPG_DIST_TIMEOUT",
        ),
        (
            &[NET, "0.02", "--workers", "2"],
            &[("IPG_DIST_TIMEOUT", "0")],
            "IPG_DIST_TIMEOUT",
        ),
    ];
    for &(args, envs, names) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ipg"))
            .arg("simulate")
            .args(args)
            .envs(envs.iter().copied())
            .output()
            .expect("spawn ipg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "ipg simulate {args:?} {envs:?} must fail; it printed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            stderr.contains(names),
            "ipg simulate {args:?} {envs:?}: the error must name {names}, got: {stderr}"
        );
    }
}

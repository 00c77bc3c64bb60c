//! The `mrmc-client` binary refuses an unknown flag, or a numeric flag
//! whose value does not parse: it exits 2 naming the flag, before it
//! tries to connect.

use std::process::Command;

#[test]
fn unparsable_numeric_flag_exits_2_naming_the_flag() {
    for (flag, bad) in [
        ("--theta", "0,95"),
        ("--kmer", "five"),
        ("--num-hashes", "-1"),
        ("--seed", "0x7"),
        ("--width", "80px"),
    ] {
        // Port 1 on loopback: a client that got as far as connecting
        // would fail there with exit 1 instead.
        let out = Command::new(env!("CARGO_BIN_EXE_mrmc-client"))
            .args(["--addr", "127.0.0.1:1", flag, bad, "stats"])
            .output()
            .expect("run mrmc-client");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.contains(flag) && l.contains(bad)),
            "{flag} {bad}: stderr does not name the flag: {stderr}"
        );
    }
}

#[test]
fn unknown_flag_exits_2_before_connecting() {
    // A removed flag fails like any unknown one, and says which.
    let out = Command::new(env!("CARGO_BIN_EXE_mrmc-client"))
        .args(["--addr", "127.0.0.1:1", "seed", "--canonical"])
        .output()
        .expect("run mrmc-client");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.contains("unknown flag --canonical")),
        "stderr does not name the flag: {stderr}"
    );
}

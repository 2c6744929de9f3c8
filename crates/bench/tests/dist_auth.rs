//! The daemon's shared-token gate, end to end through the real
//! `sfence-dist` binary: against `serve --token-file`, `status` with
//! no token or a wrong one, `submit` with no token and `work` with no
//! token are each refused and exit 1, while `status` with the right
//! token is answered.

mod common;

use common::{run, run_ok, scratch, Serve, DIST};

fn assert_refused(args: &[&str]) {
    let out = run(DIST, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "sfence-dist {args:?} must fail:\n{stderr}"
    );
    assert!(
        stderr.contains("bad token"),
        "sfence-dist {args:?}:\n{stderr}"
    );
}

#[test]
fn clients_without_the_shared_token_are_refused() {
    let dir = scratch("token");
    let good = dir.join("token.txt");
    let bad = dir.join("bad-token.txt");
    std::fs::write(&good, "ci-secret\n").unwrap();
    std::fs::write(&bad, "wrong-secret\n").unwrap();
    let (good, bad) = (good.to_str().unwrap(), bad.to_str().unwrap());
    let daemon = Serve::start("127.0.0.1:0", &["--quiet", "--token-file", good]);
    let addr = daemon.addr.as_str();

    assert_refused(&["status", addr]);
    assert_refused(&["status", addr, "--token-file", bad]);
    assert_refused(&["submit", addr, "--experiment", "smoke", "--no-wait"]);
    assert_refused(&["work", addr, "--quiet"]);

    run_ok(DIST, &["status", addr, "--token-file", good]);
    let _ = std::fs::remove_dir_all(&dir);
}

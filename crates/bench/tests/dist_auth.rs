//! The daemon's shared-token gate, end to end through the real
//! `sfence-dist` binary: against `serve --token-file`, `status` with
//! no token or a wrong one, `submit` with no token and `work` with no
//! token are each refused and exit 1, while `status` with the right
//! token is answered.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

const DIST: &str = env!("CARGO_BIN_EXE_sfence-dist");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfence-dist-auth-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `sfence-dist serve` child, killed when dropped.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `sfence-dist serve 127.0.0.1:0 --token-file TOKEN_FILE` and
/// return it with the address it reports on stderr.
fn serve(token_file: &str) -> (Serve, String) {
    let mut child = Command::new(DIST)
        .args([
            "serve",
            "127.0.0.1:0",
            "--quiet",
            "--token-file",
            token_file,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sfence-dist serve starts");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let serve = Serve(child);
    let addr = line
        .strip_prefix("dist: daemon on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no daemon address in {line:?}"))
        .to_string();
    // Keep draining so the daemon never blocks on a full pipe.
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    (serve, addr)
}

fn dist(args: &[&str]) -> Output {
    Command::new(DIST)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("sfence-dist runs")
}

fn assert_refused(args: &[&str]) {
    let out = dist(args);
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
    let (_daemon, addr) = serve(good);
    let addr = addr.as_str();

    assert_refused(&["status", addr]);
    assert_refused(&["status", addr, "--token-file", bad]);
    assert_refused(&["submit", addr, "--experiment", "smoke", "--no-wait"]);
    assert_refused(&["work", addr, "--quiet"]);

    let out = dist(&["status", addr, "--token-file", good]);
    assert!(
        out.status.success(),
        "status with the right token:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

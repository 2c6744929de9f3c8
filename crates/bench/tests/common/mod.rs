//! Helpers shared by the suites that drive the real binaries: scratch
//! directories, one-shot runs, bounded polling, and a
//! `sfence-dist serve` child that is killed when dropped.

// Each suite compiles this module on its own and uses a subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const DIST: &str = env!("CARGO_BIN_EXE_sfence-dist");
pub const SWEEP: &str = env!("CARGO_BIN_EXE_sfence-sweep");

/// A fresh, empty directory for one test of this process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfence-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary runs")
}

/// [`run`] that must exit 0; returns stdout.
pub fn run_ok(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Poll `done` every 50 ms for up to 60 s; panic naming `what` if it
/// never holds.
pub fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A child process, killed (SIGKILL) when dropped.
pub struct Killed(pub Child);

impl Drop for Killed {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A `sfence-dist serve` child, killed when dropped, with the address
/// it reported and everything it has written to stderr so far.
pub struct Serve {
    _child: Killed,
    pub addr: String,
    stderr: Arc<Mutex<String>>,
}

impl Serve {
    /// Start `sfence-dist serve ADDR ARGS...` and wait for its
    /// `dist: daemon on ADDR` line.
    pub fn start(addr: &str, args: &[&str]) -> Serve {
        let mut child = Command::new(DIST)
            .args(["serve", addr])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sfence-dist serve starts");
        let mut lines = BufReader::new(child.stderr.take().unwrap()).lines();
        let child = Killed(child);
        let line = lines.next().expect("serve prints its address").unwrap();
        let addr = line
            .strip_prefix("dist: daemon on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no daemon address in {line:?}"))
            .to_string();
        // Keep draining so the daemon never blocks on a full pipe.
        let stderr = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&stderr);
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                let mut sink = sink.lock().unwrap();
                sink.push_str(&line);
                sink.push('\n');
            }
        });
        Serve {
            _child: child,
            addr,
            stderr,
        }
    }

    pub fn stderr(&self) -> String {
        self.stderr.lock().unwrap().clone()
    }
}

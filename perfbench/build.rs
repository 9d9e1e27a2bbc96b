//! Records what the host block of every run reports about the build: the
//! compiler, the commit when the tree is a git checkout, and a digest of
//! the measured sources, which identifies the code even without git.

use std::path::{Path, PathBuf};
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    let commit = output(Command::new("git").args(["-C", "..", "rev-parse", "HEAD"]))
        .unwrap_or_else(|| "none".into());

    // FNV-1a over every measured source file, path and contents, in
    // sorted path order.
    let mut paths = Vec::new();
    for root in ["../crates", "../shims", "../Cargo.toml", "../Cargo.lock"] {
        println!("cargo:rerun-if-changed={root}");
        let root = Path::new(root);
        if root.is_dir() {
            files(root, &mut paths);
        } else {
            paths.push(root.to_path_buf());
        }
    }
    paths.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in paths {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}");
}

//! Records the commit and the compiler version for the provenance block of
//! every result. Outside a git checkout the commit reads `unknown`.

use std::path::Path;
use std::process::Command;

fn output(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only the repository this package sits in counts, not a repository around it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize();
    let top = output("git", &["rev-parse", "--show-toplevel"])
        .and_then(|top| Path::new(&top).canonicalize().ok());
    let commit = match (top, root) {
        (Some(top), Ok(root)) if top == root => output("git", &["rev-parse", "HEAD"]),
        _ => None,
    }
    .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-env-changed=RUSTC");
    // Rerun when HEAD moves. A path that does not exist would rerun the script
    // on every build, so only existing ones are named.
    for file in ["HEAD", "logs/HEAD"]
        .into_iter()
        .filter(|_| commit != "unknown")
    {
        if let Some(path) = output(
            "git",
            &["rev-parse", "--path-format=absolute", "--git-path", file],
        ) {
            if Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
}

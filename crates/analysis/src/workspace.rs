//! Workspace discovery: which crates exist, which files belong to each,
//! and the intra-workspace dependency graph.
//!
//! The analyzer reads just enough of each `Cargo.toml` (package name,
//! workspace members, dependency names) with a line-oriented scan — the
//! same offline-first spirit as the vendored crates: no TOML dependency.
//!
//! Scope policy (documented in DESIGN.md §7): production sources only —
//! each member's `src/**`, skipping `tests/`, `benches/`, `examples/`,
//! and `#[cfg(test)]` modules (the latter is handled during
//! extraction). `vendor/` stand-ins are included but marked
//! [`CrateInfo::vendored`]: only the `unsafe_audit` pass looks at them —
//! their function bodies stay out of the model so call resolution never
//! aliases workspace names to stand-in stubs. Members under a directory
//! the root `BENCHMARK.json` lists in `paths` are skipped: that file
//! declares them the benchmark, which product changes may not edit, so
//! a finding there is not one the gated change could fix.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Debug)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml` (e.g. `xk-storage`).
    pub name: String,
    /// Directory containing the crate's `Cargo.toml`, relative to root.
    pub dir: PathBuf,
    /// Names of intra-workspace dependencies (direct).
    pub deps: Vec<String>,
    /// Source files, workspace-root-relative.
    pub files: Vec<PathBuf>,
    /// True for `vendor/` stand-ins: scanned by `unsafe_audit` only.
    pub vendored: bool,
}

#[derive(Debug)]
pub struct WorkspaceLayout {
    pub root: PathBuf,
    pub crates: Vec<CrateInfo>,
}

impl WorkspaceLayout {
    /// Transitive intra-workspace dependency closure of `krate`
    /// (inclusive), as crate indices.
    pub fn dep_closure(&self, krate: usize) -> Vec<usize> {
        let by_name: BTreeMap<&str, usize> =
            self.crates.iter().enumerate().map(|(i, c)| (c.name.as_str(), i)).collect();
        let mut seen = vec![false; self.crates.len()];
        let mut stack = vec![krate];
        let mut out = Vec::new();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            out.push(i);
            for dep in &self.crates[i].deps {
                if let Some(&j) = by_name.get(dep.as_str()) {
                    stack.push(j);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Errors from workspace discovery (reported on stderr, exit code 2).
#[derive(Debug)]
pub struct DiscoverError(pub String);

impl std::fmt::Display for DiscoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DiscoverError {}

/// Discovers the workspace rooted at `root`: either a `[workspace]`
/// manifest with member globs, or a single package (the fixture case).
pub fn discover(root: &Path) -> Result<WorkspaceLayout, DiscoverError> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| DiscoverError(format!("cannot read {}: {e}", manifest_path.display())))?;
    let benchmark = benchmark_paths(root);
    let mut crate_dirs: Vec<(PathBuf, bool)> = Vec::new();
    if manifest.contains("[workspace]") {
        for member in manifest_members(&manifest) {
            if let Some(prefix) = member.strip_suffix("/*") {
                let vendored = prefix == "vendor";
                let dir = root.join(prefix);
                let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
                    .map_err(|e| DiscoverError(format!("cannot list {}: {e}", dir.display())))?
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.join("Cargo.toml").is_file())
                    .collect();
                entries.sort();
                crate_dirs.extend(entries.into_iter().map(|e| (e, vendored)));
            } else {
                let vendored = member == "vendor" || member.starts_with("vendor/");
                crate_dirs.push((root.join(member), vendored));
            }
        }
    }
    // A root `[package]` (workspace root package, or a bare fixture crate).
    if manifest.contains("[package]") {
        crate_dirs.push((root.to_path_buf(), false));
    }
    if crate_dirs.is_empty() {
        return Err(DiscoverError(format!(
            "{} declares neither workspace members nor a package",
            manifest_path.display()
        )));
    }
    let mut crates = Vec::new();
    for (dir, vendored) in crate_dirs {
        if benchmark.iter().any(|b| dir.starts_with(b)) {
            continue;
        }
        crates.push(read_crate(root, &dir, vendored)?);
    }
    Ok(WorkspaceLayout { root: root.to_path_buf(), crates })
}

/// The directories `root/BENCHMARK.json` names under `"paths"`, joined
/// onto `root`; empty when the file is absent.
fn benchmark_paths(root: &Path) -> Vec<PathBuf> {
    let Ok(text) = std::fs::read_to_string(root.join("BENCHMARK.json")) else {
        return Vec::new();
    };
    string_array(&text, "\"paths\"").iter().map(|p| root.join(p)).collect()
}

/// Extracts `members = [...]` entries from a manifest.
fn manifest_members(manifest: &str) -> Vec<String> {
    string_array(manifest, "members")
}

/// The string elements of the first `[...]` after `key` — the whole of
/// the TOML/JSON array syntax the two scans above need.
fn string_array(text: &str, key: &str) -> Vec<String> {
    let Some(at) = text.find(key) else { return Vec::new() };
    let Some(open) = text[at..].find('[') else { return Vec::new() };
    let Some(close) = text[at + open..].find(']') else { return Vec::new() };
    text[at + open + 1..at + open + close]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

fn read_crate(root: &Path, dir: &Path, vendored: bool) -> Result<CrateInfo, DiscoverError> {
    let manifest_path = dir.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| DiscoverError(format!("cannot read {}: {e}", manifest_path.display())))?;
    let name = package_name(&manifest).unwrap_or_else(|| {
        dir.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
    });
    let deps = dependency_names(&manifest);
    let mut files = Vec::new();
    let src = dir.join("src");
    if src.is_dir() {
        collect_rs_files(&src, &mut files)
            .map_err(|e| DiscoverError(format!("cannot walk {}: {e}", src.display())))?;
    }
    files.sort();
    let files = files
        .into_iter()
        .map(|f| f.strip_prefix(root).map(Path::to_path_buf).unwrap_or(f))
        .collect();
    Ok(CrateInfo { name, dir: dir.to_path_buf(), deps, files, vendored })
}

fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Direct dependency names from every `[dependencies]`-family section.
/// Workspace-internal names are what matter; external names simply never
/// match a workspace crate.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line.contains("dependencies");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(key) = line.split(['=', '.']).next() else { continue };
        let key = key.trim();
        if key.is_empty() {
            continue;
        }
        // `foo = { package = "real-name", ... }` renames: the package
        // name is what the crate graph uses.
        let name = match line.split("package = \"").nth(1) {
            Some(rest) => rest.split('"').next().unwrap_or(key).to_string(),
            None => key.to_string(),
        };
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_package_and_deps() {
        let manifest = r#"
[package]
name = "xk-storage"

[dependencies]
xk-xmltree.workspace = true
plain = "1.0"
renamed = { path = "vendor/rand", package = "xk-rand" }

[dev-dependencies]
proptest.workspace = true
"#;
        assert_eq!(package_name(manifest).as_deref(), Some("xk-storage"));
        let deps = dependency_names(manifest);
        assert!(deps.contains(&"xk-xmltree".to_string()));
        assert!(deps.contains(&"xk-rand".to_string()), "rename resolved: {deps:?}");
        assert!(deps.contains(&"proptest".to_string()));
    }

    /// A member the root `BENCHMARK.json` lists under `paths` is not
    /// analyzed; its sibling is.
    #[test]
    fn benchmark_paths_are_out_of_scope() {
        let root = std::env::temp_dir().join(format!("xk-analyze-ws-{}", std::process::id()));
        for member in ["product", "harness"] {
            let dir = root.join("crates").join(member);
            std::fs::create_dir_all(dir.join("src")).unwrap();
            std::fs::write(dir.join("Cargo.toml"), format!("[package]\nname = \"{member}\"\n"))
                .unwrap();
            std::fs::write(dir.join("src/lib.rs"), "pub fn f() {}\n").unwrap();
        }
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n").unwrap();
        let names = |root: &Path| -> Vec<String> {
            discover(root).unwrap().crates.into_iter().map(|c| c.name).collect()
        };
        assert_eq!(names(&root), ["harness", "product"]);
        std::fs::write(
            root.join("BENCHMARK.json"),
            "{\n  \"command\": [\"cargo\", \"run\"],\n  \"paths\": [\n    \"crates/harness\"\n  ]\n}\n",
        )
        .unwrap();
        assert_eq!(names(&root), ["product"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn parses_members() {
        let manifest = "[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\n";
        assert_eq!(manifest_members(manifest), ["crates/*", "vendor/*"]);
    }
}

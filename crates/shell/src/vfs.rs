//! A thread-safe in-memory filesystem.
//!
//! Each simulated endpoint host owns one `Vfs`; workers, sandboxes, and
//! shell commands all operate on it. Paths are absolute, `/`-separated, and
//! normalized (`.` and `..` resolved). The tree is a flat map from
//! normalized path to node, with directory existence enforced on create.

use std::collections::BTreeMap;
use std::sync::Arc;

use gcx_core::error::{GcxError, GcxResult};
use parking_lot::RwLock;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Dir,
    File(Vec<u8>),
}

/// A shared in-memory filesystem. Cloning shares the underlying tree.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    inner: Arc<RwLock<BTreeMap<String, Node>>>,
}

/// Normalize a path: make absolute (relative to `cwd`), resolve `.`/`..`,
/// strip duplicate slashes.
pub(crate) fn normalize(path: &str, cwd: &str) -> String {
    let joined = if path.starts_with('/') {
        path.to_string()
    } else {
        format!("{}/{}", cwd.trim_end_matches('/'), path)
    };
    let mut parts: Vec<&str> = Vec::new();
    for seg in joined.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            other => parts.push(other),
        }
    }
    format!("/{}", parts.join("/"))
}

fn parent(path: &str) -> Option<String> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/".to_string()),
        Some(i) => Some(path[..i].to_string()),
        None => None,
    }
}

impl Vfs {
    /// A fresh filesystem containing only `/`.
    pub fn new() -> Self {
        let vfs = Self::default();
        vfs.inner.write().insert("/".to_string(), Node::Dir);
        vfs
    }

    /// Create a directory and any missing ancestors.
    pub fn mkdir_p(&self, path: &str) -> GcxResult<()> {
        let path = normalize(path, "/");
        let mut tree = self.inner.write();
        let mut prefix = String::new();
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            prefix.push('/');
            prefix.push_str(seg);
            match tree.get(&prefix) {
                Some(Node::Dir) => {}
                Some(Node::File(_)) => {
                    return Err(GcxError::Execution(format!(
                        "mkdir: '{prefix}' exists and is a file"
                    )))
                }
                None => {
                    tree.insert(prefix.clone(), Node::Dir);
                }
            }
        }
        tree.entry("/".to_string()).or_insert(Node::Dir);
        Ok(())
    }

    /// Write (create or truncate) a file. The parent directory must exist.
    pub fn write(&self, path: &str, data: &[u8]) -> GcxResult<()> {
        let path = normalize(path, "/");
        let mut tree = self.inner.write();
        Self::check_parent(&tree, &path)?;
        if matches!(tree.get(&path), Some(Node::Dir)) {
            return Err(GcxError::Execution(format!("'{path}' is a directory")));
        }
        tree.insert(path, Node::File(data.to_vec()));
        Ok(())
    }

    /// Append to a file, creating it if missing.
    pub fn append(&self, path: &str, data: &[u8]) -> GcxResult<()> {
        let path = normalize(path, "/");
        let mut tree = self.inner.write();
        Self::check_parent(&tree, &path)?;
        match tree.get_mut(&path) {
            Some(Node::File(existing)) => {
                existing.extend_from_slice(data);
                Ok(())
            }
            Some(Node::Dir) => Err(GcxError::Execution(format!("'{path}' is a directory"))),
            None => {
                tree.insert(path, Node::File(data.to_vec()));
                Ok(())
            }
        }
    }

    fn check_parent(tree: &BTreeMap<String, Node>, path: &str) -> GcxResult<()> {
        if let Some(p) = parent(path) {
            match tree.get(&p) {
                Some(Node::Dir) => Ok(()),
                Some(Node::File(_)) => {
                    Err(GcxError::Execution(format!("'{p}' is not a directory")))
                }
                None => Err(GcxError::Execution(format!("no such directory: '{p}'"))),
            }
        } else {
            Ok(())
        }
    }

    /// Read a file's bytes.
    pub fn read(&self, path: &str) -> GcxResult<Vec<u8>> {
        let path = normalize(path, "/");
        match self.inner.read().get(&path) {
            Some(Node::File(data)) => Ok(data.clone()),
            Some(Node::Dir) => Err(GcxError::Execution(format!("'{path}' is a directory"))),
            None => Err(GcxError::Execution(format!("no such file: '{path}'"))),
        }
    }

    /// Read a file as UTF-8 text.
    pub fn read_to_string(&self, path: &str) -> GcxResult<String> {
        String::from_utf8(self.read(path)?)
            .map_err(|e| GcxError::Execution(format!("'{path}' is not valid utf-8: {e}")))
    }

    /// Does the path exist (file or directory)?
    pub fn exists(&self, path: &str) -> bool {
        self.inner.read().contains_key(&normalize(path, "/"))
    }

    /// Is the path a directory?
    pub(crate) fn is_dir(&self, path: &str) -> bool {
        matches!(
            self.inner.read().get(&normalize(path, "/")),
            Some(Node::Dir)
        )
    }

    /// Immediate children of a directory (names only, sorted).
    pub(crate) fn list(&self, path: &str) -> GcxResult<Vec<String>> {
        let path = normalize(path, "/");
        let tree = self.inner.read();
        if !matches!(tree.get(&path), Some(Node::Dir)) {
            return Err(GcxError::Execution(format!("no such directory: '{path}'")));
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        Ok(tree
            .keys()
            .filter(|k| k.starts_with(&prefix) && *k != &path)
            .filter_map(|k| {
                let rest = &k[prefix.len()..];
                if rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect())
    }

    /// Remove a file, or a directory and its contents (recursive).
    pub(crate) fn remove(&self, path: &str) -> GcxResult<()> {
        let path = normalize(path, "/");
        if path == "/" {
            return Err(GcxError::Execution("cannot remove '/'".into()));
        }
        let mut tree = self.inner.write();
        if !tree.contains_key(&path) {
            return Err(GcxError::Execution(format!(
                "no such file or directory: '{path}'"
            )));
        }
        let prefix = format!("{path}/");
        tree.retain(|k, _| k != &path && !k.starts_with(&prefix));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_paths() {
        assert_eq!(normalize("/a/b/../c", "/"), "/a/c");
        assert_eq!(normalize("x/y", "/home"), "/home/x/y");
        assert_eq!(normalize("./x", "/a"), "/a/x");
        assert_eq!(normalize("../x", "/a/b"), "/a/x");
        assert_eq!(normalize("/", "/"), "/");
        assert_eq!(normalize("//a///b", "/"), "/a/b");
        assert_eq!(normalize("../../..", "/a"), "/");
    }

    #[test]
    fn write_read_roundtrip() {
        let fs = Vfs::new();
        fs.mkdir_p("/work/task1").unwrap();
        fs.write("/work/task1/out.txt", b"hello").unwrap();
        assert_eq!(fs.read_to_string("/work/task1/out.txt").unwrap(), "hello");
        assert!(fs.exists("/work/task1"));
        assert!(fs.is_dir("/work"));
        assert!(!fs.is_dir("/work/task1/out.txt"));
    }

    #[test]
    fn write_requires_parent() {
        let fs = Vfs::new();
        assert!(fs.write("/missing/file", b"x").is_err());
        fs.write("/rootfile", b"x").unwrap();
        assert!(
            fs.write("/rootfile/child", b"x").is_err(),
            "file is not a directory"
        );
    }

    #[test]
    fn append_creates_and_extends() {
        let fs = Vfs::new();
        fs.append("/log", b"a").unwrap();
        fs.append("/log", b"b").unwrap();
        assert_eq!(fs.read("/log").unwrap(), b"ab");
    }

    #[test]
    fn overwrite_truncates() {
        let fs = Vfs::new();
        fs.write("/f", b"long content").unwrap();
        fs.write("/f", b"x").unwrap();
        assert_eq!(fs.read("/f").unwrap(), b"x");
    }

    #[test]
    fn list_children_only() {
        let fs = Vfs::new();
        fs.mkdir_p("/a/b/c").unwrap();
        fs.write("/a/f1", b"").unwrap();
        fs.write("/a/b/f2", b"").unwrap();
        assert_eq!(fs.list("/a").unwrap(), vec!["b", "f1"]);
        assert_eq!(fs.list("/").unwrap(), vec!["a"]);
        assert!(fs.list("/a/f1").is_err());
        assert!(fs.list("/zzz").is_err());
    }

    #[test]
    fn remove_recursive() {
        let fs = Vfs::new();
        fs.mkdir_p("/a/b").unwrap();
        fs.write("/a/b/f", b"x").unwrap();
        fs.write("/a/g", b"y").unwrap();
        fs.remove("/a/b").unwrap();
        assert!(!fs.exists("/a/b/f"));
        assert!(!fs.exists("/a/b"));
        assert!(fs.exists("/a/g"));
        assert!(fs.remove("/a/b").is_err());
        assert!(fs.remove("/").is_err());
    }

    #[test]
    fn mkdir_over_file_fails() {
        let fs = Vfs::new();
        fs.write("/f", b"x").unwrap();
        assert!(fs.mkdir_p("/f/sub").is_err());
    }

    #[test]
    fn clones_share_state() {
        let fs = Vfs::new();
        let fs2 = fs.clone();
        fs.write("/shared", b"x").unwrap();
        assert!(fs2.exists("/shared"));
    }

    #[test]
    fn concurrent_appends_do_not_lose_data() {
        let fs = Vfs::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let fs = fs.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        fs.append("/counter", b".").unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fs.read("/counter").unwrap().len(), 800);
    }
}

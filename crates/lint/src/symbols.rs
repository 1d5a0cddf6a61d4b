//! The workspace symbol table: every parsed function, indexed by name,
//! with its file stem retained for the call graph's qualified-path
//! resolution (`pcap::read_all` resolves via the file stem,
//! `Packet::parse` via the impl owner).

use crate::ast::{FnDef, ParsedFile};
use std::collections::BTreeMap;

/// One function in the workspace.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// File stem (`crates/capture/src/pcap.rs` → `pcap`), for module-
    /// qualified call resolution.
    pub stem: String,
    /// The parsed definition.
    pub def: FnDef,
}

/// All functions across the analyzed file set.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Flat function list; indices are the ids the call graph uses.
    pub fns: Vec<FnSym>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_file: BTreeMap<String, Vec<usize>>,
}

/// File stem for a repo-relative path.
pub fn file_stem(path: &str) -> &str {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.strip_suffix(".rs").unwrap_or(name)
}

impl SymbolTable {
    /// Build the table from parsed files, in the given (sorted) order.
    pub fn build(files: &[(String, ParsedFile)]) -> SymbolTable {
        let mut tab = SymbolTable::default();
        for (path, parsed) in files {
            let mut ids = Vec::with_capacity(parsed.fns.len());
            for def in &parsed.fns {
                let id = tab.fns.len();
                ids.push(id);
                tab.by_name.entry(def.name.clone()).or_default().push(id);
                tab.fns.push(FnSym {
                    file: path.clone(),
                    stem: file_stem(path).to_string(),
                    def: def.clone(),
                });
            }
            tab.by_file.insert(path.clone(), ids);
        }
        tab
    }

    /// Ids of every function with this bare name.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Ids of this file's functions, in source order (parallel to the
    /// file's `ParsedFile::fns`).
    pub fn file_fns(&self, file: &str) -> &[usize] {
        self.by_file.get(file).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_extraction() {
        assert_eq!(file_stem("crates/capture/src/pcap.rs"), "pcap");
    }
}

//! Per-file parse memoization, keyed by content fingerprint.
//!
//! A [`ParseCache`] remembers parse trees (and their parse diagnostics and
//! derived fingerprints) per `(file id, content fingerprint)`. A compile
//! session re-checking after an edit re-parses only the edited files;
//! untouched files hit the cache, and reverting an edit restores the prior
//! tree without re-parsing. Entries are evicted FIFO past a fixed capacity
//! so a long-lived session cannot grow without bound.

use crate::ast::Program;
use crate::fingerprint::{self, Fp};
use genus_common::{Diagnostic, Diagnostics, FastMap, FileId, SourceMap};
use std::sync::Arc;

/// One memoized parse: the tree, its parse diagnostics, and the unit's
/// fingerprints at every sensitivity level.
#[derive(Debug)]
pub struct ParsedUnit {
    /// The parse tree (possibly partial after parse errors).
    pub program: Arc<Program>,
    /// Diagnostics the parse produced, in emission order.
    pub diags: Vec<Diagnostic>,
    /// Fingerprint of the raw text.
    pub content_fp: Fp,
    /// Fingerprint of the declared interface (bodies blanked).
    pub interface_fp: Fp,
    /// Structural fingerprint of the unit's global-environment contribution.
    pub env_fp: Fp,
}

/// A bounded memo table of parses, keyed by `(file, content fingerprint)`.
/// Parses produced outside the cache ([`ParseCache::insert`]) are pinned
/// beside the FIFO and never evicted.
#[derive(Debug, Default)]
pub struct ParseCache {
    map: FastMap<(u32, Fp), Arc<ParsedUnit>>,
    order: Vec<(u32, Fp)>,
    pinned: FastMap<(u32, Fp), Arc<ParsedUnit>>,
    hits: u64,
    misses: u64,
}

/// FIFO eviction bound: plenty for an editing session's back-and-forth
/// while keeping a runaway session at a few hundred retained trees.
const CAPACITY: usize = 256;

impl ParseCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ParseCache::default()
    }

    /// Returns the memoized parse of `file` (whose current text is in `sm`),
    /// parsing and recording it on a miss.
    pub fn get_or_parse(&mut self, sm: &SourceMap, file: FileId, name: &str) -> Arc<ParsedUnit> {
        let src = sm.file(file).src.as_str();
        let content_fp = fingerprint::content_fp(name, src);
        let key = (file.0, content_fp);
        if let Some(u) = self.pinned.get(&key).or_else(|| self.map.get(&key)) {
            self.hits += 1;
            return u.clone();
        }
        self.misses += 1;
        let mut diags = Diagnostics::new();
        let program = crate::parse_program(sm, file, &mut diags);
        let unit = Arc::new(ParsedUnit {
            interface_fp: fingerprint::interface_fp(name, src, &program),
            env_fp: fingerprint::env_fp_part(name, &program),
            program: Arc::new(program),
            diags: diags.iter().cloned().collect(),
            content_fp,
        });
        if self.order.len() >= CAPACITY {
            let oldest = self.order.remove(0);
            self.map.remove(&oldest);
        }
        self.map.insert((file.0, content_fp), unit.clone());
        self.order.push((file.0, content_fp));
        unit
    }

    /// Pins an externally produced parse (e.g. the process-wide stdlib
    /// parse) without consuming miss quota. Pinned parses live outside the
    /// FIFO bound, so no number of edits to other units evicts them.
    pub fn insert(&mut self, file: FileId, unit: Arc<ParsedUnit>) {
        self.pinned.insert((file.0, unit.content_fp), unit);
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Parses a unit outside any cache, producing the same [`ParsedUnit`] shape
/// (used to seed shared caches).
pub fn parse_unit(sm: &SourceMap, file: FileId, name: &str) -> ParsedUnit {
    let src = sm.file(file).src.as_str();
    let mut diags = Diagnostics::new();
    let program = crate::parse_program(sm, file, &mut diags);
    ParsedUnit {
        content_fp: fingerprint::content_fp(name, src),
        interface_fp: fingerprint::interface_fp(name, src, &program),
        env_fp: fingerprint::env_fp_part(name, &program),
        program: Arc::new(program),
        diags: diags.iter().cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_identical_content() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.genus", "void main() { }");
        let mut cache = ParseCache::new();
        let u1 = cache.get_or_parse(&sm, f, "a");
        let u2 = cache.get_or_parse(&sm, f, "a");
        assert!(Arc::ptr_eq(&u1, &u2));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn edit_and_revert_both_hit() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.genus", "void main() { }");
        let mut cache = ParseCache::new();
        let u1 = cache.get_or_parse(&sm, f, "a");
        sm.update_file(f, "void main() { return; }");
        let u2 = cache.get_or_parse(&sm, f, "a");
        assert_ne!(u1.content_fp, u2.content_fp);
        sm.update_file(f, "void main() { }");
        let u3 = cache.get_or_parse(&sm, f, "a");
        assert!(Arc::ptr_eq(&u1, &u3));
        assert_eq!(cache.stats(), (1, 2));
    }
}

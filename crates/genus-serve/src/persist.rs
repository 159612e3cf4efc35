//! Persistent on-disk bytecode: versioned, serde-free artifacts that let
//! a restarted server answer its first request for a known program from
//! disk, skipping the type check entirely (the dominant compile cost).
//!
//! # Artifact layout
//!
//! | bytes | field |
//! |---|---|
//! | 4 | magic `"GNBC"` |
//! | 4 | format version (`u32` LE) — bumped on ANY codec change |
//! | 8 | stdlib fingerprint (`u64` LE) of the stdlib this server ships |
//! | 1 | whether the stdlib was compiled in |
//! | 1 | optimization level |
//! | 4+n | full request source (length-prefixed UTF-8) |
//! | … | bodies-blanked declaration table (`genus_types::serial`) |
//! | … | compiled bytecode (`genus_vm::serialize`) |
//! | 8 | FNV-1a checksum (`u64` LE) of every preceding byte |
//!
//! # Trust model
//!
//! A cache file is advisory, never authoritative: every load re-verifies
//! the magic, format version, stdlib fingerprint, checksum, and — the
//! collision guard — the **full source text** against the request before
//! the artifact is believed. Any mismatch, truncation, or decode error is
//! a miss (recompile and overwrite), never a panic and never a wrong
//! program. Files are written to a temp name and renamed into place, so
//! a crash mid-write cannot leave a truncated artifact under a live key.
//!
//! The file name keys `(content fingerprint, stdlib flag, opt level,
//! format version)`; the stdlib fingerprint lives inside (it shifts with
//! the toolchain, not with the request). Loaded entries carry a
//! **bodies-blanked** table — everything the VM and Tier 2 engines
//! consult at runtime, but no HIR — so the AST engine falls back to a
//! lazy full compile (see `CachedProgram::ast_prog`).

use genus_check::CheckedProgram;
use genus_common::bytes::{ByteReader, ByteWriter};
use genus_common::FnvHasher;
use genus_syntax::fingerprint::{combine_fps, content_fp};
use genus_vm::VmProgram;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Bump on ANY change to the artifact layout **or** to the table/bytecode
/// codecs underneath it (`genus_types::serial`, `genus_vm::serialize`):
/// old files then miss cleanly by name instead of failing checksum reads.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 4] = b"GNBC";

/// Fingerprint of the stdlib sources compiled into this binary. Part of
/// every artifact: a server with a different stdlib must not trust
/// bytecode whose stdlib-derived tables differ.
pub fn stdlib_fp() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        combine_fps(
            genus_stdlib::sources()
                .iter()
                .map(|(name, src)| content_fp(name, src)),
        )
    })
}

/// A directory of bytecode artifacts.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) the artifact directory.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir })
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an artifact for this key lives under.
    pub fn path_for(&self, source: &str, stdlib: bool, opt_level: u8) -> PathBuf {
        let fp = content_fp("request.genus", source);
        self.dir.join(format!(
            "p{fp:016x}-s{}o{opt_level}-v{FORMAT_VERSION}.gbc",
            u8::from(stdlib)
        ))
    }

    /// Loads and fully verifies the artifact for a key. `None` on any
    /// mismatch or decode failure — the caller recompiles (and
    /// overwrites).
    pub fn load(
        &self,
        source: &str,
        stdlib: bool,
        opt_level: u8,
    ) -> Option<(CheckedProgram, VmProgram)> {
        let bytes = std::fs::read(self.path_for(source, stdlib, opt_level)).ok()?;
        decode(&bytes, source, stdlib, opt_level).ok()
    }

    /// Writes the artifact for a key (temp file + rename, so readers
    /// never observe a partial file). Returns whether the write landed;
    /// failures are swallowed — the disk tier is best-effort.
    pub fn store(
        &self,
        source: &str,
        stdlib: bool,
        opt_level: u8,
        prog: &CheckedProgram,
        code: &VmProgram,
    ) -> bool {
        let bytes = encode(source, stdlib, opt_level, prog, code);
        let path = self.path_for(source, stdlib, opt_level);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, &bytes).is_err() {
            return false;
        }
        if std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        true
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// Serializes one artifact.
pub fn encode(
    source: &str,
    stdlib: bool,
    opt_level: u8,
    prog: &CheckedProgram,
    code: &VmProgram,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(stdlib_fp());
    w.bool(stdlib);
    w.u8(opt_level);
    w.str(source);
    genus_types::serial::write_table(&mut w, &prog.table);
    genus_vm::write_program(&mut w, code);
    let mut bytes = w.into_bytes();
    let sum = checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Deserializes and verifies one artifact against the requesting key.
///
/// # Errors
///
/// A human-readable reason the artifact was rejected; callers treat every
/// error as a cache miss.
pub fn decode(
    bytes: &[u8],
    source: &str,
    stdlib: bool,
    opt_level: u8,
) -> Result<(CheckedProgram, VmProgram), String> {
    // Checksum first: nothing else is parsed from a corrupt file.
    if bytes.len() < 8 {
        return Err("artifact shorter than its checksum".to_string());
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if checksum(payload) != stored {
        return Err("artifact checksum mismatch".to_string());
    }
    let mut r = ByteReader::new(payload);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.u8()?;
    }
    if &magic != MAGIC {
        return Err("not a genus bytecode artifact".to_string());
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "artifact format v{version}, this server reads v{FORMAT_VERSION}"
        ));
    }
    let fp = r.u64()?;
    if fp != stdlib_fp() {
        return Err("artifact was compiled against a different stdlib".to_string());
    }
    if r.bool()? != stdlib {
        return Err("artifact stdlib flag mismatch".to_string());
    }
    if r.u8()? != opt_level {
        return Err("artifact opt level mismatch".to_string());
    }
    // The collision guard: the full source decides, never the file name.
    if r.str()? != source {
        return Err("artifact source text differs from the request".to_string());
    }
    let table = genus_types::serial::read_table(&mut r)?;
    let prog = CheckedProgram::from_table(table);
    let code = genus_vm::read_program(&mut r, &prog)?;
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes in artifact", r.remaining()));
    }
    Ok((prog, code))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int main() { int s = 0;
        for (int i = 0; i < 9; i = i + 1) { s = s + i; }
        return s; }";

    fn compiled(src: &str) -> (CheckedProgram, VmProgram) {
        let mut report = genus_check::check_sources_report(&[("request.genus", src)]);
        let prog = report.program.take().expect("compiles");
        let code = genus_vm::compile_optimized(&prog, 2);
        (prog, code)
    }

    #[test]
    fn encode_decode_round_trip_runs() {
        let (prog, code) = compiled(SRC);
        let bytes = encode(SRC, false, 2, &prog, &code);
        let (rprog, rcode) = decode(&bytes, SRC, false, 2).expect("verifies");
        let mut vm = genus_vm::Vm::with_code(&rprog, std::sync::Arc::new(rcode));
        let v = vm.run_main().expect("runs from the blanked table");
        assert_eq!(vm.render(&v), "36");
    }

    #[test]
    fn every_key_field_is_verified() {
        let (prog, code) = compiled(SRC);
        let bytes = encode(SRC, false, 2, &prog, &code);
        assert!(decode(&bytes, SRC, false, 2).is_ok());
        assert!(decode(&bytes, "int main() { return 1; }", false, 2).is_err());
        assert!(decode(&bytes, SRC, true, 2).is_err());
        assert!(decode(&bytes, SRC, false, 0).is_err());
    }

    #[test]
    fn truncation_and_corruption_are_rejected_not_panics() {
        let (prog, code) = compiled(SRC);
        let bytes = encode(SRC, false, 2, &prog, &code);
        // Every prefix fails cleanly.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], SRC, false, 2).is_err(), "cut {cut}");
        }
        // Any single flipped bit fails the checksum (or a later check).
        for i in (0..bytes.len()).step_by(97) {
            let mut c = bytes.clone();
            c[i] ^= 0x40;
            assert!(decode(&c, SRC, false, 2).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn version_bump_is_a_clean_miss() {
        let (prog, code) = compiled(SRC);
        let mut bytes = encode(SRC, false, 2, &prog, &code);
        // Patch the version field and re-checksum: the version check (not
        // the checksum) must reject it, proving old-format files fail by
        // policy even when intact.
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let n = bytes.len();
        let sum = checksum(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes, SRC, false, 2).unwrap_err();
        assert!(err.contains("format"), "{err}");
    }

    #[test]
    fn stdlib_fingerprint_mismatch_is_a_clean_miss() {
        let (prog, code) = compiled(SRC);
        let mut bytes = encode(SRC, false, 2, &prog, &code);
        bytes[8..16].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        let n = bytes.len();
        let sum = checksum(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes, SRC, false, 2).unwrap_err();
        assert!(err.contains("stdlib"), "{err}");
    }

    #[test]
    fn disk_cache_store_then_load() {
        let dir = std::env::temp_dir().join(format!("genus-persist-test-{}", std::process::id()));
        let disk = DiskCache::open(&dir).expect("open");
        let (prog, code) = compiled(SRC);
        assert!(disk.load(SRC, false, 2).is_none(), "cold dir misses");
        assert!(disk.store(SRC, false, 2, &prog, &code));
        let (rprog, rcode) = disk.load(SRC, false, 2).expect("warm dir hits");
        let mut vm = genus_vm::Vm::with_code(&rprog, std::sync::Arc::new(rcode));
        assert_eq!(vm.run_main().map(|v| vm.render(&v)).unwrap(), "36");
        // A poisoned file is a miss, not a panic.
        std::fs::write(disk.path_for(SRC, false, 2), b"garbage").unwrap();
        assert!(disk.load(SRC, false, 2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

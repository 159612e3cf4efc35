//! Compile plumbing for the fuzzer.
//!
//! Every fuzz case is checked under one unit name, [`UNIT_NAME`], in a
//! stdlib-seeded session shared with every other caller through
//! `genus_check::base`: [`compile`] is the one-shot ("scratch") check the
//! incremental oracle compares a warm [`stdlib_session`] against.
//! [`roundtrip`] is the bytecode round-trip oracle's subject. Running
//! programs is not done here: the oracles use `genus_vm::run`, the engine
//! runner the facade and genus-serve use, and compare its `Execution`s.

use genus_check::{CheckReport, CheckedProgram};
use genus_common::{ByteReader, ByteWriter};
use genus_vm::{read_program, write_program, VmProgram};

/// Unit name every fuzz case is checked under.
pub const UNIT_NAME: &str = "fuzz.genus";

pub use genus_check::base::stdlib_session;

/// One-shot ("scratch") compile of a fuzz case: fresh session, stdlib
/// seeded, nothing warm. The incremental oracle compares this against a
/// long-lived session's view of the same source.
pub fn compile(src: &str) -> CheckReport {
    genus_check::base::check_with_stdlib(UNIT_NAME, src)
}

/// Serializes compiled bytecode and reads it back (the round-trip
/// oracle's subject). Errors are the decoder's message.
pub fn roundtrip(code: &VmProgram, prog: &CheckedProgram) -> Result<VmProgram, String> {
    let mut w = ByteWriter::new();
    write_program(&mut w, code);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    read_program(&mut r, prog)
}

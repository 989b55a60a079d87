//! The repository benchmark: end-to-end and per-layer measurements of the
//! SPINE serving stack on three workloads (see `README.md` beside this
//! package). The binary is the entry point; the modules are public so the
//! self-tests can drive them.

pub mod check;
pub mod drive;
pub mod inputs;
pub mod lsm;
pub mod mem;
pub mod report;
pub mod spans;
pub mod util;

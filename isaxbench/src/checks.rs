//! Output checks, run outside every timed phase.

use isax::{Customizer, Mdes};
use isax_bench::BenchKernel;
use isax_compiler::CompiledProgram;

/// Interpreter step budget per differential run.
const FUEL: u64 = 50_000_000;

/// Checks one compiled kernel: the static compiled-program checker
/// (replacements, schedules, register use) and, for the paper kernels
/// whose entry points and inputs are known, the differential
/// interpreter on seed-derived inputs (same returns, same memory).
pub fn compiled(
    k: &BenchKernel,
    cz: &Customizer,
    mdes: &Mdes,
    compiled: &CompiledProgram,
    seed: u64,
) -> Result<(), String> {
    let report = isax_check::check_compiled(&k.program, compiled, mdes, &cz.hw, &cz.model);
    if !report.is_clean() {
        return Err(format!("compiled-program check: {report}"));
    }
    if let Some(w) = isax_workloads::by_name(&k.name) {
        for (entry, args) in w.entries() {
            let mut mem = isax_machine::Memory::new();
            (w.init_memory)(&mut mem, seed);
            let report = isax_check::check_differential(
                &k.program,
                &compiled.program,
                entry,
                &args(seed),
                &mem,
                FUEL,
            );
            if !report.is_clean() {
                return Err(format!("differential check of {entry}: {report}"));
            }
        }
    }
    Ok(())
}

//! Host-speed calibration.
//!
//! On a shared host the speed a guest gets drifts by a quarter and more
//! over minutes, as other guests come and go, and it moves every timing
//! alike. So each timed interval is paired with a reading of a fixed
//! reference kernel taken just before it, in the same process where the
//! benchmark controls the process, and reported scaled to a host on which
//! the kernel takes [`NOMINAL_S`]:
//!
//! `reported = measured × NOMINAL_S / reference`.
//!
//! The kernel is the benchmark's own code, not the program's, so a change
//! to the program moves `measured` and never `reference`. It is a small
//! register-machine interpreter, like the M0 ISS that dominates the
//! `reproduce` iteration and every set-up.

use crate::util::nanos_since;
use std::hint::black_box;
use std::time::Instant;

/// The scale every calibrated time is reported at, s: a round figure
/// among the kernel's readings on the 2-core host the benchmark was tuned
/// on (17 to 34 ms).
pub const NOMINAL_S: f64 = 0.02;

/// Loop trips of the reference program.
const TRIPS: i64 = 1_000_000;
/// Words of the reference program's memory (a power of two).
const WORDS: usize = 4096;

/// One instruction of the reference machine: registers are indices into a
/// 16-entry file, memory addresses wrap at [`WORDS`].
#[derive(Clone, Copy)]
enum Op {
    Li(usize, i64),
    Add(usize, usize, usize),
    Mul(usize, usize, usize),
    Addi(usize, usize, i64),
    Ld(usize, usize),
    St(usize, usize),
    Blt(usize, usize, usize),
}

/// `for i in 0..TRIPS { acc += m[i] * m[i + 7]; m[i + 13] = acc }`.
const PROGRAM: [Op; 12] = [
    Op::Li(1, 0),
    Op::Li(2, TRIPS),
    Op::Li(3, 0),
    Op::Ld(4, 1),
    Op::Addi(5, 1, 7),
    Op::Ld(6, 5),
    Op::Mul(7, 4, 6),
    Op::Add(3, 3, 7),
    Op::Addi(8, 1, 13),
    Op::St(3, 8),
    Op::Addi(1, 1, 1),
    Op::Blt(1, 2, 3),
];

/// Runs `program` until control leaves it and returns the final
/// accumulator (register 3).
fn interpret(program: &[Op]) -> i64 {
    let mut r = [0i64; 16];
    let mut m: Vec<i64> = (0..WORDS as i64).map(|i| i * 31 % 97).collect();
    let addr = |v: i64| v as usize & (WORDS - 1);
    let mut pc = 0;
    while let Some(&op) = program.get(pc) {
        pc += 1;
        match op {
            Op::Li(d, v) => r[d] = v,
            Op::Add(d, a, b) => r[d] = r[a].wrapping_add(r[b]),
            Op::Mul(d, a, b) => r[d] = r[a].wrapping_mul(r[b]),
            Op::Addi(d, a, v) => r[d] = r[a].wrapping_add(v),
            Op::Ld(d, a) => r[d] = m[addr(r[a])],
            Op::St(s, a) => m[addr(r[a])] = r[s],
            Op::Blt(a, b, to) if r[a] < r[b] => pc = to,
            Op::Blt(..) => {}
        }
    }
    r[3]
}

/// One reading of the reference kernel, s.
pub fn reference_s() -> f64 {
    let started = Instant::now();
    black_box(interpret(black_box(&PROGRAM)));
    nanos_since(started) as f64 * 1e-9
}

/// `measured` seconds scaled to the nominal host speed, given the
/// reference reading taken just before.
pub fn scaled(measured: f64, reference: f64) -> f64 {
    measured * NOMINAL_S / reference
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE_RESULT: i64 = 9_075_493_221_339_962_956;

    #[test]
    fn the_reference_program_computes_a_fixed_result() {
        assert_eq!(interpret(&PROGRAM), REFERENCE_RESULT);
        let short = [Op::Li(3, 5), Op::Addi(3, 3, 2), Op::Blt(3, 0, 0)];
        assert_eq!(interpret(&short), 7);
    }

    #[test]
    fn a_host_twice_as_slow_reads_the_same() {
        assert_eq!(scaled(0.3, NOMINAL_S), 0.3);
        assert_eq!(scaled(0.6, 2.0 * NOMINAL_S), 0.3);
    }
}

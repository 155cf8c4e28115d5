//! The vector sequencer: ATE-style pattern microcode.
//!
//! Real test-pattern state machines are not flat bit lists — they are tiny
//! programs: emit a vector, repeat it, loop a block, halt. That is what
//! lets a 1-million-gate FPGA "synthesize the desired tests in real time"
//! (§2) instead of streaming gigabits from memory. This module implements
//! that sequencer for one channel group: a validated instruction list and
//! an executor that expands it (boundedly) into bits.

use core::fmt;

use signal::BitStream;

use crate::{DlcError, Result};

/// One sequencer instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Instruction {
    /// Emit these literal bits once.
    Vector(BitStream),
    /// Emit the previous vector again `count` more times.
    ///
    /// Invalid as the first instruction.
    Repeat {
        /// Additional emissions.
        count: u32,
    },
    /// Begin a loop body that will run `count` times.
    LoopStart {
        /// Total iterations (≥ 1).
        count: u32,
    },
    /// End the innermost loop body.
    LoopEnd,
    /// Stop the program (implicit at the end).
    Halt,
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Vector(bits) => write!(f, "VEC {bits}"),
            Instruction::Repeat { count } => write!(f, "RPT {count}"),
            Instruction::LoopStart { count } => write!(f, "LOOP {count}"),
            Instruction::LoopEnd => write!(f, "ENDL"),
            Instruction::Halt => write!(f, "HALT"),
        }
    }
}

/// A validated sequencer program.
///
/// # Examples
///
/// ```
/// use dlc::sequencer::{Instruction, SequencerProgram};
/// use signal::BitStream;
///
/// // 3 x (preamble, 2 x payload)
/// let program = SequencerProgram::assemble(vec![
///     Instruction::LoopStart { count: 3 },
///     Instruction::Vector(BitStream::from_str_bits("1100")),
///     Instruction::Vector(BitStream::from_str_bits("01")),
///     Instruction::Repeat { count: 1 },
///     Instruction::LoopEnd,
/// ])?;
/// assert_eq!(program.run()?.to_string(), "110001011100010111000101");
/// # Ok::<(), dlc::DlcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencerProgram {
    instructions: Vec<Instruction>,
}

/// Expansion safety limit: programs longer than this many bits are
/// rejected at run time (a real sequencer streams forever; the simulator
/// must terminate).
pub const MAX_EXPANDED_BITS: usize = 1 << 24;

/// Loop nesting limit (matches small hardware loop stacks).
pub const MAX_LOOP_DEPTH: usize = 8;

impl SequencerProgram {
    /// Validates and assembles a program.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] for structural errors: unbalanced
    /// loops, nesting beyond [`MAX_LOOP_DEPTH`], zero-iteration loops,
    /// a leading `Repeat`, empty vectors, or an empty program.
    pub fn assemble(instructions: Vec<Instruction>) -> Result<SequencerProgram> {
        if instructions.is_empty() {
            return Err(DlcError::InvalidBitstream { reason: "empty sequencer program" });
        }
        let mut depth = 0usize;
        let mut last_was_vector = false;
        for insn in &instructions {
            match insn {
                Instruction::Vector(bits) => {
                    if bits.is_empty() {
                        return Err(DlcError::InvalidBitstream { reason: "empty vector" });
                    }
                    last_was_vector = true;
                }
                Instruction::Repeat { count } => {
                    if !last_was_vector {
                        return Err(DlcError::InvalidBitstream {
                            reason: "REPEAT must follow a vector",
                        });
                    }
                    if *count == 0 {
                        return Err(DlcError::InvalidBitstream { reason: "REPEAT of zero" });
                    }
                }
                Instruction::LoopStart { count } => {
                    if *count == 0 {
                        return Err(DlcError::InvalidBitstream {
                            reason: "loop of zero iterations",
                        });
                    }
                    depth += 1;
                    if depth > MAX_LOOP_DEPTH {
                        return Err(DlcError::InvalidBitstream { reason: "loop nesting too deep" });
                    }
                    last_was_vector = false;
                }
                Instruction::LoopEnd => {
                    if depth == 0 {
                        return Err(DlcError::InvalidBitstream { reason: "ENDL without LOOP" });
                    }
                    depth -= 1;
                    // A vector emitted inside the loop is not visible to a
                    // REPEAT after it (block-scoped last-vector register).
                    last_was_vector = false;
                }
                Instruction::Halt => {
                    if depth != 0 {
                        return Err(DlcError::InvalidBitstream {
                            reason: "HALT inside a loop body",
                        });
                    }
                }
            }
        }
        if depth != 0 {
            return Err(DlcError::InvalidBitstream { reason: "unterminated loop" });
        }
        Ok(SequencerProgram { instructions })
    }

    /// Executes the program, expanding it into a bit stream.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if expansion would exceed
    /// [`MAX_EXPANDED_BITS`].
    pub fn run(&self) -> Result<BitStream> {
        let mut out = BitStream::new();
        self.execute(0, &mut out)?;
        Ok(out)
    }

    /// Recursive block executor; returns the index just past the block.
    fn execute(&self, mut pc: usize, out: &mut BitStream) -> Result<usize> {
        let mut last_vector: Option<BitStream> = None;
        while pc < self.instructions.len() {
            match &self.instructions[pc] {
                Instruction::Vector(bits) => {
                    self.emit(out, bits)?;
                    last_vector = Some(bits.clone());
                    pc += 1;
                }
                Instruction::Repeat { count } => {
                    let bits = last_vector.as_ref().ok_or(DlcError::InvalidBitstream {
                        reason: "REPEAT must follow a vector",
                    })?;
                    for _ in 0..*count {
                        self.emit(out, bits)?;
                    }
                    pc += 1;
                }
                Instruction::LoopStart { count } => {
                    let body_start = pc + 1;
                    let mut end = body_start;
                    for i in 0..*count {
                        end = self.execute(body_start, out)?;
                        let _ = i;
                    }
                    pc = end + 1; // skip the LoopEnd
                }
                Instruction::LoopEnd => {
                    return Ok(pc);
                }
                Instruction::Halt => {
                    return Ok(self.instructions.len());
                }
            }
        }
        Ok(pc)
    }

    fn emit(&self, out: &mut BitStream, bits: &BitStream) -> Result<()> {
        if out.len() + bits.len() > MAX_EXPANDED_BITS {
            return Err(DlcError::InvalidBitstream { reason: "program expansion too large" });
        }
        out.append(bits);
        Ok(())
    }
}

impl fmt::Display for SequencerProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, insn) in self.instructions.iter().enumerate() {
            writeln!(f, "{i:>4}: {insn}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(s: &str) -> Instruction {
        Instruction::Vector(BitStream::from_str_bits(s))
    }

    #[test]
    fn straight_line_program() {
        let p = SequencerProgram::assemble(vec![vec_of("11"), vec_of("00"), vec_of("10")]).unwrap();
        assert_eq!(p.run().unwrap().to_string(), "110010");
    }

    #[test]
    fn repeat_expands() {
        let p = SequencerProgram::assemble(vec![vec_of("10"), Instruction::Repeat { count: 3 }])
            .unwrap();
        assert_eq!(p.run().unwrap().to_string(), "10101010");
    }

    #[test]
    fn loops_expand() {
        let p = SequencerProgram::assemble(vec![
            Instruction::LoopStart { count: 2 },
            vec_of("110"),
            Instruction::LoopEnd,
            vec_of("0"),
        ])
        .unwrap();
        assert_eq!(p.run().unwrap().to_string(), "1101100");
    }

    #[test]
    fn nested_loops() {
        let p = SequencerProgram::assemble(vec![
            Instruction::LoopStart { count: 2 },
            vec_of("1"),
            Instruction::LoopStart { count: 3 },
            vec_of("0"),
            Instruction::LoopEnd,
            Instruction::LoopEnd,
        ])
        .unwrap();
        assert_eq!(p.run().unwrap().to_string(), "10001000");
    }

    #[test]
    fn halt_stops_early() {
        let p = SequencerProgram::assemble(vec![vec_of("11"), Instruction::Halt, vec_of("00")])
            .unwrap();
        assert_eq!(p.run().unwrap().to_string(), "11");
    }

    #[test]
    fn repeat_inside_loop_uses_loop_local_vector() {
        let p = SequencerProgram::assemble(vec![
            Instruction::LoopStart { count: 2 },
            vec_of("01"),
            Instruction::Repeat { count: 1 },
            Instruction::LoopEnd,
        ])
        .unwrap();
        assert_eq!(p.run().unwrap().to_string(), "01010101");
    }

    #[test]
    fn structural_validation() {
        use Instruction::*;
        // Unbalanced loops.
        assert!(SequencerProgram::assemble(vec![LoopStart { count: 1 }, vec_of("1")]).is_err());
        assert!(SequencerProgram::assemble(vec![vec_of("1"), LoopEnd]).is_err());
        // Zero-iteration loop / zero repeat.
        assert!(
            SequencerProgram::assemble(vec![LoopStart { count: 0 }, vec_of("1"), LoopEnd]).is_err()
        );
        assert!(SequencerProgram::assemble(vec![vec_of("1"), Repeat { count: 0 }]).is_err());
        // Leading repeat.
        assert!(SequencerProgram::assemble(vec![Repeat { count: 1 }]).is_err());
        // Repeat right after LoopStart (no vector yet in scope).
        assert!(SequencerProgram::assemble(vec![
            LoopStart { count: 2 },
            Repeat { count: 1 },
            LoopEnd
        ])
        .is_err());
        // Empty vector / empty program.
        assert!(SequencerProgram::assemble(vec![Instruction::Vector(BitStream::new())]).is_err());
        assert!(SequencerProgram::assemble(vec![]).is_err());
        // Nesting depth.
        let mut deep = Vec::new();
        for _ in 0..(MAX_LOOP_DEPTH + 1) {
            deep.push(LoopStart { count: 1 });
        }
        deep.push(vec_of("1"));
        for _ in 0..(MAX_LOOP_DEPTH + 1) {
            deep.push(LoopEnd);
        }
        assert!(SequencerProgram::assemble(deep).is_err());
    }

    #[test]
    fn expansion_limit_enforced() {
        // 2^24 bits via nested loops: len check must fire without OOM.
        let p = SequencerProgram::assemble(vec![
            Instruction::LoopStart { count: 1 << 12 },
            Instruction::LoopStart { count: 1 << 12 },
            vec_of("1111_1111_1111_1111"),
            Instruction::LoopEnd,
            Instruction::LoopEnd,
        ])
        .unwrap();
        assert!(p.run().is_err());
    }

    #[test]
    fn display_listing() {
        let p = SequencerProgram::assemble(vec![
            Instruction::LoopStart { count: 2 },
            vec_of("10"),
            Instruction::Repeat { count: 1 },
            Instruction::LoopEnd,
            Instruction::Halt,
        ])
        .unwrap();
        let text = p.to_string();
        assert!(text.contains("LOOP 2"));
        assert!(text.contains("VEC 10"));
        assert!(text.contains("RPT 1"));
        assert!(text.contains("ENDL"));
        assert!(text.contains("HALT"));
    }
}

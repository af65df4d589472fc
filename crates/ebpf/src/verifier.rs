//! The static verifier — the sandbox the paper's §2.2.2 describes.
//!
//! Before a program may attach to a hook it must pass verification, which
//! enforces the restrictions that shaped the paper's design space:
//!
//! * **bounded size** (≤ [`MAX_INSNS`]);
//! * **no loops**: every jump must be strictly forward, so execution length
//!   is bounded by program length (this is what "the sandbox also caps
//!   eBPF complexity by disallowing loops" means in practice — and why a
//!   megaflow cache, which needs an iterative subtable search, cannot be
//!   expressed);
//! * **no reads of uninitialized registers**, tracked across branches;
//! * **no writes to `r10`** (the frame pointer);
//! * helper calls must have their argument registers initialized, and
//!   clobber `r1`–`r5`;
//! * no constant division by zero;
//! * execution cannot fall off the end of the program.

use crate::insn::{reg, AluOp, Helper, Insn, Operand, Reg, MAX_INSNS};

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program is empty.
    Empty,
    /// The program exceeds [`MAX_INSNS`].
    TooLong(usize),
    /// A register number above r10 was used.
    BadRegister { pc: usize },
    /// `r10` (frame pointer) was written.
    FramePointerWrite { pc: usize },
    /// A jump goes backwards — a loop.
    BackwardJump { pc: usize },
    /// A jump target is out of range.
    JumpOutOfRange { pc: usize },
    /// A register was read before being written.
    UninitializedRead { pc: usize, reg: u8 },
    /// Constant division or modulo by zero.
    DivByZero { pc: usize },
    /// Execution can run past the last instruction.
    FallsOffEnd,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::TooLong(n) => write!(f, "program too long: {n} insns"),
            VerifyError::BadRegister { pc } => write!(f, "bad register at pc {pc}"),
            VerifyError::FramePointerWrite { pc } => write!(f, "write to r10 at pc {pc}"),
            VerifyError::BackwardJump { pc } => write!(f, "backward jump (loop) at pc {pc}"),
            VerifyError::JumpOutOfRange { pc } => write!(f, "jump out of range at pc {pc}"),
            VerifyError::UninitializedRead { pc, reg } => {
                write!(f, "read of uninitialized r{reg} at pc {pc}")
            }
            VerifyError::DivByZero { pc } => write!(f, "constant division by zero at pc {pc}"),
            VerifyError::FallsOffEnd => write!(f, "execution can fall off the end"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Bitmask of initialized registers.
type InitMask = u16;

fn bit(r: Reg) -> InitMask {
    1 << r.0
}

fn check_reg(r: Reg, pc: usize) -> Result<(), VerifyError> {
    if r.0 > 10 {
        Err(VerifyError::BadRegister { pc })
    } else {
        Ok(())
    }
}

fn check_read(r: Reg, init: InitMask, pc: usize) -> Result<(), VerifyError> {
    check_reg(r, pc)?;
    if init & bit(r) == 0 {
        Err(VerifyError::UninitializedRead { pc, reg: r.0 })
    } else {
        Ok(())
    }
}

fn check_operand(op: Operand, init: InitMask, pc: usize) -> Result<(), VerifyError> {
    match op {
        Operand::Reg(r) => check_read(r, init, pc),
        Operand::Imm(_) => Ok(()),
    }
}

fn check_write(r: Reg, pc: usize) -> Result<(), VerifyError> {
    check_reg(r, pc)?;
    if r == reg::R10 {
        Err(VerifyError::FramePointerWrite { pc })
    } else {
        Ok(())
    }
}

fn helper_args(h: Helper) -> &'static [Reg] {
    match h {
        Helper::MapLookup => &[reg::R1, reg::R2],
        Helper::MapUpdate => &[reg::R1, reg::R2, reg::R3],
        Helper::RedirectMap => &[reg::R1, reg::R2, reg::R3],
        Helper::KtimeGetNs => &[],
    }
}

/// Verify a program, returning `Ok(())` if it may be attached.
pub fn verify(prog: &[Insn]) -> Result<(), VerifyError> {
    if prog.is_empty() {
        return Err(VerifyError::Empty);
    }
    if prog.len() > MAX_INSNS {
        return Err(VerifyError::TooLong(prog.len()));
    }

    // Forward dataflow over initialized-register masks. Because all jumps
    // are forward, a single ascending pass visits predecessors before
    // successors; merges intersect the masks (a register is initialized
    // only if initialized on every incoming path).
    let len = prog.len();
    let mut state: Vec<Option<InitMask>> = vec![None; len + 1];
    // Entry: r1 = ctx pointer, r10 = frame pointer.
    state[0] = Some(bit(reg::R1) | bit(reg::R10));

    let merge = |slot: &mut Option<InitMask>, mask: InitMask| match slot {
        Some(existing) => *existing &= mask,
        None => *slot = Some(mask),
    };

    for pc in 0..len {
        let Some(init) = state[pc] else {
            continue; // unreachable instruction
        };
        let insn = &prog[pc];
        let mut next = init;
        let mut falls_through = true;

        match *insn {
            Insn::Alu64(op, dst, src) | Insn::Alu32(op, dst, src) => {
                check_write(dst, pc)?;
                // Mov initializes dst from src alone; others read dst too.
                if op != AluOp::Mov {
                    check_read(dst, init, pc)?;
                }
                if op != AluOp::Neg && op != AluOp::ToBe {
                    check_operand(src, init, pc)?;
                }
                if matches!(op, AluOp::Div | AluOp::Mod) {
                    if let Operand::Imm(0) = src {
                        return Err(VerifyError::DivByZero { pc });
                    }
                }
                next |= bit(dst);
            }
            Insn::LoadImm64(dst, _) => {
                check_write(dst, pc)?;
                next |= bit(dst);
            }
            Insn::Load(_, dst, base, _) => {
                check_write(dst, pc)?;
                check_read(base, init, pc)?;
                next |= bit(dst);
            }
            Insn::Store(_, base, _, src) => {
                check_read(base, init, pc)?;
                check_operand(src, init, pc)?;
            }
            Insn::Jmp(off) => {
                falls_through = false;
                let target = jump_target(pc, off, len)?;
                merge(&mut state[target], next);
            }
            Insn::JmpIf(_, dst, src, off) => {
                check_read(dst, init, pc)?;
                check_operand(src, init, pc)?;
                let target = jump_target(pc, off, len)?;
                merge(&mut state[target], next);
            }
            Insn::Call(h) => {
                for &arg in helper_args(h) {
                    check_read(arg, init, pc)?;
                }
                // Calls clobber the caller-saved argument registers and
                // initialize r0.
                next &= !(bit(reg::R1) | bit(reg::R2) | bit(reg::R3) | bit(reg::R4) | bit(reg::R5));
                next |= bit(reg::R0);
            }
            Insn::Exit => {
                check_read(reg::R0, init, pc)?;
                falls_through = false;
            }
        }

        if falls_through {
            if pc + 1 == len {
                return Err(VerifyError::FallsOffEnd);
            }
            merge(&mut state[pc + 1], next);
        }
    }

    // A merge into the pseudo-slot `len` would mean a jump exactly past
    // the end — execution escaping the program.
    if state[len].is_some() {
        return Err(VerifyError::FallsOffEnd);
    }
    Ok(())
}

fn jump_target(pc: usize, off: i16, len: usize) -> Result<usize, VerifyError> {
    if off < 0 {
        return Err(VerifyError::BackwardJump { pc });
    }
    let target = pc + 1 + off as usize;
    if target > len {
        return Err(VerifyError::JumpOutOfRange { pc });
    }
    if target == len {
        // Jumping exactly to the end escapes the program.
        return Err(VerifyError::FallsOffEnd);
    }
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::reg::*;
    use crate::insn::Operand::{Imm, Reg};
    use crate::insn::{AluOp::*, CmpOp, Insn::*, Size};

    #[test]
    fn minimal_program_verifies() {
        let prog = [Alu64(Mov, R0, Imm(1)), Exit];
        assert_eq!(verify(&prog), Ok(()));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(verify(&[]), Err(VerifyError::Empty));
    }

    #[test]
    fn too_long_rejected() {
        let mut prog = vec![Alu64(Mov, R0, Imm(0)); MAX_INSNS];
        prog.push(Exit);
        assert!(matches!(verify(&prog), Err(VerifyError::TooLong(_))));
    }

    #[test]
    fn backward_jump_rejected() {
        // A loop: jump back to pc 0.
        let prog = [Alu64(Mov, R0, Imm(0)), Jmp(-2), Exit];
        assert_eq!(verify(&prog), Err(VerifyError::BackwardJump { pc: 1 }));
    }

    #[test]
    fn uninitialized_read_rejected() {
        let prog = [Alu64(Mov, R0, Reg(R3)), Exit];
        assert_eq!(
            verify(&prog),
            Err(VerifyError::UninitializedRead { pc: 0, reg: 3 })
        );
    }

    #[test]
    fn branch_merge_intersects_init() {
        // R2 initialized on only one branch; reading it after the merge
        // must fail.
        let prog = [
            Alu64(Mov, R0, Imm(0)),
            JmpIf(CmpOp::Eq, R0, Imm(0), 1), // skip the init of r2
            Alu64(Mov, R2, Imm(5)),
            Alu64(Mov, R0, Reg(R2)), // r2 maybe-uninit here
            Exit,
        ];
        assert_eq!(
            verify(&prog),
            Err(VerifyError::UninitializedRead { pc: 3, reg: 2 })
        );
    }

    #[test]
    fn both_branches_init_is_ok() {
        let prog = [
            Alu64(Mov, R0, Imm(0)),
            JmpIf(CmpOp::Eq, R0, Imm(0), 2),
            Alu64(Mov, R2, Imm(5)),
            Jmp(1),
            Alu64(Mov, R2, Imm(6)),
            Alu64(Mov, R0, Reg(R2)),
            Exit,
        ];
        assert_eq!(verify(&prog), Ok(()));
    }

    #[test]
    fn fp_write_rejected() {
        let prog = [Alu64(Mov, R10, Imm(0)), Exit];
        assert_eq!(verify(&prog), Err(VerifyError::FramePointerWrite { pc: 0 }));
    }

    #[test]
    fn falls_off_end_rejected() {
        let prog = [Alu64(Mov, R0, Imm(1))];
        assert_eq!(verify(&prog), Err(VerifyError::FallsOffEnd));
    }

    #[test]
    fn jump_out_of_range_rejected() {
        let prog = [Jmp(5), Exit];
        assert!(matches!(
            verify(&prog),
            Err(VerifyError::JumpOutOfRange { .. } | VerifyError::FallsOffEnd)
        ));
    }

    #[test]
    fn const_div_by_zero_rejected() {
        let prog = [Alu64(Mov, R0, Imm(1)), Alu64(Div, R0, Imm(0)), Exit];
        assert_eq!(verify(&prog), Err(VerifyError::DivByZero { pc: 1 }));
    }

    #[test]
    fn call_clobbers_arg_registers() {
        let prog = [
            Alu64(Mov, R1, Imm(0)),
            Alu64(Mov, R2, Reg(R10)),
            Call(crate::insn::Helper::MapLookup),
            Alu64(Mov, R0, Reg(R2)), // r2 clobbered by the call
            Exit,
        ];
        assert_eq!(
            verify(&prog),
            Err(VerifyError::UninitializedRead { pc: 3, reg: 2 })
        );
    }

    #[test]
    fn call_initializes_r0() {
        let prog = [Call(crate::insn::Helper::KtimeGetNs), Exit];
        assert_eq!(verify(&prog), Ok(()));
    }

    #[test]
    fn exit_requires_r0() {
        let prog = [Exit];
        assert_eq!(
            verify(&prog),
            Err(VerifyError::UninitializedRead { pc: 0, reg: 0 })
        );
    }

    #[test]
    fn ctx_load_allowed() {
        let prog = [
            Load(Size::DW, R2, R1, 0), // r2 = ctx->data
            Alu64(Mov, R0, Imm(2)),
            Exit,
        ];
        assert_eq!(verify(&prog), Ok(()));
    }
}

//! The interpreter.
//!
//! Executes verified programs against a packet, a stack, and a map set.
//! Memory is modelled as tagged 64-bit addresses; every access is
//! bounds-checked at runtime (the kernel proves bounds statically — the
//! safety guarantee is the same, the enforcement point differs, and the
//! per-instruction dispatch cost that made the eBPF datapath 10–20% slower
//! than native C in Fig 2 is exactly what this interpreter pays).
//!
//! ## Address space
//!
//! | region | base | contents |
//! |---|---|---|
//! | NULL | `0` | never readable |
//! | stack | `0x1_0000_0000` | 512 bytes; `r10` = base + 512 |
//! | packet | `0x2_0000_0000` | the frame bytes, writable |
//! | ctx | `0x3_0000_0000` | 24 bytes: `data` (u64), `data_end` (u64), `rx_queue_index` (u64) |
//! | map values | `0x4_0000_0000` | `(fd << 40) \| (slot << 16) \| offset` |
//!
//! Loads and stores are little-endian, as on the paper's x86 testbed;
//! programs use [`AluOp::ToBe`] for network byte order, as real eBPF
//! does.

use crate::insn::{reg, AluOp, CmpOp, Helper, Insn, Operand, Reg, Size, STACK_SIZE};
use crate::maps::MapSet;
use ovs_obs::coverage;

/// Stack region base address.
pub const STACK_BASE: u64 = 0x1_0000_0000;
/// Packet region base address.
pub const PACKET_BASE: u64 = 0x2_0000_0000;
/// Context region base address.
pub const CTX_BASE: u64 = 0x3_0000_0000;
/// Map-value region base address.
pub const MAPVAL_BASE: u64 = 0x4_0000_0000;

/// Runtime errors. A verified program can still fault on data-dependent
/// memory accesses (e.g. reading past `data_end`); the kernel would have
/// rejected those statically, we fault them dynamically — either way the
/// program cannot corrupt the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// Out-of-bounds or unmapped memory access.
    BadAccess { pc: usize, addr: u64 },
    /// Unknown map fd in a helper call.
    BadMapFd { pc: usize, fd: u64 },
    /// The instruction budget was exhausted (cannot happen for verified
    /// programs; kept as defence in depth).
    BudgetExhausted,
    /// Program counter escaped the program (unverified input).
    BadPc(usize),
}

/// The outcome of a program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecResult {
    /// `r0` at exit — for XDP programs, the action code.
    pub ret: u64,
    /// Instructions executed, used for cycle accounting by `ovs-sim`.
    pub insns: u64,
    /// Map-lookup helper calls performed (each costs a hash probe).
    pub map_lookups: u64,
    /// Loads/stores that touched packet bytes. Zero for programs that
    /// never read the frame (e.g. the OVS redirect hook); nonzero programs
    /// pay a cache-miss cost in the simulation ("the CPU now must read
    /// the packet", Table 5 discussion).
    pub pkt_accesses: u64,
    /// Pending redirect target set by `redirect_map`: `(map_fd, key)`.
    pub redirect: Option<(u32, u32)>,
}

/// The virtual machine. Reusable across runs; each run resets state.
#[derive(Debug)]
pub struct Vm {
    regs: [u64; 11],
    stack: [u8; STACK_SIZE],
    /// Virtual time source for `ktime_get_ns`.
    pub now_ns: u64,
    /// RX queue the packet arrived on, exposed as `ctx->rx_queue_index`.
    pub rx_queue: u32,
    insn_budget: u64,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// A fresh VM with the default instruction budget.
    pub fn new() -> Self {
        Self {
            regs: [0; 11],
            stack: [0; STACK_SIZE],
            now_ns: 0,
            rx_queue: 0,
            insn_budget: 1 << 20,
        }
    }

    /// Run `prog` over `packet` with `maps`. The packet is writable; the
    /// caller is responsible for having verified the program.
    pub fn run(
        &mut self,
        prog: &[Insn],
        packet: &mut [u8],
        maps: &mut MapSet,
    ) -> Result<ExecResult, ExecError> {
        self.regs = [0; 11];
        self.regs[reg::R1.0 as usize] = CTX_BASE;
        self.regs[reg::R10.0 as usize] = STACK_BASE + STACK_SIZE as u64;

        let mut pc = 0usize;
        let mut insns = 0u64;
        let mut map_lookups = 0u64;
        let mut pkt_accesses = 0u64;
        let mut redirect = None;

        loop {
            if insns >= self.insn_budget {
                return Err(ExecError::BudgetExhausted);
            }
            let insn = prog.get(pc).ok_or(ExecError::BadPc(pc))?;
            insns += 1;
            let cur = pc;
            pc += 1;

            match *insn {
                Insn::Alu64(op, dst, src) => {
                    let s = self.operand(src);
                    let d = self.reg(dst);
                    self.set_reg(dst, alu(op, d, s, 64));
                }
                Insn::Alu32(op, dst, src) => {
                    let s = self.operand(src);
                    let d = self.reg(dst);
                    self.set_reg(dst, alu(op, d, s, 32));
                }
                Insn::LoadImm64(dst, v) => self.set_reg(dst, v),
                Insn::Load(size, dst, base, off) => {
                    let addr = self.reg(base).wrapping_add(off as i64 as u64);
                    if in_region(addr, PACKET_BASE, packet.len()).is_some() {
                        pkt_accesses += 1;
                    }
                    let v = self
                        .mem_read(addr, size, packet, maps)
                        .ok_or(ExecError::BadAccess { pc: cur, addr })?;
                    self.set_reg(dst, v);
                }
                Insn::Store(size, base, off, src) => {
                    let addr = self.reg(base).wrapping_add(off as i64 as u64);
                    if in_region(addr, PACKET_BASE, packet.len()).is_some() {
                        pkt_accesses += 1;
                    }
                    let v = self.operand(src);
                    self.mem_write(addr, size, v, packet, maps)
                        .ok_or(ExecError::BadAccess { pc: cur, addr })?;
                }
                Insn::Jmp(off) => {
                    pc = cur + 1 + off as usize;
                }
                Insn::JmpIf(cmp, dst, src, off) => {
                    let d = self.reg(dst);
                    let s = self.operand(src);
                    if compare(cmp, d, s) {
                        pc = cur + 1 + off as usize;
                    }
                }
                Insn::Call(h) => {
                    coverage!("bpf_helper_call");
                    match h {
                        Helper::MapLookup => {
                            map_lookups += 1;
                            coverage!("bpf_map_lookup");
                            let fd = self.reg(reg::R1);
                            let key_ptr = self.reg(reg::R2);
                            let Some(ks) = maps.key_size(fd as u32) else {
                                return Err(ExecError::BadMapFd { pc: cur, fd });
                            };
                            let key = self.read_bytes(key_ptr, ks, packet, maps).ok_or(
                                ExecError::BadAccess {
                                    pc: cur,
                                    addr: key_ptr,
                                },
                            )?;
                            let r = maps
                                .lookup_slot(fd as u32, &key)
                                .map(|slot| mapval_addr(fd as u32, slot))
                                .unwrap_or(0);
                            self.post_call(r);
                        }
                        Helper::MapUpdate => {
                            let fd = self.reg(reg::R1) as u32;
                            let key_ptr = self.reg(reg::R2);
                            let val_ptr = self.reg(reg::R3);
                            let ks = maps.key_size(fd).ok_or(ExecError::BadMapFd {
                                pc: cur,
                                fd: fd as u64,
                            })?;
                            let key = self.read_bytes(key_ptr, ks, packet, maps).ok_or(
                                ExecError::BadAccess {
                                    pc: cur,
                                    addr: key_ptr,
                                },
                            )?;
                            let vs = match maps.get(fd) {
                                Some(crate::maps::Map::Hash(h)) => h.value_size(),
                                Some(crate::maps::Map::Array(a)) => a.value_size(),
                                _ => {
                                    return Err(ExecError::BadMapFd {
                                        pc: cur,
                                        fd: fd as u64,
                                    })
                                }
                            };
                            let val = self.read_bytes(val_ptr, vs, packet, maps).ok_or(
                                ExecError::BadAccess {
                                    pc: cur,
                                    addr: val_ptr,
                                },
                            )?;
                            let ok = match maps.get_mut(fd) {
                                Some(crate::maps::Map::Hash(h)) => h.update(&key, &val).is_ok(),
                                Some(crate::maps::Map::Array(a)) => {
                                    let idx = u32::from_le_bytes(key[..4].try_into().unwrap());
                                    match a.get_mut(idx) {
                                        Some(slot) => {
                                            slot.copy_from_slice(&val);
                                            true
                                        }
                                        None => false,
                                    }
                                }
                                _ => false,
                            };
                            self.post_call(if ok { 0 } else { u64::MAX });
                        }
                        Helper::RedirectMap => {
                            let fd = self.reg(reg::R1) as u32;
                            let key = self.reg(reg::R2) as u32;
                            redirect = Some((fd, key));
                            // bpf_redirect_map returns XDP_REDIRECT (4).
                            self.post_call(4);
                        }
                        Helper::KtimeGetNs => {
                            let t = self.now_ns;
                            self.post_call(t);
                        }
                    }
                }
                Insn::Exit => {
                    coverage!("bpf_prog_run");
                    coverage!("bpf_insn_executed", insns);
                    return Ok(ExecResult {
                        ret: self.reg(reg::R0),
                        insns,
                        map_lookups,
                        pkt_accesses,
                        redirect,
                    });
                }
            }
        }
    }

    fn post_call(&mut self, r0: u64) {
        self.regs[0] = r0;
        // Clobber caller-saved registers deterministically.
        for r in 1..=5 {
            self.regs[r] = 0xdead_beef_dead_beef;
        }
    }

    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.0 as usize]
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.0 as usize] = v;
    }

    fn operand(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(i) => i as u64,
        }
    }

    fn read_bytes(&self, addr: u64, len: usize, packet: &[u8], maps: &MapSet) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            out.push(self.byte_at(addr + i as u64, packet, maps)?);
        }
        Some(out)
    }

    fn byte_at(&self, addr: u64, packet: &[u8], maps: &MapSet) -> Option<u8> {
        if let Some(off) = in_region(addr, STACK_BASE, STACK_SIZE) {
            return Some(self.stack[off]);
        }
        if let Some(off) = in_region(addr, PACKET_BASE, packet.len()) {
            return Some(packet[off]);
        }
        if addr >= MAPVAL_BASE {
            let (fd, slot, off) = split_mapval(addr);
            return maps.value(fd, slot)?.get(off).copied();
        }
        None
    }

    fn mem_read(&self, addr: u64, size: Size, packet: &[u8], maps: &MapSet) -> Option<u64> {
        let n = size.bytes();
        // Context region reads: the three u64 pseudo-fields.
        if let Some(off) = in_region(addr, CTX_BASE, 24) {
            if size != Size::DW || off % 8 != 0 {
                return None;
            }
            return Some(match off {
                0 => PACKET_BASE,
                8 => PACKET_BASE + packet.len() as u64,
                _ => u64::from(self.rx_queue),
            });
        }
        let mut v: u64 = 0;
        for i in 0..n {
            let b = self.byte_at(addr + i as u64, packet, maps)?;
            v |= u64::from(b) << (8 * i); // little-endian
        }
        Some(v)
    }

    fn mem_write(
        &mut self,
        addr: u64,
        size: Size,
        val: u64,
        packet: &mut [u8],
        maps: &mut MapSet,
    ) -> Option<()> {
        let n = size.bytes();
        for i in 0..n {
            let b = (val >> (8 * i)) as u8;
            let a = addr + i as u64;
            if let Some(off) = in_region(a, STACK_BASE, STACK_SIZE) {
                self.stack[off] = b;
            } else if let Some(off) = in_region(a, PACKET_BASE, packet.len()) {
                packet[off] = b;
            } else if a >= MAPVAL_BASE {
                let (fd, slot, off) = split_mapval(a);
                *maps.value_mut(fd, slot)?.get_mut(off)? = b;
            } else {
                return None;
            }
        }
        Some(())
    }
}

/// Form a map-value pointer for `(fd, slot)`.
pub fn mapval_addr(fd: u32, slot: u32) -> u64 {
    MAPVAL_BASE | (u64::from(fd) << 40) | (u64::from(slot) << 16)
}

fn split_mapval(addr: u64) -> (u32, u32, usize) {
    let rel = addr - MAPVAL_BASE;
    let fd = (rel >> 40) as u32 & 0xfff;
    let slot = ((rel >> 16) & 0xff_ffff) as u32;
    let off = (rel & 0xffff) as usize;
    (fd, slot, off)
}

fn in_region(addr: u64, base: u64, len: usize) -> Option<usize> {
    if addr >= base && addr < base + len as u64 {
        Some((addr - base) as usize)
    } else {
        None
    }
}

fn alu(op: AluOp, dst: u64, src: u64, width: u32) -> u64 {
    let trunc = |v: u64| {
        if width == 32 {
            v & 0xffff_ffff
        } else {
            v
        }
    };
    let d = trunc(dst);
    let s = trunc(src);
    let r = match op {
        AluOp::Add => d.wrapping_add(s),
        AluOp::Sub => d.wrapping_sub(s),
        AluOp::Mul => d.wrapping_mul(s),
        AluOp::Div => d.checked_div(s).unwrap_or(0),
        AluOp::Or => d | s,
        AluOp::And => d & s,
        AluOp::Lsh => d.wrapping_shl(s as u32 & (width - 1)),
        AluOp::Rsh => trunc(d).wrapping_shr(s as u32 & (width - 1)),
        AluOp::Neg => (d as i64).wrapping_neg() as u64,
        AluOp::Mod => {
            if s == 0 {
                d
            } else {
                d % s
            }
        }
        AluOp::Xor => d ^ s,
        AluOp::Mov => s,
        AluOp::Arsh => {
            if width == 32 {
                ((d as i32) >> (s as u32 & 31)) as u32 as u64
            } else {
                ((d as i64) >> (s as u32 & 63)) as u64
            }
        }
        AluOp::ToBe => match s {
            16 => u64::from((d as u16).swap_bytes()),
            32 => u64::from((d as u32).swap_bytes()),
            _ => d.swap_bytes(),
        },
    };
    trunc(r)
}

fn compare(op: CmpOp, d: u64, s: u64) -> bool {
    match op {
        CmpOp::Eq => d == s,
        CmpOp::Ne => d != s,
        CmpOp::Gt => d > s,
        CmpOp::Ge => d >= s,
        CmpOp::Lt => d < s,
        CmpOp::Le => d <= s,
        CmpOp::Set => d & s != 0,
        CmpOp::SGt => (d as i64) > (s as i64),
        CmpOp::SGe => (d as i64) >= (s as i64),
        CmpOp::SLt => (d as i64) < (s as i64),
        CmpOp::SLe => (d as i64) <= (s as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::reg::*;
    use crate::insn::Operand::{Imm, Reg};
    use crate::insn::{AluOp::*, CmpOp, Insn::*};
    use crate::maps::{ArrayMap, Map, MapSet};

    fn run(prog: &[Insn], packet: &mut [u8]) -> ExecResult {
        crate::verifier::verify(prog).expect("test program must verify");
        let mut maps = MapSet::new();
        Vm::new().run(prog, packet, &mut maps).unwrap()
    }

    #[test]
    fn arithmetic() {
        let prog = [
            Alu64(Mov, R0, Imm(10)),
            Alu64(Add, R0, Imm(5)),
            Alu64(Mul, R0, Imm(3)),
            Alu64(Sub, R0, Imm(1)),
            Exit,
        ];
        assert_eq!(run(&prog, &mut []).ret, 44);
    }

    #[test]
    fn div_by_zero_yields_zero() {
        let prog = [
            Alu64(Mov, R1, Imm(0)),
            Alu64(Mov, R0, Imm(10)),
            Alu64(Div, R0, Reg(R1)),
            Exit,
        ];
        assert_eq!(run(&prog, &mut []).ret, 0);
    }

    #[test]
    fn alu32_truncates() {
        let prog = [LoadImm64(R0, 0xffff_ffff), Alu32(Add, R0, Imm(1)), Exit];
        assert_eq!(run(&prog, &mut []).ret, 0);
    }

    #[test]
    fn to_be_16() {
        let prog = [Alu64(Mov, R0, Imm(0x0800)), Alu64(ToBe, R0, Imm(16)), Exit];
        assert_eq!(run(&prog, &mut []).ret, 0x0008);
    }

    #[test]
    fn stack_rw() {
        let prog = [
            Store(crate::insn::Size::W, R10, -4, Imm(0x12345678)),
            Load(crate::insn::Size::W, R0, R10, -4),
            Exit,
        ];
        assert_eq!(run(&prog, &mut []).ret, 0x12345678);
    }

    #[test]
    fn packet_read_via_ctx() {
        // r2 = ctx->data; r0 = *(u16*)(r2 + 12)  (the EtherType bytes)
        let prog = [
            Load(crate::insn::Size::DW, R2, R1, 0),
            Load(crate::insn::Size::H, R0, R2, 12),
            Alu64(ToBe, R0, Imm(16)),
            Exit,
        ];
        let mut pkt = vec![0u8; 14];
        pkt[12] = 0x08;
        pkt[13] = 0x00;
        assert_eq!(run(&prog, &mut pkt).ret, 0x0800);
    }

    #[test]
    fn packet_write_mutates() {
        let prog = [
            Load(crate::insn::Size::DW, R2, R1, 0),
            Store(crate::insn::Size::B, R2, 0, Imm(0xab)),
            Alu64(Mov, R0, Imm(0)),
            Exit,
        ];
        let mut pkt = vec![0u8; 4];
        run(&prog, &mut pkt);
        assert_eq!(pkt[0], 0xab);
    }

    #[test]
    fn out_of_bounds_packet_read_faults() {
        let prog = [
            Load(crate::insn::Size::DW, R2, R1, 0),
            Load(crate::insn::Size::W, R0, R2, 100),
            Exit,
        ];
        crate::verifier::verify(&prog).unwrap();
        let mut maps = MapSet::new();
        let mut pkt = vec![0u8; 14];
        let err = Vm::new().run(&prog, &mut pkt, &mut maps).unwrap_err();
        assert!(matches!(err, ExecError::BadAccess { pc: 1, .. }));
    }

    #[test]
    fn data_end_bounds_check_pattern() {
        // The canonical XDP pattern: if data + 14 > data_end, drop.
        let prog = [
            Load(crate::insn::Size::DW, R2, R1, 0), // data
            Load(crate::insn::Size::DW, R3, R1, 8), // data_end
            Alu64(Mov, R4, Reg(R2)),
            Alu64(Add, R4, Imm(14)),
            JmpIf(CmpOp::Gt, R4, Reg(R3), 2), // too short -> drop
            Alu64(Mov, R0, Imm(2)),           // XDP_PASS
            Exit,
            Alu64(Mov, R0, Imm(1)), // XDP_DROP
            Exit,
        ];
        let mut long = vec![0u8; 64];
        assert_eq!(run(&prog, &mut long).ret, 2);
        let mut short = vec![0u8; 10];
        assert_eq!(run(&prog, &mut short).ret, 1);
    }

    #[test]
    fn map_lookup_and_value_write() {
        let mut maps = MapSet::new();
        let fd = maps.add(Map::Array(ArrayMap::new(8, 4)));
        // key (index 1) on the stack; lookup; increment the value.
        let prog = [
            Store(crate::insn::Size::W, R10, -4, Imm(1)),
            Alu64(Mov, R1, Imm(fd as i64)),
            Alu64(Mov, R2, Reg(R10)),
            Alu64(Add, R2, Imm(-4)),
            Call(crate::insn::Helper::MapLookup),
            JmpIf(CmpOp::Eq, R0, Imm(0), 3), // miss -> return 0
            Load(crate::insn::Size::DW, R3, R0, 0),
            Alu64(Add, R3, Imm(1)),
            Store(crate::insn::Size::DW, R0, 0, Reg(R3)),
            Alu64(Mov, R0, Imm(0)),
            Exit,
        ];
        crate::verifier::verify(&prog).unwrap();
        let mut vm = Vm::new();
        for _ in 0..3 {
            vm.run(&prog, &mut [], &mut maps).unwrap();
        }
        let v = match maps.get(fd).unwrap() {
            Map::Array(a) => u64::from_le_bytes(a.get(1).unwrap().try_into().unwrap()),
            _ => unreachable!(),
        };
        assert_eq!(v, 3);
    }

    #[test]
    fn redirect_map_records_target() {
        let prog = [
            Alu64(Mov, R1, Imm(5)),
            Alu64(Mov, R2, Imm(2)),
            Alu64(Mov, R3, Imm(0)),
            Call(crate::insn::Helper::RedirectMap),
            Exit,
        ];
        let r = run(&prog, &mut []);
        assert_eq!(r.ret, 4); // XDP_REDIRECT
        assert_eq!(r.redirect, Some((5, 2)));
    }

    #[test]
    fn insn_count_reported() {
        let prog = [Alu64(Mov, R0, Imm(0)), Alu64(Add, R0, Imm(1)), Exit];
        assert_eq!(run(&prog, &mut []).insns, 3);
    }
}

//! Ergonomic construction of IR functions for tests, examples and the
//! exploit-scenario programs.

use crate::ir::{BinOp, Block, BlockId, FuncId, Function, Inst, Operand, Reg, Term, Ty};

/// Builds one [`Function`] incrementally, one block at a time.
///
/// # Examples
///
/// ```
/// use dangsan_instr::builder::FunctionBuilder;
/// use dangsan_instr::ir::{Operand, Program};
///
/// let mut fb = FunctionBuilder::new("main", 0);
/// let obj = fb.malloc(Operand::Imm(32));
/// let holder = fb.malloc(Operand::Imm(8));
/// fb.store_ptr(holder, 0, obj);
/// fb.free(obj);
/// fb.ret(None);
/// let prog = Program { funcs: vec![fb.finish()] };
/// assert_eq!(prog.validate(), Ok(()));
/// ```
pub struct FunctionBuilder {
    name: String,
    params: u32,
    reg_types: Vec<Ty>,
    blocks: Vec<Block>,
    current: usize,
}

impl FunctionBuilder {
    /// Starts a function with `params` pointer-or-integer parameters; call
    /// [`FunctionBuilder::param_ty`] to refine types (default `I64`).
    pub fn new(name: &str, params: u32) -> FunctionBuilder {
        FunctionBuilder {
            name: name.to_string(),
            params,
            reg_types: vec![Ty::I64; params as usize],
            blocks: vec![Block {
                insts: Vec::new(),
                term: Term::Ret(None),
            }],
            current: 0,
        }
    }

    /// Declares parameter `i` to be a pointer.
    pub fn param_ty(&mut self, i: u32, ty: Ty) -> Reg {
        assert!(i < self.params);
        self.reg_types[i as usize] = ty;
        Reg(i)
    }

    /// Allocates a fresh register of type `ty`.
    pub fn fresh(&mut self, ty: Ty) -> Reg {
        let r = Reg(self.reg_types.len() as u32);
        self.reg_types.push(ty);
        r
    }

    /// Creates a new (empty) block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block {
            insts: Vec::new(),
            term: Term::Ret(None),
        });
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Switches the insertion point.
    pub fn switch_to(&mut self, b: BlockId) {
        self.current = b.0 as usize;
    }

    fn push(&mut self, inst: Inst) {
        self.blocks[self.current].insts.push(inst);
    }

    /// `dst = imm`.
    pub fn iconst(&mut self, value: i64) -> Reg {
        let dst = self.fresh(Ty::I64);
        self.push(Inst::Const { dst, value });
        dst
    }

    /// Binary operation into a fresh register.
    pub fn bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.fresh(Ty::I64);
        self.push(Inst::Bin { dst, op, lhs, rhs });
        dst
    }

    /// Binary operation into an existing register (redefinition).
    pub fn bin_into(&mut self, dst: Reg, op: BinOp, lhs: Operand, rhs: Operand) {
        self.push(Inst::Bin { dst, op, lhs, rhs });
    }

    /// `dst = malloc(size)`.
    pub fn malloc(&mut self, size: Operand) -> Reg {
        let dst = self.fresh(Ty::Ptr);
        self.push(Inst::Malloc { dst, size });
        dst
    }

    /// `free(ptr)`.
    pub fn free(&mut self, ptr: Reg) {
        self.push(Inst::Free { ptr });
    }

    /// `dst = realloc(ptr, size)`.
    pub fn realloc(&mut self, ptr: Reg, size: Operand) -> Reg {
        let dst = self.fresh(Ty::Ptr);
        self.push(Inst::Realloc { dst, ptr, size });
        dst
    }

    /// Pointer-typed load.
    pub fn load_ptr(&mut self, addr: Reg, offset: i64) -> Reg {
        let dst = self.fresh(Ty::Ptr);
        self.push(Inst::Load { dst, addr, offset });
        dst
    }

    /// Integer load.
    pub fn load_i64(&mut self, addr: Reg, offset: i64) -> Reg {
        let dst = self.fresh(Ty::I64);
        self.push(Inst::Load { dst, addr, offset });
        dst
    }

    /// Pointer-typed store (the instrumentation target).
    pub fn store_ptr(&mut self, addr: Reg, offset: i64, value: Reg) {
        self.push(Inst::Store {
            addr,
            offset,
            value: Operand::Reg(value),
        });
    }

    /// Non-pointer store.
    pub fn store_i64(&mut self, addr: Reg, offset: i64, value: Operand) {
        self.push(Inst::Store {
            addr,
            offset,
            value,
        });
    }

    /// GEP-style pointer arithmetic.
    pub fn gep(&mut self, base: Reg, offset: Operand) -> Reg {
        let dst = self.fresh(Ty::Ptr);
        self.push(Inst::Gep { dst, base, offset });
        dst
    }

    /// Call with an integer result.
    pub fn call(&mut self, func: FuncId, args: Vec<Operand>) -> Reg {
        let dst = self.fresh(Ty::I64);
        self.push(Inst::Call {
            dst: Some(dst),
            func,
            args,
        });
        dst
    }

    /// Call ignoring the result.
    pub fn call_void(&mut self, func: FuncId, args: Vec<Operand>) {
        self.push(Inst::Call {
            dst: None,
            func,
            args,
        });
    }

    /// Stack slot.
    pub fn alloca(&mut self, size: u64) -> Reg {
        let dst = self.fresh(Ty::Ptr);
        self.push(Inst::StackAlloc { dst, size });
        dst
    }

    /// Terminates the current block with a jump.
    pub fn jump(&mut self, to: BlockId) {
        self.blocks[self.current].term = Term::Jump(to);
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: Operand, then_to: BlockId, else_to: BlockId) {
        self.blocks[self.current].term = Term::Branch {
            cond,
            then_to,
            else_to,
        };
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.blocks[self.current].term = Term::Ret(value);
    }

    /// Finalises the function.
    pub fn finish(self) -> Function {
        Function {
            name: self.name,
            params: self.params,
            reg_types: self.reg_types,
            blocks: self.blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;

    #[test]
    fn builds_a_loop() {
        // for (i = 0; i < 10; i++) { p[0] = q; }
        let mut fb = FunctionBuilder::new("loopy", 0);
        let p = fb.malloc(Operand::Imm(8));
        let q = fb.malloc(Operand::Imm(8));
        let i = fb.iconst(0);
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.bin(BinOp::Lt, Operand::Reg(i), Operand::Imm(10));
        fb.branch(Operand::Reg(c), body, exit);
        fb.switch_to(body);
        fb.store_ptr(p, 0, q);
        fb.bin_into(i, BinOp::Add, Operand::Reg(i), Operand::Imm(1));
        fb.jump(header);
        fb.switch_to(exit);
        fb.ret(None);
        let prog = Program {
            funcs: vec![fb.finish()],
        };
        assert_eq!(prog.validate(), Ok(()));
        assert_eq!(prog.funcs[0].blocks.len(), 4);
    }
}

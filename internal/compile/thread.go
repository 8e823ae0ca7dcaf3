package compile

// The thread pass: jump threading of loop entries. linearize rotates a
// while or for loop so its condition is the back edge, entered once
// through a jmp:
//
//	      jmp cond
//	top:  body
//	cond: branch of the condition to top
//	end:
//
// When the condition is a single conditional branch whose taken target is
// the instruction right after the jmp, the jmp and the branch are one
// decision: the pass replaces the jmp with the negated branch to cond+1,
// which skips the loop exactly when the original branch would fall
// through to end, and otherwise falls through into the body. The branch
// reads the same registers in the same state, since a jmp changes none.
// Every entry into such a loop so runs one dispatch fewer.
//
// FJmpZ, FJmpNZ and the compare-and-branch opcodes, on two registers or
// with an immediate, are threaded. The pass rewrites instructions in place
// and deletes none, so every jump target stays valid. It runs after
// regopt, which forms the compare-and-branch opcodes it threads through.

import "repro/internal/ir"

// threadJumps threads every function's jumps into a branch.
func threadJumps(p *ir.Program) {
	for _, ff := range p.Flat.Funcs {
		code := ff.Code
		for pc := range code {
			in := &code[pc]
			if in.Op != ir.FJmp {
				continue
			}
			top := in.A
			br := code[top]
			neg, ok := br.Op.NegateBranch()
			if !ok || *br.Target() != int32(pc+1) {
				continue
			}
			*in = br
			in.Op = neg
			*in.Target() = top + 1
		}
	}
}

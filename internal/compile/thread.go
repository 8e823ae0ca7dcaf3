package compile

// The thread pass: jump threading of loop back edges. A while or for loop
// lowers to
//
//	top:  branch-out of the condition to end
//	      body
//	      jmp top
//	end:
//
// so every iteration dispatches the jmp and then the condition's branch.
// When the jmp's target is a conditional branch whose taken target is the
// instruction right after the jmp, the pair is one decision: the pass
// replaces the jmp with the negated branch to top+1, which jumps back into
// the body exactly when the original branch would fall through into it,
// and otherwise falls through to end. The branch reads the same registers
// in the same state, since a jmp changes none.
//
// Only FJmpZ, FJmpNZ and the compare-and-branch opcodes are threaded;
// FJmpEqImm, a switch dispatch, has no negated form. The pass rewrites
// instructions in place and deletes none, so every jump target stays
// valid. It runs after regopt, which forms the compare-and-branch opcodes
// it threads through.

import "repro/internal/ir"

// threadJumps threads every function's back-edge jumps.
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

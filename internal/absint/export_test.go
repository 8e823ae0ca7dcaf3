package absint

import "repro/internal/ir"

// CheckAddrPCs runs the engine over function fnIdx of prog with no context
// and returns the pcs of the checks checkAddrs resolves, the set ticket
// certification decomposes.
func CheckAddrPCs(prog *ir.Program, fnIdx int) []int {
	e := newEngine(prog, fnIdx, nil, nil, nil, 1, defaultStepBudget)
	e.run()
	var pcs []int
	for _, ca := range e.checkAddrs() {
		pcs = append(pcs, ca.pc)
	}
	return pcs
}

// WidenPoints returns the pcs of code at which the fixpoint widens.
func WidenPoints(code []ir.Instr) []bool { return backEdgeTargets(code) }

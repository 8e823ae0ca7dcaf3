package semantics

// Rendering of core-language programs as ShC source, so the generator's
// random well-typed programs can drive the full SharC pipeline (the
// engine's golden fuzz oracle and the compiler's pass oracles).

import (
	"fmt"
	"strings"
)

// shcType renders a core-language type as an ShC type: int with its mode,
// wrapped in one '*' per reference level, each star carrying the level's
// mode qualifier.
func shcType(ty *Type) string {
	if ty.Ref == nil {
		return "int " + ty.Mode.String()
	}
	return shcType(ty.Ref) + " * " + ty.Mode.String()
}

// shcRenderer turns a Program into ShC source.
type shcRenderer struct {
	p   *Program
	sb  strings.Builder
	env map[string]*Type
}

// RenderShC renders p as ShC source. Spawns are kept only in main
// (worker-side spawns could recurse unboundedly without the step budget
// the semantics machine enforces) and every spawn gets a matching join so
// the program terminates on its own. The surface syntax is stricter than
// the core language, so not every rendering passes the static checker.
func RenderShC(p *Program) string {
	r := &shcRenderer{p: p, env: map[string]*Type{}}
	for _, g := range p.Globals {
		r.env[g.Name] = g.Type
		fmt.Fprintf(&r.sb, "%s %s;\n", shcType(g.Type), g.Name)
	}
	r.sb.WriteString("\n")
	for _, th := range p.Threads {
		if th.Name != p.Main {
			r.thread(&th, false)
		}
	}
	r.thread(p.Thread(p.Main), true)
	return r.sb.String()
}

func (r *shcRenderer) typeOfLVal(l LVal) *Type {
	ty := r.env[l.Name]
	if l.Deref {
		return ty.Ref
	}
	return ty
}

func (r *shcRenderer) thread(th *ThreadDef, isMain bool) {
	if isMain {
		fmt.Fprintf(&r.sb, "int main(void) {\n")
	} else {
		fmt.Fprintf(&r.sb, "void *%s(void *d) {\n", th.Name)
	}
	for _, l := range th.Locals {
		r.env[l.Name] = l.Type
		fmt.Fprintf(&r.sb, "\t%s %s;\n", shcType(l.Type), l.Name)
	}
	handles := 0
	for _, s := range th.Body {
		if s.Kind == StmtSpawn {
			if !isMain || s.Thread == r.p.Main {
				continue
			}
			fmt.Fprintf(&r.sb, "\tint private h%d = spawn(%s, NULL);\n", handles, s.Thread)
			handles++
			continue
		}
		r.assign(s)
	}
	for i := 0; i < handles; i++ {
		fmt.Fprintf(&r.sb, "\tjoin(h%d);\n", i)
	}
	if isMain {
		r.sb.WriteString("\treturn 0;\n}\n\n")
	} else {
		r.sb.WriteString("\treturn NULL;\n}\n\n")
	}
	for _, l := range th.Locals {
		delete(r.env, l.Name)
	}
}

func (r *shcRenderer) assign(s Stmt) {
	lhs := s.L.String()
	switch s.R.Kind {
	case RHSInt:
		fmt.Fprintf(&r.sb, "\t%s = %d;\n", lhs, s.R.N)
	case RHSNull:
		fmt.Fprintf(&r.sb, "\t%s = NULL;\n", lhs)
	case RHSNew:
		fmt.Fprintf(&r.sb, "\t%s = malloc(8);\n", lhs)
	case RHSLVal:
		fmt.Fprintf(&r.sb, "\t%s = %s;\n", lhs, s.R.L)
	case RHSScast:
		fmt.Fprintf(&r.sb, "\t%s = SCAST(%s, %s);\n", lhs, shcType(r.typeOfLVal(s.L)), s.R.X)
	}
}

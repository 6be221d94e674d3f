// Package costcharge enforces the simnet cost-model contracts
// interprocedurally, over the call graph:
//
//   - Task.Pure bodies must not REACH the obs/trace telemetry layer or a
//     simulation charge operation through any chain of calls, so a closure
//     that delegates to a helper which logs a span is caught too. The engine
//     memoizes Pure per task: it runs once, on whichever attempt (original or
//     speculative copy) starts first, and every attempt charges its returned
//     work. A span or a charge inside it would therefore be booked once, on
//     one attempt's executor, instead of on each attempt that the work
//     models.
//
//   - Observe-path functions — everything in internal/obs and
//     internal/trace, plus any function or method named Observe* — must
//     never transitively consume simulated time or bytes (des waits, simnet
//     sends/computes/receives): observe-never-charge. An observation that
//     charges would double-account the very cost it reports.
//
//   - Within one basic block, two textually identical charge statements
//     (the same Send/Compute call with the same arguments) account the same
//     bytes or work twice — the copy-paste class of accounting bug. The
//     duplicate carries a suggested fix deleting it. Loops are not false
//     positives: a broadcast loop charges once per iteration through a
//     single statement, which is exactly once per message.
//
// Function summaries ("reaches obs", "reaches a charge") are computed
// callee-first over each package's call graph and exported as facts keyed
// by callgraph.FuncID, so the reachability crosses package boundaries: the
// driver analyzes packages in dependency order and a caller package imports
// the summaries of its dependencies instead of re-deriving them.
package costcharge

import (
	"go/ast"
	"go/types"
	"strings"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/callgraph"
	"mllibstar/internal/analysis/cfg"
)

const (
	obsPath    = "mllibstar/internal/obs"
	tracePath  = "mllibstar/internal/trace"
	simnetPath = "mllibstar/internal/simnet"
	desPath    = "mllibstar/internal/des"
)

// uniqueChargeNames are charge operations whose names exist nowhere else in
// the module, matched by name alone so corpora can mirror them. Generic
// names (Send, Compute, Recv, Wait) additionally require the defining
// package to be simnet or des.
var uniqueChargeNames = map[string]bool{
	"ComputeKind": true,
	"SendPhase":   true,
	"RecvN":       true,
	"WaitUntil":   true,
}

var simnetChargeNames = map[string]bool{
	"Send": true, "Compute": true, "Recv": true,
}

var desChargeNames = map[string]bool{
	"Wait": true, "WaitUntil": true,
}

const name = "costcharge"

// Analyzer is the interprocedural cost-charge check.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "Task.Pure bodies must not reach obs/trace or simulation charges; observe paths never charge; no duplicate charge statements",
	FactsAll: true,
	Run:      run,
}

// Marks of one function summary.
const (
	reachesObs uint8 = 1 << iota
	reachesCharge
)

// summary says what a function transitively reaches, with one witness call
// chain per bit for the diagnostic.
type summary struct {
	Bits      uint8  `json:"bits"`
	ObsVia    string `json:"obsVia,omitempty"`
	ChargeVia string `json:"chargeVia,omitempty"`
}

func (s *summary) add(bit uint8, via string) bool {
	if s.Bits&bit != 0 {
		return false
	}
	s.Bits |= bit
	if bit == reachesObs {
		s.ObsVia = via
	} else {
		s.ChargeVia = via
	}
	return true
}

func (s *summary) via(bit uint8) string {
	if bit == reachesObs {
		return s.ObsVia
	}
	return s.ChargeVia
}

func run(pass *analysis.Pass) error {
	if p := pass.Pkg.Path(); p == obsPath || p == tracePath || p == simnetPath || p == desPath {
		// The telemetry and cost-model layers implement the primitives; the
		// contracts bind their users.
		return nil
	}
	g := callgraph.Build(pass.TypesInfo, pass.Files)
	sums := solve(pass, g)

	// Export each declared function's summary for downstream packages.
	facts := pass.FactStore()
	for _, n := range g.Nodes {
		if n.Fn != nil {
			facts.Export(name, callgraph.FuncID(n.Fn), sums[n])
		}
	}

	reportPureRoots(pass, g, sums)
	reportObservePaths(pass, g, sums)
	reportDuplicateCharges(pass, g)
	return nil
}

// solve computes reachability summaries callee-first, iterating recursive
// components to a fixpoint.
func solve(pass *analysis.Pass, g *callgraph.Graph) map[*callgraph.Node]*summary {
	sums := map[*callgraph.Node]*summary{}
	for _, n := range g.Nodes {
		sums[n] = &summary{}
	}
	facts := pass.FactStore()
	callgraph.BottomUp(g, func(n *callgraph.Node) bool {
		s := sums[n]
		changed := false
		for _, c := range n.Calls {
			switch {
			case c.Callee != nil:
				cs := sums[c.Callee]
				for _, bit := range []uint8{reachesObs, reachesCharge} {
					if cs.Bits&bit != 0 && s.add(bit, chain(c.Callee.Name, cs.via(bit))) {
						changed = true
					}
				}
			case c.Remote != nil:
				if bit, name := classify(c.Remote); bit != 0 {
					if s.add(bit, name) {
						changed = true
					}
					continue
				}
				var rs summary
				if facts.Import(name, callgraph.FuncID(c.Remote), &rs) {
					for _, bit := range []uint8{reachesObs, reachesCharge} {
						if rs.Bits&bit != 0 && s.add(bit, chain(remoteName(c.Remote), rs.via(bit))) {
							changed = true
						}
					}
				}
			}
		}
		return changed
	})
	return sums
}

// chain prepends a hop to a witness chain, capped so diagnostics stay
// readable on deep call stacks.
func chain(hop, rest string) string {
	if rest == "" {
		return hop
	}
	if strings.Count(rest, " → ") >= 3 {
		return hop + " → …"
	}
	return hop + " → " + rest
}

func remoteName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// classify maps a remote callee to the primitive it implements: a telemetry
// op (anything in obs or trace), a charge op (simnet transfers/computes,
// des waits), or neither.
func classify(fn *types.Func) (uint8, string) {
	name := fn.Name()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	switch {
	case pkg == obsPath || strings.HasPrefix(pkg, obsPath+"/"):
		return reachesObs, "obs." + name
	case pkg == tracePath:
		return reachesObs, "trace." + name
	case uniqueChargeNames[name]:
		return reachesCharge, name
	case pkg == simnetPath && simnetChargeNames[name]:
		return reachesCharge, "simnet." + name
	case pkg == desPath && desChargeNames[name]:
		return reachesCharge, "des." + name
	}
	return 0, ""
}

// reportPureRoots finds every Task.Pure closure literal — in a composite
// literal (Task{Pure: func() …}) or an assignment (t.Pure = func() …) — and
// checks its summary.
func reportPureRoots(pass *analysis.Pass, g *callgraph.Graph, sums map[*callgraph.Node]*summary) {
	var roots []*ast.FuncLit
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Pure" {
					if lit, ok := ast.Unparen(kv.Value).(*ast.FuncLit); ok {
						roots = append(roots, lit)
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Pure" || i >= len(n.Rhs) {
					continue
				}
				if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
					roots = append(roots, lit)
				}
			}
		}
		return true
	})

	for _, lit := range roots {
		s := sums[g.ByLit[lit]]
		if s == nil {
			continue
		}
		if s.Bits&reachesObs != 0 {
			pass.Reportf(lit.Pos(),
				"Task.Pure closure reaches obs/trace telemetry (%s): Pure runs once per task, on whichever attempt starts first, so its telemetry would describe one attempt only; emit events from Run",
				s.ObsVia)
		}
		if s.Bits&reachesCharge != 0 {
			pass.Reportf(lit.Pos(),
				"Task.Pure closure reaches a simulation charge (%s): Pure runs once per task, so a charge inside it would be booked on one attempt only; return the work and let the engine charge it",
				s.ChargeVia)
		}
	}
}

// reportObservePaths enforces observe-never-charge on every function or
// method named Observe*.
func reportObservePaths(pass *analysis.Pass, g *callgraph.Graph, sums map[*callgraph.Node]*summary) {
	for _, n := range g.Nodes {
		if n.Fn == nil || !strings.HasPrefix(n.Fn.Name(), "Observe") {
			continue
		}
		if s := sums[n]; s.Bits&reachesCharge != 0 {
			pass.Reportf(n.Decl.Name.Pos(),
				"observe-path function %s transitively consumes simulated time or bytes (%s): observation must never charge",
				n.Name, s.ChargeVia)
		}
	}
}

// reportDuplicateCharges flags two identical charge statements in one basic
// block, with a fix deleting the duplicate.
func reportDuplicateCharges(pass *analysis.Pass, g *callgraph.Graph) {
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		graph := cfg.New(body)
		for _, b := range graph.Blocks {
			seen := map[string]bool{}
			for _, node := range b.Nodes {
				es, ok := node.(*ast.ExprStmt)
				if !ok {
					continue
				}
				call, ok := ast.Unparen(es.X).(*ast.CallExpr)
				if !ok || !isChargeCall(pass, call) {
					continue
				}
				key := types.ExprString(es.X)
				if seen[key] {
					pass.ReportFix(es.Pos(), analysis.SuggestedFix{
						Message: "delete the duplicated charge statement",
						Edits:   []analysis.TextEdit{{Pos: es.Pos(), End: es.End()}},
					}, "duplicate charge %s in the same block accounts the same bytes/work twice", key)
					continue
				}
				seen[key] = true
			}
		}
	}
}

func isChargeCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	bit, _ := classify(fn)
	return bit == reachesCharge
}

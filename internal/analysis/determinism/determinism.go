// Package determinism implements the smoothvet analyzer that keeps the
// simulation and serving step paths schedule-invariant: the sweep engine
// promises byte-identical output at any worker count, and the serving
// engine at any shard count, so code on those paths must not let map
// iteration order, the wall clock, global randomness, or goroutine
// scheduling leak into results.
//
// Three triggers:
//
//   - every function in the packages listed in Scope is checked for
//     order-leaking map iteration;
//   - functions annotated //smoothvet:deterministic (anywhere in the
//     module) are additionally checked for global math/rand use, channel
//     traffic inside spawned goroutines, and multi-way selects;
//   - functions annotated //smoothvet:deterministic or //smoothvet:noalloc
//     are checked for wall-clock reads: a step path takes "now" from the
//     shard's tick stamp or a now parameter, never from the clock.
//
// The marker-rooted rules extend through the package call graph to the
// unmarked helpers a marked root reaches; calls through function values
// and interface methods are not followed.
//
// A map range is accepted in three shapes: collect-keys-then-sort (the
// ordered-collect idiom), pure map clearing (delete or overwrite of the
// ranged map only), or an explicit //smoothvet:ordered suppression on the
// statement, which asserts — auditable in review — that order cannot
// reach output.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Scope lists package-path suffixes whose whole body is subject to the
// map-range rule: the step paths named by the determinism contracts.
// It is a variable so the analyzer's own tests can scope their testdata.
var Scope = []string{
	"repro/internal/experiment",
	"repro/internal/sched",
	"repro/internal/serve",
}

// Analyzer is the determinism checker.
var Analyzer = &framework.Analyzer{
	Name: "determinism",
	Doc:  "forbid nondeterminism sources (map order, wall clock, global rand, scheduling) on step paths and wall-clock reads on noalloc paths",
	Run:  run,
}

func run(pass *framework.Pass) error {
	markers := pass.ParseMarkers()
	inScope := pass.InScope(Scope)
	roots := make(map[*ast.FuncDecl]string)
	for _, fd := range markers.FuncDecls(framework.MarkerDeterministic) {
		roots[fd] = framework.MarkerDeterministic
	}
	g := pass.BuildCallGraph()
	strictReach := g.ReachableFrom(roots)
	for _, fd := range markers.FuncDecls(framework.MarkerNoAlloc) {
		if _, ok := roots[fd]; !ok {
			roots[fd] = framework.MarkerNoAlloc
		}
	}
	clockReach := g.ReachableFrom(roots)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			strict, isStrict := strictReach[fd]
			clock, isClock := clockReach[fd]
			if !isClock && !inScope {
				continue
			}
			c := &checker{pass: pass, fd: fd}
			if isStrict {
				c.strict = &strict
			}
			if isClock {
				c.clock = &clock
			}
			c.check()
		}
	}
	return nil
}

// checker applies the rules to one function; strict and clock are the
// reachability records of the rules that apply (nil when they do not).
type checker struct {
	pass          *framework.Pass
	fd            *ast.FuncDecl
	strict, clock *framework.Reach
}

// path names the marked root a rule reached fd from.
func (c *checker) path(how *framework.Reach) string {
	if how.Root == c.fd {
		return ""
	}
	return " (reachable from " + how.Root.Name.Name + ")"
}

func (c *checker) check() {
	pass, fd := c.pass, c.fd
	markers := pass.ParseMarkers()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapType(pass, n.X) && !markers.OrderedAt(n.For) &&
				!isOrderedCollect(pass, fd, n) && !isMapClear(pass, n) {
				pass.Reportf(n.For, "map iteration order can reach output here; collect keys and sort, or annotate //smoothvet:ordered")
			}
		case *ast.CallExpr:
			if name, ok := stdlibCall(pass, n, "time"); ok && c.clock != nil {
				switch name {
				case "Now", "Since", "Until", "After", "Tick", "NewTicker", "NewTimer", "AfterFunc":
					pass.Reportf(n.Pos(), "time.%s reads the wall clock on a //smoothvet:%s path%s; take now from the shard's tick stamp or a parameter", name, c.clock.Marker, c.path(c.clock))
				}
			}
			if c.strict == nil {
				break
			}
			if name, ok := stdlibCall(pass, n, "math/rand"); ok && !strings.HasPrefix(name, "New") {
				pass.Reportf(n.Pos(), "global math/rand.%s in a //smoothvet:deterministic function%s; use a seeded *rand.Rand", name, c.path(c.strict))
			}
			if name, ok := stdlibCall(pass, n, "math/rand/v2"); ok && !strings.HasPrefix(name, "New") {
				pass.Reportf(n.Pos(), "global math/rand/v2.%s in a //smoothvet:deterministic function%s; use a seeded generator", name, c.path(c.strict))
			}
		case *ast.GoStmt:
			if c.strict == nil {
				break
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkGoroutineBody(pass, lit)
			}
		case *ast.SelectStmt:
			if c.strict == nil {
				break
			}
			comm := 0
			hasDefault := false
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
				} else {
					comm++
				}
			}
			if comm > 1 || hasDefault {
				pass.Reportf(n.Select, "select outcome depends on goroutine scheduling in a //smoothvet:deterministic function%s", c.path(c.strict))
			}
		}
		return true
	})
}

// checkGoroutineBody flags channel traffic inside a goroutine spawned by a
// deterministic function: which goroutine's send lands first is a
// scheduler decision, so results must come back through indexed slots
// (results[i] = ...) the way experiment.Sweep does, not through a shared
// channel.
func checkGoroutineBody(pass *framework.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Arrow, "channel send inside a spawned goroutine makes completion order observable; write to an indexed slot instead")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.OpPos, "channel receive inside a spawned goroutine makes scheduling order observable")
			}
		}
		return true
	})
}

// isMapType reports whether the ranged expression has map type.
func isMapType(pass *framework.Pass, x ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isOrderedCollect recognizes the collect-then-sort idiom:
//
//	for k := range m { ks = append(ks, k) }
//	...
//	sort.Strings(ks)   // or sort.Slice/sort.Ints/slices.Sort...
//
// The loop body must be exactly one self-append of the range variable, and
// a sort call mentioning the destination must follow the loop inside the
// same function.
func isOrderedCollect(pass *framework.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	dst := exprObj(pass, as.Lhs[0])
	if dst == nil || dst != exprObj(pass, call.Args[0]) {
		return false
	}
	// The appended values must come from the range variables.
	rangeVars := make(map[types.Object]bool)
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if v != nil {
			if o := exprObj(pass, v); o != nil {
				rangeVars[o] = true
			}
		}
	}
	for _, arg := range call.Args[1:] {
		if o := exprObj(pass, arg); o == nil || !rangeVars[o] {
			return false
		}
	}
	// A later sort of dst seals the idiom.
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted || n == nil || n.Pos() <= rs.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		isSort := false
		if name, ok := stdlibCall(pass, call, "sort"); ok {
			switch name {
			case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
				isSort = true
			}
		} else if name, ok := stdlibCall(pass, call, "slices"); ok && strings.HasPrefix(name, "Sort") {
			isSort = true
		}
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			found := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == dst {
					found = true
				}
				return !found
			})
			if found {
				sorted = true
				break
			}
		}
		return !sorted
	})
	return sorted
}

// isMapClear recognizes loops that only delete from or overwrite the
// ranged map itself — in-place clears, which are order-invariant.
func isMapClear(pass *framework.Pass, rs *ast.RangeStmt) bool {
	m := types.ExprString(ast.Unparen(rs.X))
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, st := range rs.Body.List {
		switch st := st.(type) {
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return false
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "delete" {
				return false
			}
			if types.ExprString(ast.Unparen(call.Args[0])) != m {
				return false
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 {
				return false
			}
			ix, ok := st.Lhs[0].(*ast.IndexExpr)
			if !ok || types.ExprString(ast.Unparen(ix.X)) != m {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// exprObj resolves a plain identifier (possibly parenthesized) to its
// object; composite expressions yield nil.
func exprObj(pass *framework.Pass, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return pass.TypesInfo.ObjectOf(id)
	}
	return nil
}

// stdlibCall reports whether call invokes a package-level function of the
// stdlib package with the given import path, returning the function name.
func stdlibCall(pass *framework.Pass, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if _, isSel := pass.TypesInfo.Selections[sel]; isSel {
		return "", false // method call, not a package-level function
	}
	return fn.Name(), true
}

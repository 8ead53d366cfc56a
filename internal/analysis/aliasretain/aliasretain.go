// Package aliasretain implements the smoothvet analyzer that enforces the
// reused-buffer aliasing contracts: APIs annotated //smoothvet:aliased
// (core.Server.Step's result slices, netstream Decoder.Next's message)
// return memory their owner overwrites on the next call, so callers may
// read the result within the step but must copy before retaining.
//
// The analyzer taints every value produced by an annotated call and every
// reference-carrying value derived from it (field selections, slicings,
// re-assignments, composite literals containing one), then reports uses
// that outlive or corrupt the borrow:
//
//   - storing a tainted value anywhere that outlives the local frame — a
//     struct field, a dereference, an array/map/slice element, a global;
//   - sending a tainted value on a channel;
//   - returning a tainted value, unless the enclosing function is itself
//     annotated //smoothvet:aliased (explicit contract propagation);
//   - appending a tainted slice *as one element* of a slice-of-slices
//     (append(batches, res.Sent) retains; append(dst, res.Sent...) copies
//     elements and is fine);
//   - mutating the borrowed memory: tainted[i] = v, append whose first
//     operand is tainted, or copy into a tainted destination.
//
// Scalar loads (res.SentBytes) do not taint, element copies out of ranged
// tainted slices do not taint, and passing a tainted value as an ordinary
// call argument is allowed — the callee sees a borrow for the duration of
// the call, the same contract the caller holds.
//
// Annotations on APIs in *other* packages are honored too: export data
// carries no comments, so the analyzer resolves the callee's declaration
// position and scans the declaring source file (framework.Markers).
package aliasretain

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the aliasing-contract checker.
var Analyzer = &framework.Analyzer{
	Name: "aliasretain",
	Doc:  "report callers retaining or mutating buffers returned by //smoothvet:aliased APIs",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc runs the intra-procedural taint walk over one function as a
// forward dataflow problem on the framework CFG: taint introduced on one
// path — including a loop back edge, where the borrow from a previous
// iteration is still live — reaches every use control flow can carry it
// to. The facts map local objects to the aliased API they borrow from,
// joined by union (may-borrow).
func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	c := &checker{
		pass:    pass,
		markers: pass.ParseMarkers(),
	}
	c.selfAliased = c.funcIsAliased(pass.TypesInfo.Defs[fd.Name])
	cfg := framework.NewCFG(fd.Body)
	framework.RunFlow(cfg, framework.Facts{}, func(n ast.Node, facts framework.Facts, report bool) {
		c.facts = facts
		c.reporting = report
		c.node(n)
	}, nil)
}

// node applies the taint rules to one CFG node. Nested function literals
// are walked in place with the enclosing facts: a closure shares its
// frame's borrows, so a retain inside it is just as wrong.
func (c *checker) node(n ast.Node) {
	if rh, ok := n.(*framework.RangeHead); ok {
		// Range variables hold element copies; the ranged expression
		// itself is a read. Only nested calls (append/copy) need checking.
		if rh.Range.X == nil {
			return
		}
		n = rh.Range.X
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			c.assign(m)
		case *ast.GenDecl:
			c.varDecl(m)
		case *ast.SendStmt:
			if src := c.taintSource(m.Value); src != "" {
				c.reportf(m.Arrow, "sending %s on a channel retains memory reused by %s; copy first", types.ExprString(m.Value), src)
			}
		case *ast.ReturnStmt:
			if c.selfAliased {
				break
			}
			for _, res := range m.Results {
				if src := c.taintSource(res); src != "" {
					c.reportf(res.Pos(), "returning %s leaks memory reused by %s; copy it, or annotate this function //smoothvet:aliased to propagate the contract", types.ExprString(res), src)
				}
			}
		case *ast.CallExpr:
			c.call(m)
		}
		return true
	})
}

type checker struct {
	pass    *framework.Pass
	markers *framework.Markers
	// facts is the current flow state: it maps a local types.Object to the
	// name of the aliased API whose memory it borrows.
	facts       framework.Facts
	reporting   bool
	selfAliased bool
}

// reportf emits a diagnostic only during the reporting replay; the
// fixpoint iterations mutate facts silently.
func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.reporting {
		c.pass.Reportf(pos, format, args...)
	}
}

func (c *checker) funcIsAliased(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && c.markers.FuncHasMarker(fn, framework.MarkerAliased)
}

// taintSource returns the name of the aliased API the expression borrows
// from, or "" if the expression is clean. Only reference-carrying types
// can borrow: scalar projections of a tainted struct are safe copies.
func (c *checker) taintSource(e ast.Expr) string {
	if e == nil {
		return ""
	}
	if t := c.pass.TypesInfo.TypeOf(e); !taintable(t) {
		// A call returning (T, error) has a tuple type; its buffer result
		// still borrows.
		if _, tuple := t.(*types.Tuple); !tuple {
			return ""
		}
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.ObjectOf(e); obj != nil {
			return c.facts[obj]
		}
	case *ast.SelectorExpr:
		return c.taintSource(e.X)
	case *ast.IndexExpr:
		return c.taintSource(e.X)
	case *ast.SliceExpr:
		return c.taintSource(e.X)
	case *ast.StarExpr:
		return c.taintSource(e.X)
	case *ast.TypeAssertExpr:
		return c.taintSource(e.X)
	case *ast.CallExpr:
		if fn := framework.StaticCallee(c.pass.TypesInfo, e); fn != nil && c.markers.FuncHasMarker(fn, framework.MarkerAliased) {
			return fn.FullName()
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if src := c.taintSource(el); src != "" {
				return src
			}
		}
	case *ast.UnaryExpr:
		return c.taintSource(e.X)
	}
	return ""
}

// assign propagates taint through assignments, flags escaping stores, and
// flags writes that mutate borrowed memory through a tainted base.
func (c *checker) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		c.checkMutation(lhs)
	}
	// Pair-wise only; tuple assignments from calls are handled by the
	// call's own taint (a, b := f() taints both when f is aliased).
	if len(n.Lhs) != len(n.Rhs) {
		if len(n.Rhs) == 1 {
			if src := c.taintSource(n.Rhs[0]); src != "" {
				for _, lhs := range n.Lhs {
					c.taintOrFlag(lhs, src, n.Rhs[0])
				}
			}
		}
		return
	}
	for i := range n.Lhs {
		src := c.taintSource(n.Rhs[i])
		if src == "" {
			// Overwriting with a clean value clears a local's taint on
			// this path (it may survive the join from another path).
			if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
					delete(c.facts, obj)
				}
			}
			continue
		}
		c.taintOrFlag(n.Lhs[i], src, n.Rhs[i])
	}
}

// checkMutation flags assignment targets that write through a tainted
// base into memory the borrower does not own: element writes into a
// tainted slice or map, writes through a tainted pointer, and field
// writes through a tainted pointer chain. Overwriting a tainted *local*
// (a plain identifier) only changes the local copy and is clean.
func (c *checker) checkMutation(lhs ast.Expr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		if src := c.taintSource(l.X); src != "" {
			c.reportf(lhs.Pos(), "writing into %s mutates memory owned by %s; copy the slice before editing it", types.ExprString(l.X), src)
		}
	case *ast.StarExpr:
		if src := c.taintSource(l.X); src != "" {
			c.reportf(lhs.Pos(), "writing through %s mutates memory owned by %s", types.ExprString(l.X), src)
		}
	case *ast.SelectorExpr:
		if t := c.pass.TypesInfo.TypeOf(l.X); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				if src := c.taintSource(l.X); src != "" {
					c.reportf(lhs.Pos(), "writing %s mutates memory owned by %s", types.ExprString(lhs), src)
				}
			}
		}
	}
}

// taintOrFlag either records the taint (plain local target) or reports an
// escaping store (anything that outlives the frame).
func (c *checker) taintOrFlag(lhs ast.Expr, src string, rhs ast.Expr) {
	if t := c.pass.TypesInfo.TypeOf(lhs); t != nil && types.Identical(t, errType) {
		return // the error result of an aliased call carries no buffer
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := c.pass.TypesInfo.ObjectOf(l)
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && obj.Parent() != c.pass.Pkg.Scope() {
			if taintable(obj.Type()) {
				c.facts[obj] = src
			}
			return
		}
		// Package-level variable: escapes every frame.
		c.reportf(lhs.Pos(), "storing %s in package variable %s retains memory reused by %s; copy first", types.ExprString(rhs), l.Name, src)
	default:
		// Field, element, or dereference target: outlives the statement.
		c.reportf(lhs.Pos(), "storing %s in %s retains memory reused by %s; copy first", types.ExprString(rhs), types.ExprString(lhs), src)
	}
}

// varDecl handles `var x = taintedExpr`.
func (c *checker) varDecl(n *ast.GenDecl) {
	for _, spec := range n.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			if src := c.taintSource(vs.Values[i]); src != "" {
				if obj := c.pass.TypesInfo.ObjectOf(name); obj != nil && taintable(obj.Type()) {
					c.facts[obj] = src
				}
			}
		}
	}
}

// call flags borrow-mutating builtins and taints tuple destructuring.
func (c *checker) call(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	switch id.Name {
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if src := c.taintSource(call.Args[0]); src != "" {
			c.reportf(call.Pos(), "appending to %s may write into memory owned by %s; copy the slice before growing it", types.ExprString(call.Args[0]), src)
		}
		if call.Ellipsis.IsValid() {
			return // append(dst, tainted...) copies the elements out
		}
		for _, a := range call.Args[1:] {
			if src := c.taintSource(a); src != "" {
				c.reportf(a.Pos(), "appending %s as an element retains memory reused by %s; copy first", types.ExprString(a), src)
			}
		}
	case "copy":
		if len(call.Args) == 2 {
			if src := c.taintSource(call.Args[0]); src != "" {
				c.reportf(call.Pos(), "copying into %s overwrites memory owned by %s", types.ExprString(call.Args[0]), src)
			}
		}
	}
}

var errType = types.Universe.Lookup("error").Type()

// taintable reports whether values of the type can carry a borrow:
// pointers, slices, maps, channels, funcs, interfaces, strings are value
// types (copies), and structs/arrays are taintable if any field is.
func taintable(t types.Type) bool {
	return taintableDepth(t, 0)
}

func taintableDepth(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return false
	}
	switch t := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if taintableDepth(t.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return taintableDepth(t.Elem(), depth+1)
	}
	return false
}

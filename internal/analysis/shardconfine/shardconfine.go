// Package shardconfine defines a smoothvet analyzer enforcing goroutine
// confinement of shard state. A type marked //smoothvet:confined (the
// serve and loadgen shard structs) is owned by exactly one goroutine: all
// of its non-//smoothvet:shared fields may only be stored to by code
// holding an *owned* reference — the method receiver, a parameter (the
// call was vetted at the caller), or a locally constructed value. The
// analyzer flags:
//
//   - stores to a non-shared field through a foreign reference (one
//     obtained from another struct's field, a slice/map of shards, or a
//     package variable) — the cross-shard store;
//   - pointer-receiver method calls on a foreign confined value, or on a
//     non-shared field of one (sh.Met.Inc(…) from a dialer or scraper):
//     the method may write as surely as a store;
//   - launching a goroutine that captures or receives a confined value
//     (go sh.run(), go func() { … sh … }()) without a
//     //smoothvet:transfer marker on the go statement;
//   - sending a confined value over a channel without a
//     //smoothvet:transfer marker on the send.
//
// //smoothvet:transfer documents an audited ownership hand-off: after the
// marked statement the new goroutine owns the value and the sender must
// not store through it again (the analyzer downgrades the local to
// foreign past the hand-off, so later stores are flagged). On an
// assignment or range statement it marks the hand-off in the other
// direction: the locals it binds are owned from there on, because the
// goroutine that ran the value has exited or was never started (a test
// inspecting a quiescent engine's shard).
//
// Ownership is tracked flow-sensitively per function over the framework
// CFG with a two-point lattice (owned < foreign, join = foreign), so a
// reference that is foreign on any path into a statement is treated as
// foreign there. A confined value a confined value holds by value (an
// embedded reactor loop), or through a reference field itself marked
// //smoothvet:confined (a shard's own metric slots), has the same owner;
// any other reference field may point at a sibling and is foreign. Field reads of
// foreign shard state are deliberately not flagged — cross-shard reads
// are guarded by //smoothvet:shared fields (mutexes, atomics) in
// practice, and flagging reads would drown the real signal; the write
// side is where corruption starts. Function
// literal bodies are analyzed as separate functions whose captured
// variables are presumed owned: a closure runs on the owning goroutine
// unless launched with go, which is checked at the go statement.
package shardconfine

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the shardconfine analyzer.
var Analyzer = &framework.Analyzer{
	Name: "shardconfine",
	Doc: "report cross-goroutine access to //smoothvet:confined shard state: " +
		"foreign-reference stores and pointer-receiver calls, unmarked goroutine captures and channel sends",
	Run: run,
}

const (
	owned   = "owned"
	foreign = "foreign"
)

func run(pass *framework.Pass) error {
	markers := pass.ParseMarkers()
	c := &checker{pass: pass, markers: markers}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

type checker struct {
	pass    *framework.Pass
	markers *framework.Markers
}

// confined reports whether t is (a pointer to) a //smoothvet:confined type.
func (c *checker) confined(t types.Type) bool {
	if t == nil {
		return false
	}
	return c.markers.TypeHasMarker(t, framework.MarkerConfined)
}

// tracked reports whether a local of type t carries an ownership fact: a
// confined value, or a slice, array or map of them, whose elements have
// the owner the container has.
func (c *checker) tracked(t types.Type) bool {
	if t == nil {
		return false
	}
	if c.confined(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return c.tracked(u.Elem())
	case *types.Array:
		return c.tracked(u.Elem())
	case *types.Map:
		return c.tracked(u.Elem())
	}
	return false
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	init := framework.Facts{}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil && c.confined(obj.Type()) {
					init[obj] = owned
				}
			}
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil && c.confined(obj.Type()) {
					init[obj] = owned
				}
			}
		}
	}
	c.checkBody(fd.Body, init)

	// Function literals are analyzed as their own flow problems: captured
	// confined variables are presumed owned (see the package comment).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.checkBody(lit.Body, framework.Facts{})
		}
		return true
	})
}

func (c *checker) checkBody(body *ast.BlockStmt, init framework.Facts) {
	cfg := framework.NewCFG(body)
	framework.RunFlow(cfg, init, c.transfer, func(a, b string) string {
		if a == foreign || b == foreign {
			return foreign
		}
		return owned
	})
}

// transfer is the dataflow transfer function: fact updates always, checks
// only when report is true.
func (c *checker) transfer(n ast.Node, facts framework.Facts, report bool) {
	if report {
		c.checkCalls(n, facts)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if report {
			for _, lhs := range n.Lhs {
				c.checkStore(lhs, facts)
			}
		}
		c.applyAssign(n, facts)
		if c.markers.TransferAt(n.Pos()) {
			c.adopt(n.Lhs, facts)
		}

	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := c.pass.TypesInfo.Defs[name]
				if obj == nil || !c.tracked(obj.Type()) {
					continue
				}
				cls := owned // zero value (nil pointer) is nobody's shard
				if i < len(vs.Values) {
					cls = c.classify(vs.Values[i], facts)
				} else if len(vs.Values) == 1 {
					cls = c.classify(vs.Values[0], facts)
				}
				facts[obj] = cls
			}
		}

	case *framework.RangeHead:
		cls := c.classify(n.Range.X, facts)
		if t := c.typeOf(n.Range.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				cls = owned // values received over a channel are transferred in
			}
		}
		if c.markers.TransferAt(n.Range.Pos()) {
			cls = owned
		}
		for _, e := range []ast.Expr{n.Range.Key, n.Range.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := c.identObj(id); obj != nil && c.tracked(obj.Type()) {
				facts[obj] = cls
			}
		}

	case *ast.IncDecStmt:
		if report {
			c.checkStore(n.X, facts)
		}

	case *ast.SendStmt:
		if report && c.confined(c.typeOf(n.Value)) && !c.markers.TransferAt(n.Pos()) {
			c.pass.Reportf(n.Pos(),
				"send of confined %s over a channel without //smoothvet:transfer",
				types.TypeString(c.typeOf(n.Value), types.RelativeTo(c.pass.Pkg)))
		}
		c.demote(n.Value, facts)

	case *ast.GoStmt:
		if report && !c.markers.TransferAt(n.Pos()) {
			c.checkGo(n, facts)
		}
		for _, e := range goConfinedExprs(n) {
			c.demote(e, facts)
		}
	}
}

// applyAssign updates ownership facts for confined identifiers on the LHS.
func (c *checker) applyAssign(n *ast.AssignStmt, facts framework.Facts) {
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.identObj(id)
		if obj == nil || !c.tracked(obj.Type()) {
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0] // tuple: call / map index / type assert
		}
		if rhs == nil {
			continue
		}
		facts[obj] = c.classify(rhs, facts)
	}
}

// checkStore flags a store whose target chain passes through a non-shared
// field of a confined type reached from a foreign reference.
func (c *checker) checkStore(lhs ast.Expr, facts framework.Facts) {
	if field, owner := c.foreignField(lhs, facts); field != nil {
		c.pass.Reportf(lhs.Pos(),
			"store to field %s of confined %s through a foreign reference; confined state may only be written by its owning goroutine",
			field.Name(), c.typeName(owner))
	}
}

// foreignField walks a target chain to the first field of a confined type
// and returns it with its owner expression when that field is not shared
// and the owner is foreign.
func (c *checker) foreignField(target ast.Expr, facts framework.Facts) (*types.Var, ast.Expr) {
	e := target
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			if c.confined(c.typeOf(t.X)) {
				sel, ok := c.pass.TypesInfo.Selections[t]
				if !ok || sel.Kind() != types.FieldVal {
					return nil, nil
				}
				field, _ := sel.Obj().(*types.Var)
				if c.markers.FieldHasMarker(field, framework.MarkerShared) || c.classify(t.X, facts) != foreign {
					return nil, nil // shared field, or the owner's own state
				}
				return field, t.X
			}
			e = t.X
		default:
			return nil, nil
		}
	}
}

// checkCalls flags pointer-receiver method calls in n whose receiver is
// confined state reached through a foreign reference: the method may write
// it as surely as a store. A go statement's call runs on the new goroutine
// and is checked by checkGo; function literal bodies are analyzed apart.
func (c *checker) checkCalls(n ast.Node, facts framework.Facts) {
	switch h := n.(type) {
	case *ast.GoStmt:
		return
	case *framework.RangeHead:
		n = h.Range.X // ast.Inspect cannot walk the synthetic head
	}
	ast.Inspect(n, func(inner ast.Node) bool {
		if _, ok := inner.(*ast.FuncLit); ok {
			return false
		}
		call, ok := inner.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		m, ok := c.pass.TypesInfo.Selections[sel]
		if !ok || m.Kind() != types.MethodVal {
			return true
		}
		if _, ptr := m.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptr {
			return true
		}
		if c.confined(c.typeOf(sel.X)) {
			if c.classify(sel.X, facts) == foreign {
				c.pass.Reportf(call.Pos(),
					"call to pointer-receiver method %s on confined %s through a foreign reference; confined state may only be written by its owning goroutine",
					sel.Sel.Name, c.typeName(sel.X))
			}
		} else if field, owner := c.foreignField(sel.X, facts); field != nil {
			c.pass.Reportf(call.Pos(),
				"call to pointer-receiver method %s on field %s of confined %s through a foreign reference; confined state may only be written by its owning goroutine",
				sel.Sel.Name, field.Name(), c.typeName(owner))
		}
		return true
	})
}

func (c *checker) typeName(e ast.Expr) string {
	return types.TypeString(c.typeOf(e), types.RelativeTo(c.pass.Pkg))
}

// checkGo flags goroutine launches that smuggle a confined value: a method
// call on one, one passed as an argument, or a closure capturing one.
func (c *checker) checkGo(n *ast.GoStmt, facts framework.Facts) {
	call := n.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		seen := make(map[types.Object]bool)
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			id, ok := inner.(*ast.Ident)
			if !ok {
				return true
			}
			obj := c.identObj(id)
			if obj == nil || seen[obj] || !c.confined(obj.Type()) {
				return true
			}
			// Only captures: identifiers declared outside the literal.
			if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
				return true
			}
			seen[obj] = true
			c.pass.Reportf(n.Pos(),
				"goroutine closure captures confined value %s without //smoothvet:transfer", obj.Name())
			return true
		})
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.confined(c.typeOf(sel.X)) {
		c.pass.Reportf(n.Pos(),
			"go %s.%s hands the confined receiver to a new goroutine without //smoothvet:transfer",
			exprName(sel.X), sel.Sel.Name)
	}
	for _, arg := range call.Args {
		if c.confined(c.typeOf(arg)) {
			c.pass.Reportf(n.Pos(),
				"goroutine receives confined value %s without //smoothvet:transfer", exprName(arg))
		}
	}
}

// goConfinedExprs lists the confined-typed expressions a go statement hands
// off (receiver and arguments), for post-hand-off demotion.
func goConfinedExprs(n *ast.GoStmt) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
		out = append(out, sel.X)
	}
	out = append(out, n.Call.Args...)
	return out
}

// adopt marks the confined locals a //smoothvet:transfer assignment binds
// as owned: the goroutine that ran them has handed them over (it has
// exited, or was never started).
func (c *checker) adopt(lhs []ast.Expr, facts framework.Facts) {
	for _, e := range lhs {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			continue
		}
		if obj := c.identObj(id); obj != nil && c.tracked(obj.Type()) {
			facts[obj] = owned
		}
	}
}

// demote marks a handed-off local as foreign: the new owner runs it now.
func (c *checker) demote(e ast.Expr, facts framework.Facts) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	if obj := c.identObj(id); obj != nil && c.confined(obj.Type()) {
		facts[obj] = foreign
	}
}

// classify resolves the ownership of an expression under the current facts.
func (c *checker) classify(e ast.Expr, facts framework.Facts) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.identObj(e)
		if obj == nil {
			return owned
		}
		if cls, ok := facts[obj]; ok {
			return cls
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return foreign // package-level shard variable: shared by definition
		}
		return owned
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return owned // received over a channel: transferred in
		}
		return c.classify(e.X, facts) // &composite → fresh
	case *ast.CompositeLit:
		return owned
	case *ast.CallExpr:
		// append's result holds the shards of every operand.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, ok := c.identObj(id).(*types.Builtin); ok {
				for _, arg := range e.Args {
					if c.classify(arg, facts) == foreign {
						return foreign
					}
				}
				return owned
			}
		}
		// Convention: a function returning a confined value, or a
		// container of them, is a constructor handing ownership to the
		// caller (make builds an empty one). Accessors returning someone
		// else's shard must not exist (they would be flagged in their own
		// body when the store happens).
		return owned
	case *ast.SelectorExpr:
		if c.confined(c.typeOf(e.X)) && c.heldWith(e) {
			return c.classify(e.X, facts) // held by a confined value: same owner
		}
		return foreign // read out of another structure
	case *ast.IndexExpr:
		return c.classify(e.X, facts) // element of a local slice stays owned
	case *ast.SliceExpr:
		return c.classify(e.X, facts) // a reslice shares its elements
	case *ast.StarExpr:
		return c.classify(e.X, facts)
	case *ast.TypeAssertExpr:
		return c.classify(e.X, facts)
	default:
		return owned
	}
}

// heldWith reports whether the field sel selects belongs to its holder's
// owner: a field held by value, or a reference marked
// //smoothvet:confined (a shard's own metric slots). Any other reference
// may point at a sibling, a shard of another goroutine.
func (c *checker) heldWith(sel *ast.SelectorExpr) bool {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	field, _ := s.Obj().(*types.Var)
	switch field.Type().Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return c.markers.FieldHasMarker(field, framework.MarkerConfined)
	}
	return true
}

func (c *checker) identObj(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Defs[id]
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	return c.pass.TypesInfo.TypeOf(e)
}

func exprName(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "value"
}

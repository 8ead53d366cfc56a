// Package pubimmut defines a smoothvet analyzer enforcing
// freeze-at-publication for shared plans. A type or struct field marked
// //smoothvet:frozen (the cohort plans, the engine's pre-built offer
// slices) may be filled in freely while the value is *fresh* — locally
// constructed and not yet visible to another goroutine — and must never be
// written again once *published* (read back out of a struct, map, channel
// or call result, or handed off by storing a fresh local into one). The
// analyzer flags, flow-sensitively per function over the framework CFG:
//
//   - stores to a frozen field (or any field of a frozen type) through a
//     published reference — including element stores like c.wire[i] = b;
//   - append to a frozen slice reached from a published reference (append
//     may write into the published backing array);
//   - stores or appends through a local alias of published frozen state
//     (w := c.wire; w[0] = …).
//
// Publication is modeled as the lattice transition fresh → published: a
// fresh local stored into any field, slice, map or channel is published
// from that statement on, so the build-then-publish idiom (construct,
// fill, store under sync.Once) passes while a write after the publishing
// store on any path is flagged. Call results are published by convention:
// a function returning a frozen value returns the shared copy. Function
// literal bodies are analyzed as separate functions; their captured
// locals are presumed published.
package pubimmut

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the pubimmut analyzer.
var Analyzer = &framework.Analyzer{
	Name: "pubimmut",
	Doc: "report writes to //smoothvet:frozen values after publication: frozen " +
		"state may be filled only while fresh and local, never once shared",
	Run: run,
}

// The lattice: fresh < alias < published, join = max.
const (
	fresh     = "fresh"
	alias     = "alias"
	published = "published"
)

func rank(v string) int {
	switch v {
	case fresh:
		return 0
	case alias:
		return 1
	default:
		return 2
	}
}

func run(pass *framework.Pass) error {
	markers := pass.ParseMarkers()
	c := &checker{pass: pass, markers: markers}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkBody(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.checkBody(lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass    *framework.Pass
	markers *framework.Markers
}

func (c *checker) checkBody(body *ast.BlockStmt) {
	cfg := framework.NewCFG(body)
	framework.RunFlow(cfg, framework.Facts{}, c.transfer, func(a, b string) string {
		if rank(a) >= rank(b) {
			return a
		}
		return b
	})
}

// frozenType reports whether t is (a pointer to) a //smoothvet:frozen type.
func (c *checker) frozenType(t types.Type) bool {
	if t == nil {
		return false
	}
	return c.markers.TypeHasMarker(t, framework.MarkerFrozen)
}

func (c *checker) transfer(n ast.Node, facts framework.Facts, report bool) {
	if report {
		// RangeHead is a synthetic node ast.Inspect cannot walk; a range
		// expression cannot contain an append destination anyway.
		if _, synthetic := n.(*framework.RangeHead); !synthetic {
			c.checkAppends(n, facts)
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if report {
			for _, lhs := range n.Lhs {
				c.checkStore(lhs, facts)
			}
		}
		c.applyAssign(n, facts)

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
				if obj == nil {
					continue
				}
				if i < len(vs.Values) {
					facts[obj] = c.classify(vs.Values[i], facts)
				} else if len(vs.Values) == 0 {
					facts[obj] = fresh // zero value
				}
			}
		}

	case *ast.IncDecStmt:
		if report {
			c.checkStore(n.X, facts)
		}

	case *ast.SendStmt:
		c.publish(n.Value, facts)

	case *framework.RangeHead:
		cls := c.classify(n.Range.X, facts)
		for _, e := range []ast.Expr{n.Range.Key, n.Range.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := c.identObj(id); obj != nil {
				facts[obj] = cls
			}
		}
	}
}

// applyAssign updates facts for assigned identifiers and publishes fresh
// values that escape through a stored reference.
func (c *checker) applyAssign(n *ast.AssignStmt, facts framework.Facts) {
	// A fresh local stored anywhere but a plain local rebinding escapes.
	escape := false
	for _, lhs := range n.Lhs {
		if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
			escape = true
		}
	}
	if escape {
		for _, rhs := range n.Rhs {
			c.publish(rhs, facts)
		}
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.identObj(id)
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		facts[obj] = c.classify(rhs, facts)
	}
}

// publish demotes a fresh identifier to published.
func (c *checker) publish(e ast.Expr, facts framework.Facts) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := c.identObj(id); obj != nil {
			if cur, ok := facts[obj]; !ok || cur == fresh {
				facts[obj] = published
			}
		}
	}
}

// checkStore flags writes whose target chain reaches frozen state from a
// published or aliased reference. A bare identifier target is a rebinding,
// not a write: an alias is reported only as the root of an index, deref or
// field chain.
func (c *checker) checkStore(lhs ast.Expr, facts framework.Facts) {
	e := lhs
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			sel, ok := c.pass.TypesInfo.Selections[t]
			if ok && sel.Kind() == types.FieldVal {
				field, _ := sel.Obj().(*types.Var)
				frozenOwner := c.frozenType(c.typeOf(t.X))
				frozenField := c.markers.FieldHasMarker(field, framework.MarkerFrozen)
				if frozenOwner || frozenField {
					if cls := c.classify(t.X, facts); cls != fresh {
						what := "field " + field.Name() + " of frozen " +
							types.TypeString(c.typeOf(t.X), types.RelativeTo(c.pass.Pkg))
						if frozenField && !frozenOwner {
							what = "frozen field " + field.Name()
						}
						c.pass.Reportf(lhs.Pos(),
							"write to %s after publication; frozen state may only be filled while fresh and local", what)
					}
					return
				}
			}
			e = t.X
		case *ast.Ident:
			if t == ast.Unparen(lhs) {
				return
			}
			if obj := c.identObj(t); obj != nil && facts[obj] == alias {
				c.pass.Reportf(lhs.Pos(),
					"write through %s, an alias of published frozen state", t.Name)
			}
			return
		default:
			return
		}
	}
}

// checkAppends flags append calls whose destination is published frozen
// state, anywhere inside the node (function literal bodies excluded — they
// are analyzed separately).
func (c *checker) checkAppends(n ast.Node, facts framework.Facts) {
	ast.Inspect(n, func(inner ast.Node) bool {
		if _, ok := inner.(*ast.FuncLit); ok {
			return false
		}
		call, ok := inner.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		c.checkAppendDest(call, call.Args[0], facts)
		return true
	})
}

func (c *checker) checkAppendDest(call *ast.CallExpr, dst ast.Expr, facts framework.Facts) {
	e := dst
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			sel, ok := c.pass.TypesInfo.Selections[t]
			if ok && sel.Kind() == types.FieldVal {
				field, _ := sel.Obj().(*types.Var)
				if c.frozenType(c.typeOf(t.X)) || c.markers.FieldHasMarker(field, framework.MarkerFrozen) {
					if cls := c.classify(t.X, facts); cls != fresh {
						c.pass.Reportf(call.Pos(),
							"append to frozen slice %s after publication; append may write into the shared backing array",
							field.Name())
					}
					return
				}
			}
			e = t.X
		case *ast.Ident:
			if obj := c.identObj(t); obj != nil && facts[obj] == alias {
				c.pass.Reportf(call.Pos(),
					"append through %s, an alias of published frozen state", t.Name)
			}
			return
		default:
			return
		}
	}
}

// classify resolves the publication state of an expression.
func (c *checker) classify(e ast.Expr, facts framework.Facts) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.identObj(e)
		if obj == nil {
			return published
		}
		if cls, ok := facts[obj]; ok {
			return cls
		}
		return published
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.classify(e.X, facts)
		}
		return published // <-ch and others: shared origin
	case *ast.CompositeLit:
		return fresh
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "new", "make":
					return fresh
				case "append":
					// append result keeps the state of its destination.
					if len(e.Args) > 0 {
						return c.classify(e.Args[0], facts)
					}
				}
			}
		}
		return published
	case *ast.SelectorExpr:
		// Reading frozen state out of a published holder yields an alias;
		// everything else read out of a structure is published.
		sel, ok := c.pass.TypesInfo.Selections[e]
		if ok && sel.Kind() == types.FieldVal {
			field, _ := sel.Obj().(*types.Var)
			if c.frozenType(c.typeOf(e.X)) || c.markers.FieldHasMarker(field, framework.MarkerFrozen) {
				if c.classify(e.X, facts) == fresh {
					return fresh
				}
				return alias
			}
		}
		return published
	case *ast.IndexExpr:
		return c.classify(e.X, facts)
	case *ast.StarExpr:
		return c.classify(e.X, facts)
	default:
		return published
	}
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

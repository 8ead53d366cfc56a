package framework

import (
	"go/ast"
	"go/types"
)

// CallGraph is the package's static call graph: every same-package
// function declaration, the statically resolvable calls inside each
// (including calls inside nested function literals — a closure built on a
// path runs that path's contract), and the object→declaration index
// needed to walk it. Dynamic calls through function values and interface
// methods have no edges; analyzers that traverse the graph document that
// under-approximation.
type CallGraph struct {
	byObj map[*types.Func]*ast.FuncDecl
	edges map[*ast.FuncDecl][]*types.Func
	decls []*ast.FuncDecl
}

// BuildCallGraph constructs (and caches) the pass's call graph.
func (p *Pass) BuildCallGraph() *CallGraph {
	if p.callgraph != nil {
		return p.callgraph
	}
	g := &CallGraph{
		byObj: make(map[*types.Func]*ast.FuncDecl),
		edges: make(map[*ast.FuncDecl][]*types.Func),
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g.decls = append(g.decls, fd)
			if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.byObj[obj] = fd
			}
		}
	}
	for _, fd := range g.decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := StaticCallee(p.TypesInfo, call); fn != nil {
				g.edges[fd] = append(g.edges[fd], fn)
			}
			return true
		})
	}
	p.callgraph = g
	return g
}

// StaticCallee resolves the *types.Func a call statically invokes: a named
// function or a method called through a concrete receiver. Calls through
// function-typed values, builtins and interface methods resolve to nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Reach records how a function became reachable from a marked root.
type Reach struct {
	// Root is the marked declaration the walk started from.
	Root *ast.FuncDecl
	// Marker is the root's marker name (for diagnostics).
	Marker string
}

// ReachableFrom walks the same-package call graph breadth-first from the
// given roots (each mapped to its marker name for diagnostics) and returns
// every declaration reachable through static calls, roots included.
func (g *CallGraph) ReachableFrom(roots map[*ast.FuncDecl]string) map[*ast.FuncDecl]Reach {
	reach := make(map[*ast.FuncDecl]Reach, len(roots))
	var queue []*ast.FuncDecl
	// Deterministic BFS order: roots in declaration order.
	for _, fd := range g.decls {
		if marker, ok := roots[fd]; ok {
			reach[fd] = Reach{Root: fd, Marker: marker}
			queue = append(queue, fd)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		from := reach[fd]
		for _, fn := range g.edges[fd] {
			callee := g.byObj[fn]
			if callee == nil {
				continue // cross-package or no body
			}
			if _, seen := reach[callee]; seen {
				continue
			}
			reach[callee] = Reach{Root: from.Root, Marker: from.Marker}
			queue = append(queue, callee)
		}
	}
	return reach
}

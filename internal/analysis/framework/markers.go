package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strconv"
	"strings"
	"sync"
)

// smoothvet annotations are machine-readable contract markers written in
// doc comments:
//
//	//smoothvet:aliased        — the function's results alias receiver-owned
//	                             memory that later calls overwrite; callers
//	                             must copy before retaining (aliasretain).
//	//smoothvet:noalloc        — the function is a steady-state-zero-alloc
//	                             hot path (hotpath) that never reads the
//	                             wall clock (determinism).
//	//smoothvet:deterministic  — the function's observable output must not
//	                             depend on wall clock, global randomness or
//	                             goroutine scheduling (determinism).
//	//smoothvet:ordered        — written on (or directly above) a map range
//	                             statement: the author asserts iteration
//	                             order cannot leak into output (determinism
//	                             suppression, meant to be rare and audited).
//	//smoothvet:confined       — on a type declaration: instances are owned
//	                             by a single goroutine; stores reaching one
//	                             instance from another's methods, goroutine
//	                             captures and unmarked channel sends are
//	                             errors (shardconfine). On a reference
//	                             field of a confined type: what it points
//	                             at has the holder's owner.
//	//smoothvet:shared         — on a field of a confined type: the field is
//	                             safe for cross-goroutine access (mutex,
//	                             channel, atomic) and exempt from
//	                             confinement checks (shardconfine).
//	//smoothvet:frozen         — on a type declaration or struct field:
//	                             immutable once published; writes through
//	                             values of the type / reads of the field
//	                             after publication are errors (pubimmut).
//	//smoothvet:transfer       — written on (or directly above) a send or
//	                             goroutine statement: ownership of the
//	                             confined value moves with the operation;
//	                             on an assignment or range statement: the
//	                             locals it binds are owned here, their
//	                             goroutine having exited. Audited by hand
//	                             (shardconfine suppression).
const (
	MarkerAliased       = "aliased"
	MarkerNoAlloc       = "noalloc"
	MarkerDeterministic = "deterministic"
	MarkerOrdered       = "ordered"
	MarkerConfined      = "confined"
	MarkerShared        = "shared"
	MarkerFrozen        = "frozen"
	MarkerTransfer      = "transfer"
)

const markerPrefix = "//smoothvet:"

// Markers indexes the smoothvet annotations of one package.
type Markers struct {
	fset  *token.FileSet
	funcs map[*ast.FuncDecl][]string
	// byObj maps the *types.Func of a same-package declaration to its decl.
	byObj map[*types.Func]*ast.FuncDecl
	// types maps same-package type names to their declaration markers.
	types map[*types.TypeName][]string
	// fields maps same-package struct fields to their markers (from the
	// field's doc comment or trailing line comment).
	fields map[*types.Var][]string
	// orderedLines records "file:line" positions carrying the ordered
	// marker (the marker's own line and the one directly below it, so both
	// "above the statement" and "trailing on the statement" placements hit
	// the range statement's line).
	orderedLines map[string]bool
	// transferLines is the same scheme for the transfer marker.
	transferLines map[string]bool
}

// ParseMarkers scans the pass's files once and caches the result.
func (p *Pass) ParseMarkers() *Markers {
	if p.markers != nil {
		return p.markers
	}
	m := &Markers{
		fset:          p.Fset,
		funcs:         make(map[*ast.FuncDecl][]string),
		byObj:         make(map[*types.Func]*ast.FuncDecl),
		types:         make(map[*types.TypeName][]string),
		fields:        make(map[*types.Var][]string),
		orderedLines:  make(map[string]bool),
		transferLines: make(map[string]bool),
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, markerPrefix) {
					continue
				}
				var lines map[string]bool
				switch markerName(c.Text) {
				case MarkerOrdered:
					lines = m.orderedLines
				case MarkerTransfer:
					lines = m.transferLines
				default:
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines[lineKey(pos.Filename, pos.Line)] = true
				lines[lineKey(pos.Filename, pos.Line+1)] = true
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names := commentMarkers(d.Doc)
				if len(names) == 0 {
					continue
				}
				m.funcs[d] = names
				if obj, ok := p.TypesInfo.Defs[d.Name].(*types.Func); ok {
					m.byObj[obj] = d
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					names := commentMarkers(ts.Doc)
					// A single-spec `type name ...` declaration carries its
					// doc on the GenDecl, not the TypeSpec.
					if len(d.Specs) == 1 {
						names = append(names, commentMarkers(d.Doc)...)
					}
					if len(names) > 0 {
						if obj, ok := p.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
							m.types[obj] = names
						}
					}
					m.parseFieldMarkers(p, ts.Type)
				}
			}
		}
	}
	p.markers = m
	return m
}

// parseFieldMarkers indexes struct fields (at any nesting depth under a
// type spec) whose doc or trailing comment carries a smoothvet marker.
func (m *Markers) parseFieldMarkers(p *Pass, typ ast.Expr) {
	ast.Inspect(typ, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			names := append(commentMarkers(field.Doc), commentMarkers(field.Comment)...)
			if len(names) == 0 {
				continue
			}
			for _, id := range field.Names {
				if obj, ok := p.TypesInfo.Defs[id].(*types.Var); ok {
					m.fields[obj] = names
				}
			}
		}
		return true
	})
}

// commentMarkers extracts the smoothvet marker names in a comment group.
func commentMarkers(cg *ast.CommentGroup) []string {
	if cg == nil {
		return nil
	}
	var names []string
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, markerPrefix) {
			names = append(names, markerName(c.Text))
		}
	}
	return names
}

func markerName(text string) string {
	name := strings.TrimPrefix(text, markerPrefix)
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	return name
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// FuncDecls returns the declared functions carrying the given marker.
func (m *Markers) FuncDecls(marker string) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for fd, names := range m.funcs {
		for _, n := range names {
			if n == marker {
				out = append(out, fd)
				break
			}
		}
	}
	return out
}

// OrderedAt reports whether the position is covered by a //smoothvet:ordered
// suppression comment.
func (m *Markers) OrderedAt(pos token.Pos) bool {
	p := m.fset.Position(pos)
	return m.orderedLines[lineKey(p.Filename, p.Line)]
}

// TransferAt reports whether the position is covered by a
// //smoothvet:transfer ownership-move comment.
func (m *Markers) TransferAt(pos token.Pos) bool {
	p := m.fset.Position(pos)
	return m.transferLines[lineKey(p.Filename, p.Line)]
}

// TypeHasMarker reports whether the type's declaration carries the marker.
// Named and pointer-to-named types resolve through their *types.TypeName;
// same-package declarations are answered from the parsed AST, cross-package
// ones by reading the declaring source file (export data strips comments).
func (m *Markers) TypeHasMarker(t types.Type, marker string) bool {
	obj := namedTypeName(t)
	if obj == nil {
		return false
	}
	if names, ok := m.types[obj]; ok {
		return containsMarker(names, marker)
	}
	if obj.Pkg() == nil {
		return false
	}
	pos := m.fset.Position(obj.Pos())
	if !pos.IsValid() || pos.Filename == "" {
		return false
	}
	return fileHasMarkerAbove(pos.Filename, pos.Line, marker)
}

// FieldHasMarker reports whether the struct field's declaration carries the
// marker (in its doc comment or trailing line comment). Cross-package
// fields are answered from the declaring source file, checking both the
// comment block above the field and the field's own line.
func (m *Markers) FieldHasMarker(obj *types.Var, marker string) bool {
	if obj == nil {
		return false
	}
	if names, ok := m.fields[obj]; ok {
		return containsMarker(names, marker)
	}
	if obj.Pkg() == nil {
		return false
	}
	pos := m.fset.Position(obj.Pos())
	if !pos.IsValid() || pos.Filename == "" {
		return false
	}
	return fileHasMarkerAbove(pos.Filename, pos.Line, marker) ||
		fileHasMarkerOn(pos.Filename, pos.Line, marker)
}

// namedTypeName unwraps pointers and aliases to the defining *types.TypeName.
func namedTypeName(t types.Type) *types.TypeName {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt.Obj()
		default:
			return nil
		}
	}
}

func containsMarker(names []string, marker string) bool {
	for _, n := range names {
		if n == marker {
			return true
		}
	}
	return false
}

// FuncHasMarker reports whether the function object's declaration carries
// the marker. Same-package declarations are answered from the parsed AST;
// declarations in other packages (reached through export data, which
// strips comments) are answered by reading the declaring source file at
// obj.Pos and scanning the comment block directly above the declaration.
func (m *Markers) FuncHasMarker(obj *types.Func, marker string) bool {
	if obj == nil {
		return false
	}
	if fd, ok := m.byObj[obj]; ok {
		for _, n := range m.funcs[fd] {
			if n == marker {
				return true
			}
		}
		return false
	}
	pos := m.fset.Position(obj.Pos())
	if !pos.IsValid() || pos.Filename == "" {
		return false
	}
	return fileHasMarkerAbove(pos.Filename, pos.Line, marker)
}

// declMarkerCache caches the split lines of source files consulted for
// cross-package marker lookups, shared across passes within a process.
var declMarkerCache sync.Map // filename -> []string (nil if unreadable)

// declFileLines returns the cached lines of a source file (nil when the
// file cannot be read: annotations outside the module resolve to no marker).
func declFileLines(filename string) []string {
	if v, ok := declMarkerCache.Load(filename); ok {
		return v.([]string)
	}
	data, err := os.ReadFile(filename)
	if err != nil {
		declMarkerCache.Store(filename, []string(nil))
		return nil
	}
	lines := strings.Split(string(data), "\n")
	declMarkerCache.Store(filename, lines)
	return lines
}

// fileHasMarkerAbove reports whether the comment block directly above
// declLine in the file contains //smoothvet:<marker>. It tolerates files
// that cannot be read (the answer is then false): annotations outside the
// module — where no smoothvet contract can exist — resolve to no marker.
func fileHasMarkerAbove(filename string, declLine int, marker string) bool {
	lines := declFileLines(filename)
	want := markerPrefix + marker
	// Scan the contiguous comment block above the declaration line
	// (declLine is 1-based; lines is 0-based).
	for i := declLine - 2; i >= 0 && i < len(lines); i-- {
		t := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(t, "//") {
			break
		}
		if t == want || strings.HasPrefix(t, want+" ") {
			return true
		}
	}
	return false
}

// fileHasMarkerOn reports whether the declaration line itself carries a
// trailing //smoothvet:<marker> comment (the struct-field placement).
func fileHasMarkerOn(filename string, declLine int, marker string) bool {
	lines := declFileLines(filename)
	if declLine-1 < 0 || declLine-1 >= len(lines) {
		return false
	}
	line := lines[declLine-1]
	i := strings.Index(line, markerPrefix)
	if i < 0 {
		return false
	}
	return markerName(line[i:]) == marker
}

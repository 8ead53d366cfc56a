package framework

import (
	"go/ast"
	"go/types"
)

// Facts is the dataflow state of one program point: a small lattice value
// per tracked object (a local or a field). The absent key is bottom.
type Facts map[types.Object]string

// Clone copies the fact map (the engine never shares maps across blocks).
func (f Facts) Clone() Facts {
	out := make(Facts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func factsEqual(a, b Facts) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TransferFunc applies one node's effect to the facts. It is called many
// times during fixpoint iteration with report=false, then exactly once per
// node with report=true under the converged entry state of the node's
// block — diagnostics must only be emitted when report is true, and fact
// updates must happen in both modes.
type TransferFunc func(n ast.Node, facts Facts, report bool)

// JoinFunc merges two non-equal lattice values for the same key at a
// control-flow join. It must be commutative, associative and idempotent,
// and the value domain must be finite, or the fixpoint may not terminate.
type JoinFunc func(a, b string) string

// RunFlow runs a forward may-style dataflow over the CFG: facts are joined
// key-wise at block entries (a key present on any incoming edge is present
// after the join; conflicting values merge through join), transfer is
// iterated to a fixpoint, and a final reporting pass replays every reached
// block once under its converged entry state. Blocks never reached from
// the entry (dead code, post-panic) are not analyzed.
func RunFlow(cfg *CFG, init Facts, transfer TransferFunc, join JoinFunc) {
	n := len(cfg.Blocks)
	in := make([]Facts, n)
	out := make([]Facts, n)
	if init == nil {
		init = Facts{}
	}
	in[cfg.Entry.Index] = init.Clone()

	// Chaotic iteration over a worklist seeded with the entry block.
	work := []*Block{cfg.Entry}
	queued := make([]bool, n)
	queued[cfg.Entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		facts := in[b.Index].Clone()
		for _, node := range b.Nodes {
			transfer(node, facts, false)
		}
		if out[b.Index] != nil && factsEqual(out[b.Index], facts) {
			continue
		}
		out[b.Index] = facts
		for _, s := range b.Succs {
			if mergeFacts(&in[s.Index], facts, join) && !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}

	// Reporting pass: one replay per reached block.
	for _, b := range cfg.Blocks {
		if in[b.Index] == nil {
			continue
		}
		facts := in[b.Index].Clone()
		for _, node := range b.Nodes {
			transfer(node, facts, true)
		}
	}
}

// mergeFacts joins src into *dst, reporting whether *dst changed.
func mergeFacts(dst *Facts, src Facts, join JoinFunc) bool {
	if *dst == nil {
		*dst = src.Clone()
		return true
	}
	changed := false
	for k, v := range src {
		old, ok := (*dst)[k]
		switch {
		case !ok:
			(*dst)[k] = v
			changed = true
		case old != v:
			merged := old
			if join != nil {
				merged = join(old, v)
			}
			if merged != old {
				(*dst)[k] = merged
				changed = true
			}
		}
	}
	return changed
}

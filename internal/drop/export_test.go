package drop

// depths returns how many runs each of p's value stacks holds, highest
// value first.
func (p *greedy) depths() []int {
	var d []int
	for _, s := range p.stacks {
		n := 0
		for at := s.top; at >= int32(p.head); at = p.pool[at].below {
			n++
		}
		d = append(d, n)
	}
	return d
}

// GreedyShape returns how many runs the value stacks of p, a policy from
// Greedy, hold, and how many of its added runs still have a droppable
// slice.
func GreedyShape(p Policy) (entries, live int) {
	g := p.(*greedy)
	for _, n := range g.depths() {
		entries += n
	}
	for _, r := range g.w.runs {
		if g.w.last(r.First, r.End(), true) >= r.First {
			live++
		}
	}
	return entries, live
}

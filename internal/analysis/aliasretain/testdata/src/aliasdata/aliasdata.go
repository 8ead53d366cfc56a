// Package aliasdata seeds aliasing-contract violations against an
// in-package //smoothvet:aliased API shaped like core.Server.Step.
package aliasdata

type result struct {
	sent    []int
	dropped []string
	n       int
}

type server struct {
	sent []int
	last []int
}

// Step returns buffers the server overwrites on the next call.
//
//smoothvet:aliased
func (s *server) Step() result {
	s.sent = s.sent[:0]
	return result{sent: s.sent}
}

type payload struct{ b []byte }

type msg struct{ data *payload }

// next returns a message whose payload is decoder-owned scratch.
//
//smoothvet:aliased
func next() msg { return msg{data: &payload{}} }

// decode returns decoder-owned scratch with an error, like
// netstream.Decoder.Next.
//
//smoothvet:aliased
func decode() (msg, error) { return msg{data: &payload{}}, nil }

var global []int

var lastMsg msg

func use(xs []int) int { return len(xs) }

// ok reads the borrow within the step and copies before keeping anything.
func ok(s *server) int {
	res := s.Step()
	total := 0
	for _, v := range res.sent { // ok: element copies
		total += v
	}
	cp := append([]int(nil), res.sent...) // ok: spread copies the elements
	total += use(res.sent)                // ok: borrow for the call's duration
	total += len(cp)
	return res.n // ok: scalar projection
}

func retain(s *server) []int {
	res := s.Step()
	s.last = res.sent // want `storing res\.sent in s\.last retains memory reused by`
	global = res.sent // want `storing res\.sent in package variable global retains`
	var batches [][]int
	batches = append(batches, res.sent) // want `appending res\.sent as an element retains`
	ch := make(chan []int, 1)
	ch <- res.sent // want `sending res\.sent on a channel retains`
	_ = batches
	return res.sent // want `returning res\.sent leaks memory reused by`
}

func mutate(s *server) {
	res := s.Step()
	res.sent[0] = 9 // want `writing into res\.sent mutates memory owned by`
	res2 := s.Step()
	copy(res2.sent, res.dropped2()) // want `copying into res2\.sent overwrites memory owned by`
	_ = append(res.sent, 5)         // want `appending to res\.sent may write into memory owned by`
	m := next()
	m.data.b = nil // want `writing m\.data\.b mutates memory owned by`
}

func (r result) dropped2() []int { return nil }

// indirect taints a plain local and catches the escape one hop later.
func indirect(s *server) {
	res := s.Step()
	x := res.sent // taints x
	global = x    // want `storing x in package variable global retains`
}

// retaint shows a clean overwrite clearing the borrow.
func retaint(s *server) {
	res := s.Step()
	x := res.sent
	x = make([]int, 4) // clean overwrite clears the taint
	global = x         // ok: x no longer borrows
}

// propagate re-exports the borrow under its own aliased contract.
//
//smoothvet:aliased
func propagate(s *server) []int {
	res := s.Step()
	return res.sent // ok: this function is annotated aliased itself
}

// loopCarried: the borrow taken on a previous iteration is still live when
// the next iteration re-uses it — the taint rides the loop back edge, which
// a source-order walk cannot see (res is tainted on a later line than the
// append that consumes it).
func loopCarried(s *server) [][]int {
	var res result
	var batches [][]int
	for i := 0; i < 3; i++ {
		batches = append(batches, res.sent) // want `appending res\.sent as an element retains memory reused by`
		res = s.Step()
	}
	return batches
}

// loopCleared re-borrows and copies inside every iteration: the clean
// overwrite kills the taint before the back edge, so nothing is live at
// the loop head.
func loopCleared(s *server) [][]int {
	var batches [][]int
	for i := 0; i < 3; i++ {
		res := s.Step()
		cp := append([]int(nil), res.sent...)
		batches = append(batches, cp) // ok: cp is a copy
	}
	return batches
}

// branchJoin taints on one arm only: the join keeps the borrow (may-alias),
// so the store after the if is flagged.
func branchJoin(s *server, cond bool) {
	var x []int
	if cond {
		x = s.Step().sent
	}
	global = x // want `storing x in package variable global retains`
}

// tupleRetain: an aliased API that also returns an error still lends its
// buffer result.
func tupleRetain() error {
	m, err := decode()
	if err != nil {
		return err
	}
	lastMsg = m // want `storing m in package variable lastMsg retains memory reused by`
	return nil
}

package reactor

// Slot is the Table's bookkeeping for one session; a session type embeds
// it, which is what makes a pointer to it a Session.
type Slot struct {
	pos int // 1 + index in Table.live; 0 = not in a table
}

func (sl *Slot) slot() *Slot { return sl }

// Session is a pointer to an engine's session struct, which embeds Slot.
type Session interface {
	comparable
	slot() *Slot
}

// Table is a shard's live sessions: indexed by fd for dispatch, and kept in
// a dense slice, swap-removed on retirement, for the idle sweep and
// shutdown.
type Table[S Session] struct {
	byFd []S
	live []S
	cur  int // where the next idle sweep resumes
}

// Len returns the number of sessions in the table.
func (t *Table[S]) Len() int { return len(t.live) }

// At returns the i'th session in the table's current order.
func (t *Table[S]) At(i int) S { return t.live[i] }

// Add enters s under each of its fds.
func (t *Table[S]) Add(s S, fds ...int) {
	t.live = append(t.live, s)
	s.slot().pos = len(t.live)
	for _, fd := range fds {
		if fd >= len(t.byFd) {
			grown := make([]S, max(fd+fd/2+1, 1024))
			copy(grown, t.byFd)
			t.byFd = grown
		}
		t.byFd[fd] = s
	}
}

// Lookup returns the session entered under fd.
//
//smoothvet:noalloc
func (t *Table[S]) Lookup(fd int) (s S, ok bool) {
	if fd < 0 || fd >= len(t.byFd) {
		return s, false
	}
	var none S
	s = t.byFd[fd]
	return s, s != none
}

// Remove takes s out from under fds and out of the table; it is a no-op for
// a session, or an fd, that was never entered.
func (t *Table[S]) Remove(s S, fds ...int) {
	var none S
	for _, fd := range fds {
		if fd >= 0 && fd < len(t.byFd) && t.byFd[fd] == s {
			t.byFd[fd] = none
		}
	}
	sl := s.slot()
	i, last := sl.pos-1, len(t.live)-1
	if i < 0 || i > last || t.live[i] != s {
		return
	}
	sl.pos = 0
	t.live[i] = t.live[last]
	t.live[i].slot().pos = i + 1
	t.live[last] = none
	t.live = t.live[:last]
}

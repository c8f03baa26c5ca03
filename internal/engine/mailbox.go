package engine

// mailboxKeep is the largest backing array a drained mailbox keeps for
// reuse. A steady trickle (a worker receiving one ack at a time) then
// never allocates, while the array behind a past backlog is released so
// an idle process does not pin the high-water mark.
const mailboxKeep = 64

// mailbox is a process's message queue in arrival order. The live
// messages are buf[head:]; slots before head are vacated and nil.
// Removing the oldest message advances head instead of copying, so a
// receive costs the same at any depth. Every method is called with the
// owning Proc's mu held.
type mailbox struct {
	buf  []*rmsg
	head int
}

// len reports the number of queued messages.
func (q *mailbox) len() int { return len(q.buf) - q.head }

// live returns the queued messages, oldest first. The slice aliases the
// mailbox and is valid until the next mutation.
func (q *mailbox) live() []*rmsg { return q.buf[q.head:] }

// pushBack appends m behind everything queued. When the array is full
// and at least half of it is vacated, the live messages slide down over
// the vacated prefix instead of growing it, so capacity stays within a
// constant factor of the deepest backlog.
func (q *mailbox) pushBack(m *rmsg) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, m)
}

// pushFront puts ms back ahead of everything queued, keeping their order:
// ms[0] becomes the oldest message. It reuses vacated slots when enough
// are free (always the case for a message that was just removed from the
// head).
func (q *mailbox) pushFront(ms ...*rmsg) {
	if len(ms) <= q.head {
		q.head -= len(ms)
		copy(q.buf[q.head:], ms)
		return
	}
	buf := make([]*rmsg, 0, len(ms)+q.len())
	buf = append(buf, ms...)
	q.buf, q.head = append(buf, q.live()...), 0
}

// removeAt removes and returns the i-th oldest message. The i messages
// ahead of it shift up by one slot — nothing for the head, and never more
// than the scan that found i already walked.
func (q *mailbox) removeAt(i int) *rmsg {
	at := q.head + i
	m := q.buf[at]
	copy(q.buf[q.head+1:at+1], q.buf[q.head:at])
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		// Drained: start over at the front of a small array, drop a
		// large one.
		if cap(q.buf) > mailboxKeep {
			q.buf = nil
		} else {
			q.buf = q.buf[:0]
		}
		q.head = 0
	}
	return m
}

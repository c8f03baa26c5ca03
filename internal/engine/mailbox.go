package engine

// mailboxFirst is the length of a mailbox's first block: a short burst
// costs 384 bytes.
const mailboxFirst = 4

// mailboxBlock is the length of every later block: 32 messages, 3 KB.
// A queue grows a block at a time and never copies what it holds, so a
// deep backlog costs what its messages take, in blocks well below the
// heap's large-object size.
const mailboxBlock = 32

// mailbox is a process's message queue in arrival order, holding the
// messages by value in blocks: blocks[0] from slot head on, then the
// later blocks, n messages in all. Removing the oldest message advances
// head instead of copying, so a receive costs the same at any depth; a
// block the head leaves is dropped from the front, and kept as the
// spare the next growth takes while the queue is not empty. Every slot
// that holds no message is zero. A drained mailbox keeps the one block
// it drained in and no spare, so a steady trickle or a recurring burst
// never allocates while an idle process pins one block at most, however
// deep its past backlog. Every method is called with the owning Proc's
// mu held.
type mailbox struct {
	blocks [][]rmsg // blocks[0] may be the short first block; every later one has mailboxBlock slots
	head   int
	n      int
	spare  []rmsg
}

// len reports the number of queued messages.
func (q *mailbox) len() int { return q.n }

// at returns the i-th oldest message (0 <= i < len) in place. The pointer
// is valid until the next mutation.
func (q *mailbox) at(i int) *rmsg {
	j := q.head + i
	if l0 := len(q.blocks[0]); j >= l0 {
		j -= l0
		return &q.blocks[1+j/mailboxBlock][j%mailboxBlock]
	}
	return &q.blocks[0][j]
}

// pushBack copies *m behind everything queued.
func (q *mailbox) pushBack(m *rmsg) {
	if len(q.blocks) == 0 || q.head+q.n == len(q.blocks[0])+(len(q.blocks)-1)*mailboxBlock {
		q.grow()
	}
	q.n++
	*q.at(q.n - 1) = *m
}

// grow adds a block behind the last: the first one, the spare, or a new
// one. The list of blocks starts with room for eight, enough for 228
// messages.
func (q *mailbox) grow() {
	switch {
	case len(q.blocks) == 0:
		q.blocks = append(make([][]rmsg, 0, 8), make([]rmsg, mailboxFirst))
	case q.spare != nil:
		q.blocks, q.spare = append(q.blocks, q.spare), nil
	default:
		q.blocks = append(q.blocks, make([]rmsg, mailboxBlock))
	}
}

// pushFront puts ms back ahead of everything queued, keeping their order:
// ms[0] becomes the oldest message. It reuses vacated slots when enough
// are free (always the case for a message just removed from a queue it
// did not drain); otherwise it rebuilds the queue.
func (q *mailbox) pushFront(ms ...rmsg) {
	if len(ms) <= q.head {
		q.head -= len(ms)
		q.n += len(ms)
		for i := range ms {
			*q.at(i) = ms[i]
		}
		return
	}
	all := make([]rmsg, 0, len(ms)+q.n)
	all = append(all, ms...)
	for i := 0; i < q.n; i++ {
		all = append(all, *q.at(i))
	}
	*q = mailbox{}
	for i := range all {
		q.pushBack(&all[i])
	}
}

// removeAt removes and returns the i-th oldest message, zeroing the slot
// it vacates. The i messages ahead of it shift up by one slot — nothing
// for the head, and never more than the scan that found i already walked.
func (q *mailbox) removeAt(i int) rmsg {
	m := *q.at(i)
	for k := i; k > 0; k-- {
		*q.at(k) = *q.at(k - 1)
	}
	*q.at(0) = rmsg{}
	q.head++
	q.n--
	switch {
	case q.n == 0:
		// Drained, in blocks[0]: the tail never runs ahead of the
		// block it writes. Start over at its front and let the spare go.
		q.head, q.spare = 0, nil
	case q.head == len(q.blocks[0]):
		if len(q.blocks[0]) == mailboxBlock {
			q.spare = q.blocks[0]
		}
		k := copy(q.blocks, q.blocks[1:])
		q.blocks[k] = nil
		q.blocks, q.head = q.blocks[:k], 0
	}
	return m
}

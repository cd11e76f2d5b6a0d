package serve

import (
	"errors"
	"sync"
	"time"
)

// ErrStoreFull reports a create against a store at its session cap with
// nothing expired to evict.
var ErrStoreFull = errors.New("serve: session store full")

// lookupStatus is what resolving a session id can find.
type lookupStatus int

const (
	lookupOK lookupStatus = iota
	// lookupGone means the id existed but was evicted (TTL or cap
	// pressure); clients get 410 so they can tell "expired" from "never
	// existed".
	lookupGone
	lookupNotFound
)

// store is the bounded in-memory session table: at most max live
// sessions, idle sessions evicted after ttl, evicted ids remembered in a
// bounded tombstone ring so late requests get 410 Gone rather than 404.
// The store only tracks membership and idle time; finalizing an evicted
// session (aborting its advisor) is the server's job, on the list sweep
// returns.
//
// Live sessions are also linked in idle order, least recently touched
// first: a touch stamps the clock and moves the session to the back, so
// with a clock that never runs backwards the list is sorted by lastTouch
// and a sweep only pops the expired prefix instead of scanning the table.
type store struct {
	mu    sync.Mutex
	max   int
	ttl   time.Duration
	now   func() time.Time
	table map[string]*session

	// oldest and newest are the ends of the idle-ordered list.
	oldest, newest *session

	// tombs remembers evicted ids; ring bounds it to cap(ring) entries,
	// overwriting the oldest.
	tombs map[string]struct{}
	ring  []string
	head  int
}

// newStore builds a store with the given cap and idle TTL.
func newStore(max int, ttl time.Duration, now func() time.Time) *store {
	return &store{
		max:   max,
		ttl:   ttl,
		now:   now,
		table: make(map[string]*session),
		tombs: make(map[string]struct{}),
		ring:  make([]string, 0, 4*max),
	}
}

// add inserts a new session, first expiring idle ones when at the cap.
// It returns the sessions evicted to make room (for the caller to
// finalize) and ErrStoreFull when the cap holds even after the sweep.
func (st *store) add(sess *session) (evicted []*session, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.table) >= st.max {
		evicted = st.sweepLocked()
	}
	if len(st.table) >= st.max {
		return evicted, ErrStoreFull
	}
	if old, ok := st.table[sess.id]; ok {
		st.unlinkLocked(old)
	}
	st.table[sess.id] = sess
	st.touchLocked(sess)
	return evicted, nil
}

// get resolves an id, refreshing its idle clock on success. Expired
// sessions found here are evicted on the way (returned for the caller
// to finalize).
func (st *store) get(id string) (sess *session, status lookupStatus, evicted []*session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	evicted = st.sweepLocked()
	if s, ok := st.table[id]; ok {
		st.unlinkLocked(s)
		st.touchLocked(s)
		return s, lookupOK, evicted
	}
	if _, ok := st.tombs[id]; ok {
		return nil, lookupGone, evicted
	}
	return nil, lookupNotFound, evicted
}

// sweepLocked evicts every session idle past the TTL, oldest first.
// Callers hold the lock.
func (st *store) sweepLocked() []*session {
	if st.ttl <= 0 {
		return nil
	}
	cutoff := st.now().Add(-st.ttl)
	var evicted []*session
	for s := st.oldest; s != nil && s.lastTouch.Before(cutoff); s = st.oldest {
		st.unlinkLocked(s)
		delete(st.table, s.id)
		st.tombLocked(s.id)
		evicted = append(evicted, s)
	}
	return evicted
}

// touchLocked stamps a session's idle clock and appends it to the back
// of the idle list; it must not be linked. Callers hold the lock.
func (st *store) touchLocked(s *session) {
	s.lastTouch = st.now()
	s.idlePrev, s.idleNext = st.newest, nil
	if st.newest != nil {
		st.newest.idleNext = s
	} else {
		st.oldest = s
	}
	st.newest = s
}

// unlinkLocked takes a session out of the idle list. Callers hold the
// lock.
func (st *store) unlinkLocked(s *session) {
	if s.idlePrev != nil {
		s.idlePrev.idleNext = s.idleNext
	} else {
		st.oldest = s.idleNext
	}
	if s.idleNext != nil {
		s.idleNext.idlePrev = s.idlePrev
	} else {
		st.newest = s.idlePrev
	}
	s.idlePrev, s.idleNext = nil, nil
}

// tombLocked remembers an evicted id, overwriting the oldest when the
// ring is full.
func (st *store) tombLocked(id string) {
	if cap(st.ring) == 0 {
		return
	}
	if len(st.ring) < cap(st.ring) {
		st.ring = append(st.ring, id)
	} else {
		delete(st.tombs, st.ring[st.head])
		st.ring[st.head] = id
		st.head = (st.head + 1) % len(st.ring)
	}
	st.tombs[id] = struct{}{}
}

// tomb remembers an id as evicted without it ever being live: recovery
// seeds the tombstones from the journal's ended sessions so their late
// requests answer 410 Gone across restarts.
func (st *store) tomb(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tombLocked(id)
}

// remove forgets a live session without tombstoning it (the create
// failure path: the session never existed as far as clients know).
func (st *store) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.table[id]; ok {
		st.unlinkLocked(s)
		delete(st.table, id)
	}
}

// all snapshots the live sessions (for shutdown flushing and listing).
func (st *store) all() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*session, 0, len(st.table))
	for _, s := range st.table {
		out = append(out, s)
	}
	return out
}

// len reports the live session count.
func (st *store) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.table)
}

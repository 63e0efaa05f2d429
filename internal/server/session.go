package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// newID returns a 16-hex-char random identifier for sessions and cursors.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// session is one client's context over the shared catalog: queries issued
// with its id execute under a context that dies with the session. Closing
// a session (explicitly, by idling past the TTL, or at shutdown) is
// cancelling that context; the server's cursor registry — the one owner of
// every cursor — then releases the cursors created under it
// (Server.reapCursors). The catalog itself is shared — sessions scope
// lifetime and cancellation, not data.
type session struct {
	id      string
	created time.Time
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	lastUsed time.Time
}

// touch marks the session recently used for idle-TTL accounting.
func (s *session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// sessionRegistry tracks live sessions and sweeps the ones idle past the
// TTL. All sessions descend from one base context so server shutdown
// cancels everything in flight with a single call.
type sessionRegistry struct {
	base    context.Context
	stop    context.CancelFunc
	idleTTL time.Duration

	mu   sync.Mutex
	byID map[string]*session
}

func newSessionRegistry(idleTTL time.Duration) *sessionRegistry {
	base, stop := context.WithCancel(context.Background())
	return &sessionRegistry{base: base, stop: stop, idleTTL: idleTTL, byID: map[string]*session{}}
}

func (r *sessionRegistry) create() *session {
	ctx, cancel := context.WithCancel(r.base)
	s := &session{
		id:       newID(),
		created:  time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		lastUsed: time.Now(),
	}
	r.mu.Lock()
	r.byID[s.id] = s
	r.mu.Unlock()
	return s
}

func (r *sessionRegistry) get(id string) (*session, bool) {
	r.mu.Lock()
	s, ok := r.byID[id]
	r.mu.Unlock()
	if ok {
		s.touch()
	}
	return s, ok
}

// closeSession closes (cancels, aborting its in-flight queries) and
// removes one session; reports whether it existed.
func (r *sessionRegistry) closeSession(id string) bool {
	r.mu.Lock()
	s, ok := r.byID[id]
	delete(r.byID, id)
	r.mu.Unlock()
	if ok {
		s.cancel()
	}
	return ok
}

func (r *sessionRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// sweep closes every session idle past the TTL and returns how many fell.
func (r *sessionRegistry) sweep(now time.Time) int {
	if r.idleTTL <= 0 {
		return 0
	}
	var stale []*session
	r.mu.Lock()
	for id, s := range r.byID {
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		s.mu.Unlock()
		if idle > r.idleTTL {
			stale = append(stale, s)
			delete(r.byID, id)
		}
	}
	r.mu.Unlock()
	for _, s := range stale {
		s.cancel()
	}
	return len(stale)
}

// closeAll cancels the base context — every session descends from it, so
// this closes them all and kills every session-scoped query — and forgets
// them. Used at server shutdown.
func (r *sessionRegistry) closeAll() {
	r.stop()
	r.mu.Lock()
	r.byID = map[string]*session{}
	r.mu.Unlock()
}

package service

import "sync"

// flightGroup coalesces concurrent identical work: the first caller for a
// key becomes the leader and computes; followers arriving while the leader
// runs block and share its result. A minimal in-repo take on the classic
// singleflight (the module is dependency-free by design).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// Do runs fn once per key at a time. shared reports whether this caller
// piggybacked on another's execution (a coalesced request). The leader
// removes the key before returning, so a later request recomputes — by then
// the response cache normally answers instead.
func (g *flightGroup) Do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

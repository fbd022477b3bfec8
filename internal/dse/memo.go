package dse

import (
	"sync"

	"repro/internal/core"
	"repro/internal/floorplan"
)

// Orbit-level group-pricing memo.
//
// PR 6 collapsed the branch-and-bound walk from partitions to fibers: one
// canonical representative per ordered sequence of per-group class
// compositions. The orbit count sits well below that (6,721 orbits vs
// 374,760 fibers at n=12/k=3) because many fibers differ only in which
// groups carry which composition and in what order earlier groups were
// placed. The memo converts that residual redundancy into lookups: a group's
// pricing — EstimateShared over the members' requirements with the placed
// regions as the avoid set, Eqs. (1)–(17) — depends only on
//
//	(the multiset of member signature classes, the multiset of avoid regions)
//
// for feasible outcomes, because EstimateShared merges per-resource maxima
// (order- and identity-free) and the window search rejects candidates by
// overlap against the avoid *set* (core.RegionLess documents that
// envelope). The fabric is fixed per exploration — the memo lives on one
// bbRun — so fabric identity never needs encoding.
//
// Infeasible outcomes carry one order-dependent artifact: EstimateShared's
// error names the in-group index of the first member that failed ("core:
// PRM %d: ..."), and ExploreAll's points quote that text verbatim. Two
// orderings of the same composition fail identically in every other respect
// but may render different indexes. The memo therefore keeps two tables:
// feasible evaluations under the canonical (sorted-composition) key, and
// infeasible evaluations under the ordered-composition key, so a hit always
// reproduces the exact errMsg bit-for-bit and the memo-on engine remains
// indistinguishable from memo-off.

// MemoMode selects whether the branch-and-bound engine memoizes group
// pricings across the fiber walk. The zero value is MemoAuto.
type MemoMode int

const (
	// MemoAuto enables the memo whenever at least two PRMs share a
	// requirement signature — the only case where compositions recur — and
	// is a no-op otherwise. Results are bit-identical either way, so auto is
	// safe as the default.
	MemoAuto MemoMode = iota
	// MemoOff prices every tree edge with the cost models.
	MemoOff
)

// memoShardCount spreads the memo over independently locked shards so
// parallel subtree workers rarely contend on the same mutex.
const memoShardCount = 32

// groupMemo is the per-exploration pricing memo, shared by every subtree
// worker of one bbRun so the first-k-level jobs warm each other. Keys index
// into that run's class table, so the memo is never reused across runs.
type groupMemo struct {
	shards [memoShardCount]memoShard
}

// memoShard holds the two tables described above. feas is keyed by the
// canonical sorted-composition key; inf by the ordered-composition key
// (the two key families are kept in separate maps precisely so an ordered
// key can never collide with another composition's canonical form).
type memoShard struct {
	mu   sync.RWMutex
	feas map[string]groupEval
	inf  map[string]groupEval
}

func newGroupMemo() *groupMemo {
	m := &groupMemo{}
	for i := range m.shards {
		m.shards[i].feas = make(map[string]groupEval)
		m.shards[i].inf = make(map[string]groupEval)
	}
	return m
}

// fnvShardIndex picks a shard by an FNV-style mix over the key. The mix
// consumes eight bytes per multiply instead of FNV-1a's one: shard selection
// only needs a balanced spread over 32 buckets, not the reference digest, and
// the engine hashes a key per tree edge.
func fnvShardIndex(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for len(key) >= 8 {
		w := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		h = (h ^ w) * prime64
		key = key[8:]
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return int(h % memoShardCount)
}

// getFeasible looks up a canonical-key entry. Map reads via m[string(key)]
// are compiler-optimized to skip the string conversion, so hits allocate
// nothing.
func (m *groupMemo) getFeasible(shard int, key []byte) (groupEval, bool) {
	s := &m.shards[shard]
	s.mu.RLock()
	ev, ok := s.feas[string(key)]
	s.mu.RUnlock()
	return ev, ok
}

// getInfeasible looks up an ordered-key entry.
func (m *groupMemo) getInfeasible(shard int, key []byte) (groupEval, bool) {
	s := &m.shards[shard]
	s.mu.RLock()
	ev, ok := s.inf[string(key)]
	s.mu.RUnlock()
	return ev, ok
}

// putFeasible stores a canonical-key entry, reporting whether it was a new
// insertion (false when a racing worker stored the identical value first —
// pricing is deterministic, so overwrites are value-equal and harmless).
func (m *groupMemo) putFeasible(shard int, key []byte, ev groupEval) bool {
	s := &m.shards[shard]
	s.mu.Lock()
	_, exists := s.feas[string(key)]
	if !exists {
		s.feas[string(key)] = ev
	}
	s.mu.Unlock()
	return !exists
}

// putInfeasible stores an ordered-key entry.
func (m *groupMemo) putInfeasible(shard int, key []byte, ev groupEval) bool {
	s := &m.shards[shard]
	s.mu.Lock()
	_, exists := s.inf[string(key)]
	if !exists {
		s.inf[string(key)] = ev
	}
	s.mu.Unlock()
	return !exists
}

// memoKeySep separates the composition half of a key from the region half.
// Class ids are encoded as single bytes strictly below it (memoSupported
// gates the memo on that), so the first 0xff byte of any key is always the
// separator and the two halves decode unambiguously.
const memoKeySep = 0xff

// memoSupported reports whether the compact key encoding can represent this
// exploration: class ids must fit one byte below the separator and region
// coordinates must fit uint16. Both bounds sit orders of magnitude beyond
// any explorable problem (Bell(21) is already ~5e14 partitions and real
// fabrics have hundreds of columns); the guard merely keeps the encoding
// provably injective instead of silently truncating on absurd inputs.
func memoSupported(classes, rows, cols int) bool {
	return classes < memoKeySep && rows < 1<<16 && cols+1 < 1<<16
}

// memoScratch is a worker-local buffer set for the key encoders, so steady-
// state key builds allocate nothing (every append reuses grown capacity).
type memoScratch struct {
	canon   []byte
	ordered []byte
	regs    []floorplan.Region
	// tail is the offset of the region suffix inside canon, so orderedKey
	// can copy it instead of re-sorting the regions.
	tail int
}

// appendRegion renders one region as four big-endian uint16 fields. The
// fixed width is what keeps the region half injective without separators:
// after the single memoKeySep byte, the suffix parses as exact 8-byte units.
func appendRegion(b []byte, r floorplan.Region) []byte {
	return append(b,
		byte(r.Row>>8), byte(r.Row),
		byte(r.Col>>8), byte(r.Col),
		byte(r.H>>8), byte(r.H),
		byte(r.W>>8), byte(r.W))
}

// canonicalKey encodes (class composition as a multiset, avoid-region
// multiset): the members' class ids insertion-sorted ascending as single
// bytes, then memoKeySep, then the regions sorted by core.RegionLess as
// fixed-width fields. The encoding is injective — keys compare equal iff the
// sorted compositions and the avoid multisets are both equal — because both
// halves are canonically ordered, class bytes never equal the separator, and
// the region fields are fixed-width (see TestMemoKeyInjective). The returned
// slice aliases the scratch buffer and is valid until the next call.
func (sc *memoScratch) canonicalKey(members, classOf []int, avoid []floorplan.Region) []byte {
	b := sc.canon[:0]
	for _, m := range members {
		c := byte(classOf[m])
		j := len(b)
		b = append(b, c)
		for ; j > 0 && c < b[j-1]; j-- {
			b[j] = b[j-1]
		}
		b[j] = c
	}
	b = append(b, memoKeySep)
	sc.tail = len(b)
	if len(avoid) > 0 {
		sc.regs = append(sc.regs[:0], avoid...)
		for i := 1; i < len(sc.regs); i++ {
			for j := i; j > 0 && core.RegionLess(sc.regs[j], sc.regs[j-1]); j-- {
				sc.regs[j], sc.regs[j-1] = sc.regs[j-1], sc.regs[j]
			}
		}
		for _, r := range sc.regs {
			b = appendRegion(b, r)
		}
	}
	sc.canon = b
	return b
}

// orderedKey encodes (class composition in member order, avoid-region
// multiset) for the infeasible table. It must be called after canonicalKey
// with the same avoid set: the region suffix is copied from the canonical
// buffer rather than re-sorted.
func (sc *memoScratch) orderedKey(members, classOf []int) []byte {
	b := sc.ordered[:0]
	for _, m := range members {
		b = append(b, byte(classOf[m]))
	}
	b = append(b, memoKeySep)
	b = append(b, sc.canon[sc.tail:]...)
	sc.ordered = b
	return b
}

// memoL1 is a worker-private, lock-free view of the shared memo: the worker
// copies every entry it reads or writes into its own maps, so repeat lookups
// — the overwhelming steady state — cost one map read with no RWMutex or
// atomic traffic. The shared memo stays the source of truth (and the only
// place entries are counted); the L1 can only ever hold copies of entries
// that exist there, so it never changes a lookup's outcome, only its cost.
type memoL1 struct {
	feas map[string]groupEval
	inf  map[string]groupEval
}

func newMemoL1() *memoL1 {
	return &memoL1{feas: make(map[string]groupEval), inf: make(map[string]groupEval)}
}

// priceEdge prices one tree edge's group — the branch-and-bound engine's
// work unit — consulting the run's memo when one is active. The stats
// contract: pricings counts every edge (hit or miss) so GroupPricings is
// identical memo-on and memo-off; hits+misses equals pricings on memo-on
// runs.
func (s *bbState) priceEdge(g int) groupEval {
	r := s.run
	s.pricings++
	m := r.memo
	if m == nil {
		return r.e.priceGroup(r.prms, s.members[g], s.placed[:g], r.bit)
	}
	ck := s.msc.canonicalKey(s.members[g], r.classOf, s.placed[:g])
	if ev, ok := s.l1.feas[string(ck)]; ok {
		s.memoHits++
		return ev
	}
	shard := fnvShardIndex(ck)
	if ev, ok := m.getFeasible(shard, ck); ok {
		s.memoHits++
		s.l1.feas[string(ck)] = ev
		return ev
	}
	okey := s.msc.orderedKey(s.members[g], r.classOf)
	if ev, ok := s.l1.inf[string(okey)]; ok {
		s.memoHits++
		return ev
	}
	oshard := fnvShardIndex(okey)
	if ev, ok := m.getInfeasible(oshard, okey); ok {
		s.memoHits++
		s.l1.inf[string(okey)] = ev
		return ev
	}
	s.memoMisses++
	ev := r.e.priceGroup(r.prms, s.members[g], s.placed[:g], r.bit)
	if ev.feasible {
		if m.putFeasible(shard, ck, ev) {
			s.memoEntries++
		}
		s.l1.feas[string(ck)] = ev
	} else {
		if m.putInfeasible(oshard, okey, ev) {
			s.memoEntries++
		}
		s.l1.inf[string(okey)] = ev
	}
	return ev
}

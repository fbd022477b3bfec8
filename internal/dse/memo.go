package dse

import (
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
// envelope). The fabric is fixed per exploration — each memo lives inside
// one exploration's walks — so fabric identity never needs encoding.
//
// Every walk owns its memo outright: the root walk that carves the subtree
// jobs keeps one, and each worker keeps one across all the jobs it drains.
// Nothing is shared, so a lookup is a plain map read with no lock, and the
// memo counters of a one-worker run do not depend on scheduling. Two walks
// may each price the same key once; at one worker the root walk and the
// worker share almost no keys (3 of 19,783 lookups on DuplicatePRMs(12, 3)),
// so a shared tier would only add hashing and locking to every miss.
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

// groupMemo is one walk's pricing memo: the root walk and every worker own
// one for their whole life, so entries learned in one subtree job stay warm
// for the next without any locking. feas is keyed by the canonical
// sorted-composition key, inf by the ordered-composition key (the two key
// families are kept in separate maps precisely so an ordered key can never
// collide with another composition's canonical form). Keys index into the
// run's class table, so a memo is never reused across runs.
type groupMemo struct {
	feas map[string]groupEval
	inf  map[string]groupEval
}

func newGroupMemo() groupMemo {
	return groupMemo{feas: make(map[string]groupEval), inf: make(map[string]groupEval)}
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

// priceEdge prices one tree edge's group — the branch-and-bound engine's
// work unit — consulting the walk's memo when the run has one. Map reads via
// m[string(key)] are compiler-optimized to skip the string conversion, so
// hits allocate nothing. The stats contract: pricings counts every edge (hit
// or miss) so GroupPricings is identical memo-on and memo-off; hits+misses
// equals pricings on memo-on runs, and every miss stores one entry.
func (s *bbState) priceEdge(g int) groupEval {
	r := s.run
	s.pricings++
	if !r.memo {
		return r.e.priceGroup(r.prms, s.members[g], s.placed[:g], r.bit)
	}
	ck := s.msc.canonicalKey(s.members[g], r.classOf, s.placed[:g])
	if ev, ok := s.memo.feas[string(ck)]; ok {
		s.memoHits++
		return ev
	}
	okey := s.msc.orderedKey(s.members[g], r.classOf)
	if ev, ok := s.memo.inf[string(okey)]; ok {
		s.memoHits++
		return ev
	}
	s.memoMisses++
	ev := r.e.priceGroup(r.prms, s.members[g], s.placed[:g], r.bit)
	if ev.feasible {
		s.memo.feas[string(ck)] = ev
	} else {
		s.memo.inf[string(okey)] = ev
	}
	return ev
}

package sim

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/icap"
)

// DefaultCaptureOverhead is the fixed GCAPTURE settle time charged before
// every context-save transfer. It matches the order of magnitude used by the
// context-switch examples.
const DefaultCaptureOverhead = 2 * time.Microsecond

// SlotState is a PRR slot's run-time state in the event loop.
type SlotState int

const (
	// SlotIdle means the slot holds no task; its last-loaded PRM may still
	// be resident (a warm slot).
	SlotIdle SlotState = iota
	// SlotLoading means an ICAP transfer toward this slot is in flight (a
	// load, or a restore replaying saved frames). A loading slot is never
	// schedulable and never preemptible: the transfer must complete.
	SlotLoading
	// SlotRunning means a task is executing in the slot.
	SlotRunning
)

// PRR is one reconfigurable slot of a Platform with its transfer volumes,
// all derived from the paper's cost models (Eqs. (18)-(23) via the
// configured icap.Estimator).
type PRR struct {
	Name  string
	Tiles int
	// LoadBytes is the partial-bitstream volume of a cold module load.
	LoadBytes int
	// SaveBytes is the context-save readback volume (GCAPTURE + frame
	// readback framing from package bitstream).
	SaveBytes int
	// RestoreBytes is the state-carrying restore bitstream (load volume
	// plus the GRESTORE trailer).
	RestoreBytes int
}

// PRM is one hardware task class. Compat lists the slots whose PRR can host
// it (indexes into Platform.PRRs).
type PRM struct {
	Name   string
	Compat []int
}

// Platform is the simulated device: a set of placed PRRs sharing one ICAP,
// and the PRM classes that run on them.
type Platform struct {
	PRRs []PRR
	PRMs []PRM
}

// Job is one task instance to schedule.
type Job struct {
	ID       int
	PRM      int
	Arrival  time.Duration
	Exec     time.Duration
	Priority int
}

// Config drives one simulation run.
type Config struct {
	Platform Platform
	Policy   Policy
	// Estimator converts transfer byte volumes into ICAP occupancy time.
	// Nil defaults to the 32-bit ICAP fed from DDR SDRAM.
	Estimator icap.Estimator
	// SnapshotEvery emits a progress Snapshot every that many completions
	// (plus one final snapshot). Zero emits only the final snapshot.
	SnapshotEvery int
}

// Snapshot is one progress sample of a running simulation. With a fixed
// seed and config the emitted snapshot sequence is bit-identical across
// runs — the determinism contract that makes streamed runs cacheable.
type Snapshot struct {
	Seq         int     `json:"seq"`
	NowNS       int64   `json:"now_ns"`
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	Ready       int     `json:"ready"`
	Running     int     `json:"running"`
	Reconfigs   int64   `json:"reconfigs"`
	Preemptions int64   `json:"preemptions"`
	ICAPBusy    float64 `json:"icap_busy"`
	MeanWaitNS  int64   `json:"mean_wait_ns"`
}

// SlotStats is one slot's share of a Result.
type SlotStats struct {
	Name      string `json:"name"`
	BusyNS    int64  `json:"busy_ns"`
	Reconfigs int    `json:"reconfigs"`
	ICAPNS    int64  `json:"icap_ns"`
}

// Result summarizes one finished (or cancelled) run. Durations are exported
// in nanoseconds so the JSON form is integer-exact; the two ratios are
// deterministic divisions of integer totals.
type Result struct {
	Policy         string      `json:"policy"`
	Jobs           int         `json:"jobs"`
	Completed      int         `json:"completed"`
	MakespanNS     int64       `json:"makespan_ns"`
	MeanWaitNS     int64       `json:"mean_wait_ns"`
	P99WaitNS      int64       `json:"p99_wait_ns"`
	MaxWaitNS      int64       `json:"max_wait_ns"`
	MeanResponseNS int64       `json:"mean_response_ns"`
	Reconfigs      int64       `json:"reconfigs"`
	Preemptions    int64       `json:"preemptions"`
	ICAPTransfers  int64       `json:"icap_transfers"`
	ICAPBusyNS     int64       `json:"icap_busy_ns"`
	ICAPBusy       float64     `json:"icap_busy"`
	Utilization    float64     `json:"utilization"`
	PerSlot        []SlotStats `json:"per_slot,omitempty"`
}

// event kinds. An arrival carries the job index; a loaded or done event
// carries the slot whose transfer or execution finishes. evNone marks a slot
// with nothing pending.
const (
	evNone = iota
	evArrival
	evLoaded
	evDone
)

// event is one point on the virtual clock. Events are handled in (at, seq)
// order: virtual time first, scheduling order as the deterministic
// tie-break.
type event struct {
	at   time.Duration
	seq  int
	kind int
	job  int
	slot int
}

// slotRT is a slot's engine-side state; its policy-visible state, resident
// PRM and running priority live in engine.viewSlots.
type slotRT struct {
	// ev is the slot's one pending event: its load finishing or its task
	// completing. A preemption overwrites the victim's completion with the
	// preemptor's load.
	ev        event
	cur       ReadyView
	started   time.Duration // current exec burst start (valid in SlotRunning)
	busy      time.Duration
	reconfigs int
	icap      time.Duration
}

// engine is the per-run arena. Runs obtain one from enginePool and reset it,
// so repeated replays of the same mix reuse the ready queue, slot
// table, wait ledger and view buffers — the steady-state event loop performs
// no heap allocation (gated by BenchmarkSimRun/loop in CI).
type engine struct {
	cfg  Config
	jobs []Job

	seq int
	// arrived counts the arrivals handed out so far. order is the jobs'
	// (Arrival, input index) order when the input is not already in it,
	// and empty when it is.
	arrived int
	order   []int
	// ready[head:] is the queue in priority order (see View.Ready);
	// policies read it in place. Taking the head advances head.
	ready []ReadyView
	head  int
	slots []slotRT
	// viewSlots is the slot table policies read (View.Slots), rewritten
	// on every slot-state change.
	viewSlots []SlotView

	// Slot sets (see View.SetHeads): setOf numbers each PRM class's Compat
	// list, classes with equal lists sharing a number. setHead[s] is the
	// View.Ready index of set s's first queued job, -1 when it has none;
	// setLen[s] counts its queued jobs.
	setOf   []int
	setHead []int
	setLen  []int
	// fcfsHead is the View.Ready index of FCFSBestFit's head (see fcfs),
	// -1 when the queue is empty. It is kept only while fcfsLive: taking
	// the head makes it stale until fcfs recounts it.
	fcfsHead int
	fcfsLive bool

	// per-slot transfer durations, precomputed from the estimator
	loadDur    []time.Duration
	saveDur    []time.Duration
	restoreDur []time.Duration

	// the shared ICAP as a FIFO resource: requests are issued in event
	// order, so a single free-at watermark is exactly FIFO service.
	icapFreeAt time.Duration
	icapBusy   time.Duration
	transfers  int64
	// xferDurs lists every transfer's duration for the once-per-run
	// sim_reconfig_seconds observation.
	xferDurs []time.Duration

	now         time.Duration
	submitted   int
	completed   int
	reconfigs   int64
	preemptions int64
	makespan    time.Duration
	waits       []time.Duration
	waitSum     time.Duration
	respSum     time.Duration
	snapSeq     int
	events      int
	stopped     bool

	viewBuf View
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// reset rebinds a pooled engine to one (cfg, jobs) run, keeping every
// slice's capacity from earlier runs.
func (en *engine) reset(cfg Config, jobs []Job) {
	en.cfg = cfg
	en.jobs = jobs

	n := len(cfg.Platform.PRRs)
	en.slots = growClear(en.slots, n)
	en.viewSlots = growClear(en.viewSlots, n)
	en.viewBuf = View{Slots: en.viewSlots, en: en}
	en.loadDur = growClear(en.loadDur, n)
	en.saveDur = growClear(en.saveDur, n)
	en.restoreDur = growClear(en.restoreDur, n)
	for i, prr := range cfg.Platform.PRRs {
		en.viewSlots[i].Loaded = -1
		en.loadDur[i] = cfg.Estimator.Estimate(prr.LoadBytes)
		en.saveDur[i] = cfg.Estimator.Estimate(prr.SaveBytes)
		en.restoreDur[i] = cfg.Estimator.Estimate(prr.RestoreBytes)
	}

	// Arrivals take seq = input index (see next), so slot events number
	// from len(jobs) on.
	en.seq = len(jobs)
	en.arrived = 0
	en.orderArrivals()
	en.ready = en.ready[:0]
	en.head = 0
	en.fcfsHead, en.fcfsLive = -1, true
	en.numberSets()
	en.icapFreeAt = 0
	en.icapBusy = 0
	en.transfers = 0
	en.xferDurs = en.xferDurs[:0]
	en.now = 0
	en.submitted = 0
	en.completed = 0
	en.reconfigs = 0
	en.preemptions = 0
	en.makespan = 0
	en.waits = en.waits[:0]
	en.waitSum = 0
	en.respSum = 0
	en.snapSeq = 0
	en.events = 0
	en.stopped = false
}

// numberSets numbers the platform's distinct Compat lists in PRM order and
// empties every set.
func (en *engine) numberSets() {
	prms := en.cfg.Platform.PRMs
	en.setOf = en.setOf[:0]
	sets := 0
	for p := range prms {
		set := sets
		for q := range p {
			if slices.Equal(prms[q].Compat, prms[p].Compat) {
				set = en.setOf[q]
				break
			}
		}
		if set == sets {
			sets++
		}
		en.setOf = append(en.setOf, set)
	}
	en.setLen = growClear(en.setLen, sets)
	en.setHead = growClear(en.setHead, sets)
	for s := range en.setHead {
		en.setHead[s] = -1
	}
}

// release drops the caller-owned references (platform, policy, jobs) before
// the engine re-enters the pool so pooled arenas never pin a caller's mix.
func (en *engine) release() {
	en.cfg = Config{}
	en.jobs = nil
	enginePool.Put(en)
}

// growClear returns s resized to n zeroed elements, reusing capacity.
func growClear[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// Run executes one simulation to completion under the virtual clock. visit
// (may be nil) receives progress snapshots; returning false stops the run
// early with the partial Result. ctx cancellation is honored between
// events, so a disconnected client stops a long run promptly.
func Run(ctx context.Context, cfg Config, jobs []Job, visit func(Snapshot) bool) (Result, error) {
	if cfg.Policy == nil {
		return Result{}, fmt.Errorf("sim: nil policy")
	}
	if len(cfg.Platform.PRRs) == 0 {
		return Result{}, fmt.Errorf("sim: platform has no PRRs")
	}
	for _, prm := range cfg.Platform.PRMs {
		if len(prm.Compat) == 0 {
			return Result{}, fmt.Errorf("sim: PRM %q fits no PRR", prm.Name)
		}
		for _, s := range prm.Compat {
			if s < 0 || s >= len(cfg.Platform.PRRs) {
				return Result{}, fmt.Errorf("sim: PRM %q compat slot %d out of range", prm.Name, s)
			}
		}
	}
	for _, j := range jobs {
		if j.PRM < 0 || j.PRM >= len(cfg.Platform.PRMs) {
			return Result{}, fmt.Errorf("sim: job %d references unknown PRM %d", j.ID, j.PRM)
		}
		if j.Exec <= 0 {
			return Result{}, fmt.Errorf("sim: job %d has non-positive exec time", j.ID)
		}
	}
	cfg.Estimator = estimatorOrDefault(cfg.Estimator)

	en := enginePool.Get().(*engine)
	defer en.release()
	en.reset(cfg, jobs)

	start := time.Now()
	err := en.loop(ctx, visit)
	en.observe(time.Since(start))
	res := en.result()
	if err != nil {
		return res, err
	}
	// Distinguish "visitor stopped the run" (not an error) from "the events
	// ran out with jobs left behind" (a policy bug).
	if en.completed != len(jobs) && !en.stopped {
		return res, fmt.Errorf("sim: policy %s stranded %d jobs", cfg.Policy.Name(), len(jobs)-en.completed)
	}
	return res, nil
}

// estimatorOrDefault is est, or the 32-bit ICAP fed from DDR SDRAM when est
// is nil.
func estimatorOrDefault(est icap.Estimator) icap.Estimator {
	if est == nil {
		return icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}
	}
	return est
}

// orderArrivals fills en.order with the job indexes stably sorted by
// Arrival, or leaves it empty when the input is already in that order (as
// Mix.Generate's output is).
func (en *engine) orderArrivals() {
	en.order = en.order[:0]
	jobs := en.jobs
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			for ji := range jobs {
				en.order = append(en.order, ji)
			}
			slices.SortStableFunc(en.order, func(a, b int) int {
				return cmp.Compare(jobs[a].Arrival, jobs[b].Arrival)
			})
			return
		}
	}
}

// next takes the next event in (at, seq) order: the next arrival or the
// earliest pending slot event. It reports false when neither is left. An
// arrival's seq is its input index, and every slot event numbers from
// len(jobs) on, so an arrival wins a tie in virtual time.
func (en *engine) next() (event, bool) {
	var first *event
	for si := range en.slots {
		e := &en.slots[si].ev
		if e.kind != evNone && (first == nil || e.at < first.at || e.at == first.at && e.seq < first.seq) {
			first = e
		}
	}
	if en.arrived < len(en.jobs) {
		ji := en.arrived
		if len(en.order) > 0 {
			ji = en.order[ji]
		}
		if at := en.jobs[ji].Arrival; first == nil || at <= first.at {
			en.arrived++
			return event{at: at, seq: ji, kind: evArrival, job: ji}, true
		}
	}
	if first == nil {
		return event{}, false
	}
	e := *first
	first.kind = evNone
	return e, true
}

// schedule sets slot si's pending event to one of kind at time at, numbered
// after every event scheduled before it.
func (en *engine) schedule(si int, at time.Duration, kind int) {
	en.slots[si].ev = event{at: at, seq: en.seq, kind: kind, slot: si}
	en.seq++
}

func (en *engine) loop(ctx context.Context, visit func(Snapshot) bool) error {
	for {
		e, ok := en.next()
		if !ok {
			break
		}
		en.events++
		if en.events&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !en.step(e, visit) {
			en.stopped = true
			return nil
		}
	}
	en.emit(visit) // final snapshot; stream end follows regardless
	return nil
}

// step handles one event and the dispatch round after it. It returns false
// when visit stops the run at a snapshot.
func (en *engine) step(e event, visit func(Snapshot) bool) bool {
	en.now = e.at
	switch e.kind {
	case evArrival:
		en.submitted++
		j := &en.jobs[e.job]
		en.enqueue(ReadyView{Job: j.ID, PRM: j.PRM, Priority: j.Priority,
			Arrival: j.Arrival, Remaining: j.Exec, job: e.job})
	case evLoaded:
		cur := en.slots[e.slot].cur
		en.viewSlots[e.slot].Loaded = cur.PRM
		en.beginExec(e.at, e.slot, cur)
	case evDone:
		en.complete(e.at, e.slot)
		if en.cfg.SnapshotEvery > 0 && en.completed%en.cfg.SnapshotEvery == 0 && en.completed < len(en.jobs) {
			if !en.emit(visit) {
				return false
			}
		}
	}
	en.dispatch(e.at)
	return true
}

func (en *engine) emit(visit func(Snapshot) bool) bool {
	if visit == nil {
		return true
	}
	running := 0
	for _, sv := range en.viewSlots {
		if sv.State == SlotRunning {
			running++
		}
	}
	var meanWait int64
	if en.completed > 0 {
		meanWait = int64(en.waitSum) / int64(en.completed)
	}
	var busy float64
	if en.now > 0 {
		b := en.icapBusy
		if b > en.now {
			b = en.now // transfers already booked past the clock
		}
		busy = float64(b) / float64(en.now)
	}
	s := Snapshot{
		Seq:         en.snapSeq,
		NowNS:       int64(en.now),
		Submitted:   en.submitted,
		Completed:   en.completed,
		Ready:       len(en.ready) - en.head,
		Running:     running,
		Reconfigs:   en.reconfigs,
		Preemptions: en.preemptions,
		ICAPBusy:    busy,
		MeanWaitNS:  meanWait,
	}
	en.snapSeq++
	metSnapshots.Inc()
	return visit(s)
}

// xfer books one transfer on the shared ICAP FIFO: it starts when both the
// requester is ready and the port is free, in request order. It returns
// the time the transfer is done.
func (en *engine) xfer(at time.Duration, dur time.Duration, slot int) time.Duration {
	start := max(at, en.icapFreeAt)
	en.icapFreeAt = start + dur
	en.icapBusy += dur
	en.transfers++
	en.slots[slot].icap += dur
	en.xferDurs = append(en.xferDurs, dur)
	return en.icapFreeAt
}

// enqueue inserts r into the ready queue after every job that sorts before
// or level with it, so the queue stays in (priority desc, arrival, job ID)
// order. Arrivals come in time order and mostly land at the tail of their
// level. Like take, an insert moves the shorter side of the queue: the part
// before the insert point moves into the gap before the head when there is
// one and that part is the shorter.
func (en *engine) enqueue(r ReadyView) {
	q := en.ready[en.head:]
	lo, hi := 0, len(q)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := &q[m]; e.Priority > r.Priority || e.Priority == r.Priority &&
			(e.Arrival < r.Arrival || e.Arrival == r.Arrival && e.Job <= r.Job) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	i := lo
	if en.head > 0 && i < len(q)-i {
		en.head--
		copy(en.ready[en.head:], q[:i])
		en.ready[en.head+i] = r
	} else {
		if len(en.ready) == cap(en.ready) && en.head > 0 {
			// The tail has no room. Slide the queue to the front of its
			// array, or move it to one twice the size when less than half
			// of this one is free, so at least len(queue) inserts pass
			// before the next move.
			buf := en.ready[:0]
			if en.head < len(q) {
				buf = make([]ReadyView, 0, 2*cap(en.ready))
			}
			en.ready = append(buf, q...)
			en.head = 0
		}
		en.ready = slices.Insert(en.ready, en.head+i, r)
	}
	for s, h := range en.setHead {
		if h >= i {
			en.setHead[s] = h + 1
		}
	}
	set := en.setOf[r.PRM]
	if h := en.setHead[set]; h < 0 || h > i {
		en.setHead[set] = i
	}
	en.setLen[set]++
	if en.fcfsLive {
		h := en.fcfsHead
		if h >= i {
			h++
		}
		if h < 0 {
			h = i
		} else if hv := &en.ready[en.head+h]; fcfsBefore(&r, hv) || i < h && !fcfsBefore(hv, &r) {
			h = i
		}
		en.fcfsHead = h
	}
}

// take removes View.Ready[i] from the queue, moving the shorter side of it
// over the gap: taking the head only advances the head offset. When Ready[i]
// heads its slot set, the set's next job in queue order becomes its head.
func (en *engine) take(i int) {
	q := en.ready[en.head:]
	set := en.setOf[q[i].PRM]
	if i < len(q)-1-i {
		copy(q[1:i+1], q[:i])
		en.head++
	} else {
		copy(q[i:], q[i+1:])
		en.ready = en.ready[:len(en.ready)-1]
	}
	if en.head == len(en.ready) {
		en.ready, en.head = en.ready[:0], 0
	}
	for s, h := range en.setHead {
		if h > i {
			en.setHead[s] = h - 1
		}
	}
	if en.setLen[set]--; en.setHead[set] == i {
		en.nextHead(set, i)
	}
	if en.fcfsLive {
		switch h := en.fcfsHead; {
		case h == i:
			en.fcfsLive = false
		case h > i:
			en.fcfsHead = h - 1
		}
	}
}

// fcfs returns the View.Ready index of FCFSBestFit's head, the earliest
// arrival with ties broken by job ID and then queue order, or -1 when the
// queue is empty. enqueue and take keep it; only taking the head itself
// leaves it to be recounted here. Each priority level of the queue is in
// (arrival, job ID) order, so the recount compares the level heads only,
// finding each next level by binary search.
func (en *engine) fcfs() int {
	if en.fcfsLive {
		return en.fcfsHead
	}
	q := en.ready[en.head:]
	head := -1
	if len(q) > 0 {
		head = 0
	}
	for i := 0; i < len(q); {
		p := q[i].Priority
		lo, hi := i+1, len(q)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); q[m].Priority < p {
				hi = m
			} else {
				lo = m + 1
			}
		}
		if i = lo; i < len(q) && fcfsBefore(&q[i], &q[head]) {
			head = i
		}
	}
	en.fcfsHead, en.fcfsLive = head, true
	return head
}

// fcfsBefore reports whether a arrived before b, ties broken by job ID.
func fcfsBefore(a, b *ReadyView) bool {
	return a.Arrival < b.Arrival || a.Arrival == b.Arrival && a.Job < b.Job
}

// nextHead makes the first job of set at or after View.Ready index i the
// set's head, -1 when the set has no queued job.
func (en *engine) nextHead(set, i int) {
	if en.setLen[set] == 0 {
		en.setHead[set] = -1
		return
	}
	q := en.ready[en.head:]
	for en.setOf[q[i].PRM] != set {
		i++
	}
	en.setHead[set] = i
}

// dispatch runs the policy until it passes or proposes an invalid action.
func (en *engine) dispatch(now time.Duration) {
	for len(en.ready) > en.head {
		v := en.view(now)
		act, ok := en.cfg.Policy.Decide(v)
		if !ok {
			return
		}
		if !en.apply(now, act) {
			return
		}
	}
}

// apply validates and executes one policy action. Invalid actions (bad
// indexes, incompatible slot, loading slot, non-strict priority preemption)
// return false and end the dispatch round instead of corrupting state.
func (en *engine) apply(now time.Duration, act Action) bool {
	if act.Ready < 0 || act.Ready >= len(en.ready)-en.head || act.Slot < 0 || act.Slot >= len(en.slots) {
		return false
	}
	rj := en.ready[en.head+act.Ready]
	prm := &en.cfg.Platform.PRMs[rj.PRM]
	ok := false
	for _, s := range prm.Compat {
		if s == act.Slot {
			ok = true
			break
		}
	}
	if !ok {
		return false
	}
	sv := &en.viewSlots[act.Slot]
	switch {
	case sv.State == SlotIdle && !act.Preempt:
		en.take(act.Ready)
		en.startOn(now, act.Slot, rj)
		return true
	case sv.State == SlotRunning && act.Preempt:
		if rj.Priority <= sv.Priority {
			return false
		}
		en.take(act.Ready)
		en.preempt(now, act.Slot, rj)
		return true
	}
	// A SlotLoading target is always invalid: an in-flight ICAP transfer
	// queues work behind it, it is never aborted.
	return false
}

// startOn occupies an idle slot: immediately when the module is already
// resident, otherwise after a load (or restore) transfer through the ICAP.
func (en *engine) startOn(now time.Duration, si int, rj ReadyView) {
	if en.viewSlots[si].Loaded == rj.PRM && !rj.Restore {
		en.beginExec(now, si, rj)
		return
	}
	en.load(now, si, rj)
}

// load books rj's module load into slot si on the ICAP, or its restore when
// rj carries saved state, and schedules the slot's evLoaded for when the
// transfer is done.
func (en *engine) load(now time.Duration, si int, rj ReadyView) {
	dur := en.loadDur[si]
	if rj.Restore {
		dur = en.restoreDur[si]
	}
	done := en.xfer(now, dur, si)
	en.viewSlots[si] = SlotView{State: SlotLoading, Loaded: -1}
	sl := &en.slots[si]
	sl.cur = rj
	sl.reconfigs++
	en.reconfigs++
	en.schedule(si, done, evLoaded)
}

func (en *engine) beginExec(now time.Duration, si int, rj ReadyView) {
	sl := &en.slots[si]
	sv := &en.viewSlots[si]
	sv.State, sv.Priority = SlotRunning, rj.Priority
	sl.cur = rj
	sl.started = now
	en.schedule(si, now+rj.Remaining, evDone)
}

// preempt evicts the running task: after the capture settle its context is
// saved out through the ICAP, then the preemptor's load queues behind the
// save on the same FIFO. The victim re-enters the ready queue, at its place
// in priority order, with its remaining time and a restore flag.
func (en *engine) preempt(now time.Duration, si int, rj ReadyView) {
	sl := &en.slots[si]
	victim := sl.cur
	executed := now - sl.started
	if executed < 0 {
		executed = 0
	}
	victim.Remaining -= executed
	if victim.Remaining < 0 {
		victim.Remaining = 0
	}
	sl.busy += executed
	en.preemptions++
	metPreemptions.Inc()
	en.xfer(now+DefaultCaptureOverhead, en.saveDur[si], si)
	victim.Restore = true
	en.enqueue(victim)
	// The preemptor's load replaces the victim's pending completion.
	en.load(now, si, rj)
}

func (en *engine) complete(at time.Duration, si int) {
	sl := &en.slots[si]
	job := en.jobs[sl.cur.job]
	sl.busy += at - sl.started
	wait := at - job.Arrival - job.Exec
	if wait < 0 {
		wait = 0
	}
	en.waits = append(en.waits, wait)
	en.waitSum += wait
	en.respSum += at - job.Arrival
	en.completed++
	if at > en.makespan {
		en.makespan = at
	}
	en.viewSlots[si] = SlotView{State: SlotIdle, Loaded: en.viewSlots[si].Loaded}
}

// observe records the run on the process-wide metrics once per run, keeping
// result() a pure function of engine state. The virtual-time histograms take
// the run's wait ledger and transfer list in one batch each, so concurrent
// replays do not contend on them per event.
func (en *engine) observe(wall time.Duration) {
	metWaitTime.ObserveDurations(en.waits)
	metReconfigTime.ObserveDurations(en.xferDurs)
	metRuns.Inc()
	metJobs.Add(int64(en.completed))
	metReconfigs.Add(en.reconfigs)
	metEvents.Add(int64(en.events))
	if wall > 0 && en.events > 0 {
		metEventRate.Set(int64(float64(en.events) / wall.Seconds()))
	}
}

// result summarizes the engine state. It reorders the wait ledger in place
// (selectNth), so observe, which sums the waits in ledger order, runs
// first; repeated calls return identical Results.
func (en *engine) result() Result {
	res := Result{
		Policy:        en.cfg.Policy.Name(),
		Jobs:          len(en.jobs),
		Completed:     en.completed,
		MakespanNS:    int64(en.makespan),
		Reconfigs:     en.reconfigs,
		Preemptions:   en.preemptions,
		ICAPTransfers: en.transfers,
		ICAPBusyNS:    int64(en.icapBusy),
	}
	if en.completed > 0 {
		res.MeanWaitNS = int64(en.waitSum) / int64(en.completed)
		res.MeanResponseNS = int64(en.respSum) / int64(en.completed)
		idx := len(en.waits) * 99 / 100
		if idx >= len(en.waits) {
			idx = len(en.waits) - 1
		}
		selectNth(en.waits, idx)
		res.P99WaitNS = int64(en.waits[idx])
		res.MaxWaitNS = int64(slices.Max(en.waits[idx:]))
	}
	if en.makespan > 0 {
		b := en.icapBusy
		if b > en.makespan {
			b = en.makespan // only reachable on cancellation, with transfers booked past the last completion
		}
		res.ICAPBusy = float64(b) / float64(en.makespan)
		var busy time.Duration
		for i := range en.slots {
			busy += en.slots[i].busy
		}
		res.Utilization = float64(busy) / (float64(en.makespan) * float64(len(en.slots)))
	}
	res.PerSlot = make([]SlotStats, len(en.slots))
	for i := range en.slots {
		res.PerSlot[i] = SlotStats{
			Name:      en.cfg.Platform.PRRs[i].Name,
			BusyNS:    int64(en.slots[i].busy),
			Reconfigs: en.slots[i].reconfigs,
			ICAPNS:    int64(en.slots[i].icap),
		}
	}
	return res
}

// selectNth reorders s so that s[k] holds the value a sort would put there,
// with no larger value before it and no smaller one after it: Hoare
// quickselect on a median-of-three pivot, finishing the range with a sort if
// the partitions stop shrinking.
func selectNth(s []time.Duration, k int) {
	lo, hi := 0, len(s)-1
	for rounds := 2 * bits.Len(uint(len(s))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(s[lo : hi+1])
			return
		}
		m := int(uint(lo+hi) >> 1)
		if s[m] < s[lo] {
			s[m], s[lo] = s[lo], s[m]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[m] {
			s[hi], s[m] = s[m], s[hi]
		}
		p := s[m]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo:j+1] <= p <= s[i:hi+1], and s[j+1:i] all equal p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

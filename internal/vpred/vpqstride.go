package vpred

import (
	"mtvp/internal/config"
	"mtvp/internal/table"
)

// VPQ-stride confidence tuning.
const (
	vpqConfMax   = 32
	vpqConfInc   = 1
	vpqConfDec   = 8
	vpqThreshold = 12
)

// svpEntry is one PC-tagged stride value predictor entry: last retired
// value, stride, and a saturating confidence counter.
type svpEntry struct {
	pc     uint64
	last   uint64
	stride int64
	conf   int
	valid  bool
}

// vpqSlot is one value prediction queue slot. A slot is enqueued by Lookup
// when a prediction is issued for an in-flight load and retired (tombstoned)
// by Train when a load of the same PC commits.
type vpqSlot struct {
	pc   uint64
	live bool
}

// VPQStride is a retire-trained stride predictor with an explicit value
// prediction queue, after the 721sim SVP/VPQ design: the SVP table is only
// trained at retirement, so predictions for loads whose earlier dynamic
// instances are still in flight must extrapolate — the VPQ (a phase-bit
// ring) tracks those in-flight instances, and Lookup predicts
// last + stride * (inflight + 1).
//
// Speculative threads may Lookup loads that are later squashed and never
// trained; those orphan VPQ slots are reclaimed FIFO-style — Train retires
// the oldest live instance of its PC, and a full queue drops its oldest
// slot — so the queue's contents stay a deterministic function of the
// lookup/train history.
type VPQStride struct {
	table table.Paged[svpEntry]
	queue []vpqSlot

	head, tail           int
	headPhase, tailPhase bool
}

// NewVPQStride builds the predictor from its configured sizing.
func NewVPQStride(p config.VPQStrideParams) *VPQStride {
	return &VPQStride{
		table: table.New[svpEntry](p.TableEntries),
		queue: make([]vpqSlot, p.QueueEntries),
	}
}

func (v *VPQStride) index(pc uint64) int {
	return int(pc % uint64(v.table.Len()))
}

// Phase-bit ring primitives: head == tail with equal phase bits means
// empty, with opposite phase bits means full.

func (v *VPQStride) empty() bool { return v.head == v.tail && v.headPhase == v.tailPhase }
func (v *VPQStride) full() bool  { return v.head == v.tail && v.headPhase != v.tailPhase }

func (v *VPQStride) push(pc uint64) {
	if v.full() {
		v.pop() // drop the oldest instance (an orphan or a stale one)
	}
	v.queue[v.tail] = vpqSlot{pc: pc, live: true}
	v.tail++
	if v.tail == len(v.queue) {
		v.tail = 0
		v.tailPhase = !v.tailPhase
	}
}

func (v *VPQStride) pop() {
	v.head++
	if v.head == len(v.queue) {
		v.head = 0
		v.headPhase = !v.headPhase
	}
}

// occupancy returns the number of slots between head and tail (live or
// tombstoned).
func (v *VPQStride) occupancy() int {
	if v.head == v.tail {
		if v.headPhase == v.tailPhase {
			return 0
		}
		return len(v.queue)
	}
	d := v.tail - v.head
	if d < 0 {
		d += len(v.queue)
	}
	return d
}

// inflight counts live queued instances of pc.
func (v *VPQStride) inflight(pc uint64) int {
	n := 0
	for i, left := v.head, v.occupancy(); left > 0; left-- {
		if s := &v.queue[i]; s.live && s.pc == pc {
			n++
		}
		if i++; i == len(v.queue) {
			i = 0
		}
	}
	return n
}

// retire tombstones the oldest live instance of pc, then drains any dead
// slots now at the head so the ring keeps its capacity available.
func (v *VPQStride) retire(pc uint64) {
	for i, left := v.head, v.occupancy(); left > 0; left-- {
		if s := &v.queue[i]; s.live && s.pc == pc {
			s.live = false
			break
		}
		if i++; i == len(v.queue) {
			i = 0
		}
	}
	for !v.empty() && !v.queue[v.head].live {
		v.pop()
	}
}

// Lookup implements Predictor. The actual value is ignored. A tag hit
// enqueues one VPQ instance for the in-flight load it predicts.
func (v *VPQStride) Lookup(pc, _ uint64) Prediction {
	e := v.table.Peek(v.index(pc))
	if e == nil || !e.valid || e.pc != pc {
		return Prediction{}
	}
	n := v.inflight(pc)
	v.push(pc)
	return Prediction{
		Valid:     true,
		Value:     uint64(int64(e.last) + e.stride*int64(n+1)),
		Conf:      e.conf,
		Confident: e.conf >= vpqThreshold,
	}
}

// Train implements Predictor: called at retirement, it first retires the
// load's VPQ instance, then trains or replaces the SVP entry.
func (v *VPQStride) Train(pc, actual uint64) {
	v.retire(pc)
	e := v.table.At(v.index(pc))
	if !e.valid || e.pc != pc {
		*e = svpEntry{pc: pc, last: actual, valid: true}
		return
	}
	stride := int64(actual) - int64(e.last)
	if stride == e.stride {
		if e.conf < vpqConfMax {
			e.conf += vpqConfInc
		}
	} else {
		e.conf -= vpqConfDec
		if e.conf <= 0 {
			// Only adopt the new stride once confidence in the old one is
			// exhausted (replacement hysteresis, per the exemplar design).
			e.conf = 0
			e.stride = stride
		}
	}
	e.last = actual
}

// Footprint implements Sizer: SVP entries plus VPQ slots.
func (v *VPQStride) Footprint() int { return v.table.Len() + len(v.queue) }

var _ Predictor = (*VPQStride)(nil)

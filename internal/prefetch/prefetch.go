// Package prefetch implements the PC-based stride prefetcher of Table 1: a
// 256-entry PC-indexed stride table that allocates up to 8 stream buffers.
// Training happens on L1 demand misses in issue order, so loads issuing out
// of order can mistrain a stream — the prefetcher/value-prediction
// interaction the paper highlights in §5.1.
package prefetch

import "mtvp/internal/config"

// Stream-buffer depth and allocation threshold. Table 1 gives the table and
// stream-buffer counts but not these, and no experiment varies them, so
// they are constants of the modelled machine.
const (
	bufferDepth   = 4 // lines each stream buffer runs ahead
	minConfidence = 2 // stride repeats required before allocating a stream
)

type tableEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int
	valid    bool
}

type stream struct {
	valid   bool
	pc      uint64
	stride  int64            // line-granular advance, in bytes
	next    uint64           // next line address to prefetch
	pending int              // prefetches this stream still wants issued
	lines   map[uint64]int64 // prefetched line → ready cycle
	used    uint64           // LRU tick
}

// Prefetcher is the stride table plus its stream buffers.
type Prefetcher struct {
	lineBytes int
	table     []tableEntry
	streams   []stream
	issued    map[uint64]int // line → stream index awaiting Complete
	tick      uint64
}

// New returns a prefetcher sized by p for the given cache line size.
func New(p config.PrefetchParams, lineBytes int) *Prefetcher {
	pf := &Prefetcher{
		lineBytes: lineBytes,
		table:     make([]tableEntry, p.Entries),
		streams:   make([]stream, p.StreamBuffers),
		issued:    make(map[uint64]int),
	}
	return pf
}

func (pf *Prefetcher) lineAlign(addr uint64) uint64 {
	return addr &^ uint64(pf.lineBytes-1)
}

// Train observes a demand load (pc, addr) that missed the L1 at cycle now.
// A stable stride allocates or redirects a stream buffer for that PC.
func (pf *Prefetcher) Train(pc, addr uint64, now int64) {
	e := &pf.table[pc%uint64(len(pf.table))]
	if !e.valid || e.pc != pc {
		*e = tableEntry{pc: pc, lastAddr: addr, valid: true}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride == e.stride {
		if e.conf < 1<<20 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 1
	}
	if e.conf >= minConfidence {
		pf.allocate(pc, addr, stride)
	}
}

// allocate points a stream buffer at the run following addr. An existing
// stream for the same PC is redirected only if the new start has run past
// it; otherwise it keeps streaming.
func (pf *Prefetcher) allocate(pc, addr uint64, stride int64) {
	adv := stride
	if adv > 0 && adv < int64(pf.lineBytes) {
		adv = int64(pf.lineBytes)
	} else if adv < 0 && -adv < int64(pf.lineBytes) {
		adv = -int64(pf.lineBytes)
	}
	next := pf.lineAlign(uint64(int64(addr) + adv))

	victim := -1
	for i := range pf.streams {
		s := &pf.streams[i]
		if s.valid && s.pc == pc {
			if s.stride == adv {
				// Still tracking the demand point? Leave it alone.
				// If the access pattern jumped elsewhere (a plane
				// boundary), fall through and redirect the stream.
				diff := abs64(int64(next) - int64(s.next))
				if diff <= abs64(adv)*(bufferDepth+2) {
					return
				}
			}
			victim = i // redirect this PC's stream
			break
		}
	}
	if victim == -1 {
		for i := range pf.streams {
			s := &pf.streams[i]
			if !s.valid {
				victim = i
				break
			}
			if victim == -1 || s.used < pf.streams[victim].used {
				victim = i
			}
		}
	}
	pf.tick++
	pf.streams[victim] = stream{
		valid:   true,
		pc:      pc,
		stride:  adv,
		next:    next,
		pending: bufferDepth,
		lines:   make(map[uint64]int64),
		used:    pf.tick,
	}
}

// Demand checks the stream buffers for lineAddr. On a hit the line moves to
// the cache (the caller fills it) and the stream advances by one more line.
func (pf *Prefetcher) Demand(lineAddr uint64, now int64) (int64, bool) {
	for i := range pf.streams {
		s := &pf.streams[i]
		if !s.valid {
			continue
		}
		if ready, ok := s.lines[lineAddr]; ok {
			delete(s.lines, lineAddr)
			pf.tick++
			s.used = pf.tick
			s.pending++
			return ready, true
		}
	}
	return 0, false
}

// Probe reports whether lineAddr is (or will be) in any stream buffer,
// without side effects.
func (pf *Prefetcher) Probe(lineAddr uint64) bool {
	for i := range pf.streams {
		s := &pf.streams[i]
		if !s.valid {
			continue
		}
		if _, ok := s.lines[lineAddr]; ok {
			return true
		}
		if _, ok := pf.issued[lineAddr]; ok {
			return true
		}
	}
	return false
}

// NextPrefetch returns the next line address a stream buffer wants fetched,
// or ok=false when no stream has work. The caller must invoke Complete with
// the supplying level's ready cycle.
func (pf *Prefetcher) NextPrefetch() (uint64, bool) {
	for i := range pf.streams {
		s := &pf.streams[i]
		if !s.valid || s.pending <= 0 {
			continue
		}
		if len(s.lines)+pf.pendingFor(i) >= bufferDepth {
			s.pending = 0
			continue
		}
		la := s.next
		if _, dup := pf.issued[la]; dup {
			s.next = uint64(int64(s.next) + s.stride)
			continue
		}
		s.next = uint64(int64(s.next) + s.stride)
		s.pending--
		pf.issued[la] = i
		return la, true
	}
	return 0, false
}

func (pf *Prefetcher) pendingFor(idx int) int {
	n := 0
	for _, i := range pf.issued {
		if i == idx {
			n++
		}
	}
	return n
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Complete records that the prefetch of lineAddr will finish at ready.
func (pf *Prefetcher) Complete(lineAddr uint64, ready int64) {
	idx, ok := pf.issued[lineAddr]
	if !ok {
		return
	}
	delete(pf.issued, lineAddr)
	s := &pf.streams[idx]
	if s.valid {
		s.lines[lineAddr] = ready
	}
}

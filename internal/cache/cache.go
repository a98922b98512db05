// Package cache models the simulator's memory hierarchy: a split L1, a
// unified L2 and L3, and main memory, with the latencies of Table 1.
//
// Each installed line carries the cycle its data actually arrives, so a hit
// to a line whose fill is still in flight waits for the fill — which is
// also how outstanding misses to the same line merge (MSHR behaviour).
// Demand misses consult the stream buffers of the stride prefetcher before
// paying the full miss penalty.
package cache

import (
	"mtvp/internal/config"
	"mtvp/internal/prefetch"
	"mtvp/internal/stats"
	"mtvp/internal/table"
)

// HitLevel identifies where an access was satisfied.
type HitLevel int

// Levels an access can be satisfied at, from fastest to slowest.
const (
	HitL1 HitLevel = iota + 1
	HitStream
	HitL2
	HitL3
	HitMem
)

func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitStream:
		return "stream"
	case HitL2:
		return "L2"
	case HitL3:
		return "L3"
	default:
		return "mem"
	}
}

type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU tick
	ready int64  // cycle the line's data arrives (fill completion)
}

type level struct {
	cp       config.CacheParams
	lines    table.Paged[line]
	setMask  uint64
	lineBits uint
	tick     uint64
}

func newLevel(cp config.CacheParams) *level {
	sets := cp.Sets()
	lb := uint(0)
	for 1<<lb < cp.LineBytes {
		lb++
	}
	return &level{
		cp:       cp,
		lines:    table.NewSets[line](sets, cp.Assoc),
		setMask:  uint64(sets - 1),
		lineBits: lb,
	}
}

func (l *level) setIndex(addr uint64) int { return int((addr >> l.lineBits) & l.setMask) }

// set returns the ways of the set addr maps to, or nil when no line of the
// set's page was ever filled: every lookup there misses.
func (l *level) set(addr uint64) []line { return l.lines.PeekSet(l.setIndex(addr)) }

func (l *level) tag(addr uint64) uint64 { return addr >> l.lineBits }

// lookup checks set, addr's set as returned by l.set, for addr, updating
// LRU on a hit. It returns the cycle the hit's data is available given an
// access at cycle now: at least the access latency, later if the line's
// fill is still in flight.
func (l *level) lookup(set []line, addr uint64, now int64) (int64, bool) {
	tag := l.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			l.tick++
			set[i].used = l.tick
			avail := now + int64(l.cp.Latency)
			if set[i].ready > avail {
				avail = set[i].ready
			}
			return avail, true
		}
	}
	return 0, false
}

// probe checks for addr without disturbing LRU state (oracle queries). It
// reports presence regardless of whether the fill has landed.
func (l *level) probe(addr uint64) bool {
	set, tag := l.set(addr), l.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// fill installs addr's line with data arriving at ready, evicting the LRU
// way. A line already present keeps the earlier of the two ready times.
// set is addr's set from an earlier l.set, or nil to find it here; a set
// whose page was never written is allocated.
func (l *level) fill(set []line, addr uint64, ready int64) {
	if set == nil {
		set = l.lines.AtSet(l.setIndex(addr))
	}
	tag := l.tag(addr)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if ready < set[i].ready {
				set[i].ready = ready
			}
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	l.tick++
	set[victim] = line{tag: tag, valid: true, used: l.tick, ready: ready}
}

// Hierarchy is the full data-side memory system plus the instruction cache.
type Hierarchy struct {
	icache *level
	dl1    *level
	l2     *level
	l3     *level
	memLat int

	pref *prefetch.Prefetcher // nil when disabled

	st *stats.Stats
}

// NewHierarchy builds the hierarchy from cfg, attaching st for counters.
// The prefetcher is created internally when cfg.Prefetch.Enabled.
func NewHierarchy(cfg *config.Config, st *stats.Stats) *Hierarchy {
	h := &Hierarchy{
		icache: newLevel(cfg.ICache),
		dl1:    newLevel(cfg.DL1),
		l2:     newLevel(cfg.L2),
		l3:     newLevel(cfg.L3),
		memLat: cfg.MemLatency,
		st:     st,
	}
	if cfg.Prefetch.Enabled {
		h.pref = prefetch.New(cfg.Prefetch, cfg.DL1.LineBytes)
	}
	return h
}

func (h *Hierarchy) lineAddr(addr uint64) uint64 {
	return addr &^ uint64(h.dl1.cp.LineBytes-1)
}

// Load performs a demand data load for pc at addr starting at cycle now.
// It returns the cycle the data is available and the level that supplied it.
// The stride prefetcher is trained on every L1 miss, in issue order — so
// out-of-order issue can mistrain it, the interaction §5.1 describes.
func (h *Hierarchy) Load(pc, addr uint64, now int64) (int64, HitLevel) {
	h.st.Loads++
	d1 := h.dl1.set(addr)
	if avail, ok := h.dl1.lookup(d1, addr, now); ok {
		return avail, HitL1
	}
	h.st.DL1Miss++

	// Demand miss: train the prefetcher and probe the stream buffers.
	if h.pref != nil {
		if ready, ok := h.pref.Demand(h.lineAddr(addr), now); ok {
			h.st.PrefHits++
			if n := now + int64(h.dl1.cp.Latency); n > ready {
				ready = n
			}
			h.dl1.fill(d1, addr, ready)
			h.l2.fill(nil, addr, ready)
			h.streamAdvance(now)
			h.pref.Train(pc, addr, now)
			return ready, HitStream
		}
		h.pref.Train(pc, addr, now)
		h.streamAdvance(now)
	}

	s2 := h.l2.set(addr)
	if avail, ok := h.l2.lookup(s2, addr, now); ok {
		h.dl1.fill(d1, addr, avail)
		return avail, HitL2
	}
	h.st.L2Miss++
	s3 := h.l3.set(addr)
	if avail, ok := h.l3.lookup(s3, addr, now); ok {
		h.dl1.fill(d1, addr, avail)
		h.l2.fill(s2, addr, avail)
		return avail, HitL3
	}
	h.st.L3Miss++
	ready := now + int64(h.memLat)
	h.dl1.fill(d1, addr, ready)
	h.l2.fill(s2, addr, ready)
	h.l3.fill(s3, addr, ready)
	return ready, HitMem
}

// streamAdvance launches the prefetches the stream buffers want, charging
// each the latency of the level that supplies it. Prefetched data lives in
// the stream buffer only — a buffer evicted before its lines are consumed
// wastes them, which is what makes more concurrent streams than buffers
// (swim's nine grids against eight buffers) expensive.
func (h *Hierarchy) streamAdvance(now int64) {
	for {
		la, ok := h.pref.NextPrefetch()
		if !ok {
			return
		}
		h.st.PrefIssued++
		ready, ok := h.l2.lookup(h.l2.set(la), la, now)
		if !ok {
			ready, ok = h.l3.lookup(h.l3.set(la), la, now)
		}
		if !ok {
			ready = now + int64(h.memLat)
		}
		h.pref.Complete(la, ready)
	}
}

// Store notifies the hierarchy of a committed store (write-allocate into the
// L1; stores are not on the load critical path, so no latency is returned).
func (h *Hierarchy) Store(addr uint64) {
	h.st.Stores++
	d1 := h.dl1.set(addr)
	if _, ok := h.dl1.lookup(d1, addr, 0); !ok {
		h.dl1.fill(d1, addr, 0)
	}
}

// InstFetch models an instruction-cache access for the line at addr and
// returns the cycle the instructions are available.
func (h *Hierarchy) InstFetch(addr uint64, now int64) int64 {
	si := h.icache.set(addr)
	if avail, ok := h.icache.lookup(si, addr, now); ok {
		return avail
	}
	var ready int64
	s2, s3 := h.l2.set(addr), h.l3.set(addr)
	if avail, ok := h.l2.lookup(s2, addr, now); ok {
		ready = avail
	} else if avail, ok := h.l3.lookup(s3, addr, now); ok {
		ready = avail
		h.l2.fill(s2, addr, ready)
	} else {
		ready = now + int64(h.memLat)
		h.l2.fill(s2, addr, ready)
		h.l3.fill(s3, addr, ready)
	}
	h.icache.fill(si, addr, ready)
	return ready
}

// ProbeLevel reports, without side effects, the level a load to addr would
// hit. The L3-miss-oracle criticality predictor uses it.
func (h *Hierarchy) ProbeLevel(addr uint64) HitLevel {
	switch {
	case h.dl1.probe(addr):
		return HitL1
	case h.pref != nil && h.pref.Probe(h.lineAddr(addr)):
		return HitStream
	case h.l2.probe(addr):
		return HitL2
	case h.l3.probe(addr):
		return HitL3
	default:
		return HitMem
	}
}

// Package chaos is a deterministic, seeded fault-injecting network layer
// for exercising the sweep fabric under hostile conditions: dropped
// requests, added latency, request reordering, duplicate delivery, and
// truncated or bit-corrupted response bodies.
//
// It mirrors internal/fault's injector idiom one layer down the stack: the
// fault classes the simulated machine survives (flipped bits, lost
// messages, stalls) are the same classes the fabric's network must
// survive, and both draw their schedules from the same seeded splitmix64
// stream (fault.Dice). A chaos run is an experiment, not a dice roll: the
// same seed and profile against the same request sequence produces the
// same fault schedule, so a fabric failure under chaos is reproducible
// from its seed.
//
// Only tests use it, in two shapes:
//
//   - Transport wraps an http.RoundTripper, injecting faults inside one
//     process.
//   - Proxy is a listening reverse proxy built on Transport, for putting a
//     lossy network between a test's workers and its coordinator.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mtvp/internal/fault"
)

// Kind is one injectable network fault class.
type Kind int

// Network fault kinds, in the fixed per-request roll order. The order is
// part of the determinism contract: every request rolls each armed kind
// exactly once, in this order, so the schedule is a pure function of
// (seed, profile, request sequence).
const (
	// KindReorder holds the request before sending so that later requests
	// overtake it — delivery reordering.
	KindReorder Kind = iota
	// KindDrop discards the request entirely; the caller sees a transport
	// error, as from a lost packet or reset connection.
	KindDrop
	// KindDelay adds seeded latency before the response is returned.
	KindDelay
	// KindDuplicate delivers the request twice; the server must dedup
	// (lease idempotency, result first-wins).
	KindDuplicate
	// KindTruncate cuts the response body short at a seeded offset — a torn
	// read.
	KindTruncate
	// KindCorrupt flips one seeded bit in the response body.
	KindCorrupt

	// NumKinds is the number of fault kinds (for counts arrays).
	NumKinds int = iota
)

// String names a fault kind.
func (k Kind) String() string {
	switch k {
	case KindReorder:
		return "reorder"
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindDuplicate:
		return "duplicate"
	case KindTruncate:
		return "truncate"
	case KindCorrupt:
		return "corrupt"
	}
	return "kind?"
}

// Profile is a set of per-request fault rates in parts-per-million, plus
// the latency band for delays and holds. The zero value injects nothing.
type Profile struct {
	Name string

	Reorder   uint32 // ppm: hold the request so later ones overtake
	Drop      uint32 // ppm: discard the request (transport error)
	Delay     uint32 // ppm: add latency to the response
	Duplicate uint32 // ppm: deliver the request twice
	Truncate  uint32 // ppm: cut the response body short
	Corrupt   uint32 // ppm: flip one bit in the response body

	// DelayMin/DelayMax bound injected latency and reorder holds (defaults
	// 5ms..50ms when a delay or reorder rate is armed).
	DelayMin, DelayMax time.Duration

	// PerRoute overrides the profile for requests whose URL path starts
	// with the key (longest prefix wins). Override profiles' PerRoute maps
	// are ignored — one level of routing is enough.
	PerRoute map[string]Profile
}

// rate returns the ppm rate for kind.
func (p Profile) rate(k Kind) uint32 {
	switch k {
	case KindReorder:
		return p.Reorder
	case KindDrop:
		return p.Drop
	case KindDelay:
		return p.Delay
	case KindDuplicate:
		return p.Duplicate
	case KindTruncate:
		return p.Truncate
	case KindCorrupt:
		return p.Corrupt
	}
	return 0
}

func (p Profile) delayBand() (time.Duration, time.Duration) {
	lo, hi := p.DelayMin, p.DelayMax
	if lo <= 0 {
		lo = 5 * time.Millisecond
	}
	if hi <= lo {
		hi = 50 * time.Millisecond
		if hi <= lo {
			hi = lo * 10
		}
	}
	return lo, hi
}

// Profiles returns the built-in chaos profiles, mild to vicious.
func Profiles() []Profile {
	return []Profile{
		{
			// lossy: the fabric's bread-and-butter hostile network — drops,
			// latency, duplicates. No payload damage.
			Name: "lossy",
			Drop: 20_000, Delay: 50_000, Duplicate: 10_000, Reorder: 10_000,
		},
		{
			// flaky-wire: payload damage — truncated and bit-flipped
			// responses — at rates that exercise every decode path.
			Name:     "flaky-wire",
			Truncate: 20_000, Corrupt: 20_000, Delay: 20_000,
		},
		{
			// monsoon-net: everything at once, hard. The network analogue of
			// the fault package's "monsoon" machine profile.
			Name:    "monsoon-net",
			Reorder: 30_000, Drop: 50_000, Delay: 100_000, Duplicate: 30_000,
			Truncate: 30_000, Corrupt: 30_000,
		},
	}
}

// ByName finds a built-in profile.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Event is one injected fault, reported to the OnFault hook.
type Event struct {
	// Seq is the 1-based request sequence number the fault fired on.
	Seq uint64
	// Route is the request's URL path.
	Route string
	// Kind is the injected fault class.
	Kind Kind
}

// Transport is a fault-injecting http.RoundTripper. Faults are rolled
// per-request from a seeded stream under a mutex, so a sequential request
// stream sees a fully deterministic schedule (concurrent streams are
// deterministic in aggregate rates but race for roll order, like a real
// network).
type Transport struct {
	// Base performs the real round trips (nil selects
	// http.DefaultTransport).
	Base http.RoundTripper
	// OnFault, when non-nil, observes every injected fault (test hook; also
	// handy for logging a chaos run's schedule). Called synchronously, in
	// roll order, before the fault takes effect.
	OnFault func(Event)
	// Sleep replaces time.Sleep for delay/reorder holds (tests make chaos
	// schedules instantaneous while keeping the roll stream identical).
	Sleep func(time.Duration)

	prof Profile

	mu     sync.Mutex
	dice   [NumKinds]*fault.Dice
	seq    uint64
	counts [NumKinds]uint64
}

// New builds a transport injecting prof's faults from seeded streams. Each
// fault kind rolls from its own stream (derived from seed), so one kind's
// schedule is a pure function of (seed, rate, request sequence) — arming
// or disarming other kinds never shifts it.
func New(prof Profile, seed uint64) *Transport {
	t := &Transport{prof: prof}
	for k := range t.dice {
		t.dice[k] = fault.NewDice(seed ^ uint64(k+1)*0x9e3779b97f4a7c15)
	}
	return t
}

// Counts returns how many faults of each kind have been injected.
func (t *Transport) Counts() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]uint64{}
	for k := 0; k < NumKinds; k++ {
		if t.counts[k] > 0 {
			out[Kind(k).String()] = t.counts[k]
		}
	}
	return out
}

// profileFor resolves the per-route override (longest matching path
// prefix) or the base profile.
func (t *Transport) profileFor(path string) Profile {
	best, bestLen := t.prof, -1
	for prefix, p := range t.prof.PerRoute {
		if len(prefix) > bestLen && strings.HasPrefix(path, prefix) {
			best, bestLen = p, len(prefix)
		}
	}
	return best
}

// schedule holds one request's rolled fault decisions.
type schedule struct {
	seq            uint64
	fire           [NumKinds]bool
	delay, reorder time.Duration
	truncAt        uint64 // raw draw; reduced mod body length at apply time
	corruptBit     uint64
}

// roll draws one request's schedule. Every armed kind consumes exactly one
// draw from its own stream (plus one for its latency band / damage
// offset), in fixed order, regardless of which faults fire — so a kind's
// schedule after N requests depends only on (seed, rate, N): neither other
// kinds being armed nor earlier faults firing can shift it.
func (t *Transport) roll(p Profile) schedule {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	s := schedule{seq: t.seq}
	lo, hi := p.delayBand()
	for k := 0; k < NumKinds; k++ {
		kind := Kind(k)
		rate := p.rate(kind)
		if rate == 0 {
			continue // disarmed kinds consume no randomness (Dice contract)
		}
		dice := t.dice[k]
		s.fire[k] = dice.Roll(rate)
		// Draw the fault's parameter unconditionally-when-armed, so firing
		// or not firing never shifts the stream for later requests.
		switch kind {
		case KindReorder:
			s.reorder = lo + time.Duration(dice.Rand64()%uint64(hi-lo))
		case KindDelay:
			s.delay = lo + time.Duration(dice.Rand64()%uint64(hi-lo))
		case KindTruncate:
			s.truncAt = dice.Rand64()
		case KindCorrupt:
			s.corruptBit = dice.Rand64()
		}
		if s.fire[k] {
			t.counts[k]++
		}
	}
	return s
}

func (t *Transport) emit(s schedule, route string, k Kind) {
	if t.OnFault != nil {
		t.OnFault(Event{Seq: s.seq, Route: route, Kind: k})
	}
}

func (t *Transport) sleep(d time.Duration) {
	if t.Sleep != nil {
		t.Sleep(d)
		return
	}
	time.Sleep(d)
}

// RoundTrip injects the rolled faults around the base round trip.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	route := req.URL.Path
	s := t.roll(t.profileFor(route))

	if s.fire[KindReorder] {
		// Hold the request so requests issued after this one overtake it.
		t.emit(s, route, KindReorder)
		t.sleep(s.reorder)
	}
	if s.fire[KindDrop] {
		t.emit(s, route, KindDrop)
		return nil, fmt.Errorf("chaos: dropped %s %s (seq %d)", req.Method, route, s.seq)
	}
	if s.fire[KindDuplicate] && req.GetBody != nil {
		// Deliver the request an extra time first; the caller sees only the
		// second delivery's response. The server must tolerate both.
		t.emit(s, route, KindDuplicate)
		if dup := req.Clone(req.Context()); dup != nil {
			if body, err := req.GetBody(); err == nil {
				dup.Body = body
				if resp, err := base.RoundTrip(dup); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}

	resp, err := base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if s.fire[KindDelay] {
		t.emit(s, route, KindDelay)
		t.sleep(s.delay)
	}
	if s.fire[KindTruncate] || s.fire[KindCorrupt] {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if s.fire[KindTruncate] && len(body) > 0 {
			t.emit(s, route, KindTruncate)
			body = body[:s.truncAt%uint64(len(body))]
		}
		if s.fire[KindCorrupt] && len(body) > 0 {
			t.emit(s, route, KindCorrupt)
			bit := s.corruptBit % uint64(len(body)*8)
			body[bit/8] ^= 1 << (bit % 8)
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

// FormatCounts renders a transport's fault counts as a stable one-line
// summary ("corrupt=3 drop=7"), for logs and CI assertions.
func FormatCounts(counts map[string]uint64) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, counts[k])
	}
	return b.String()
}

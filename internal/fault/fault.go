// Package fault is the simulator's robustness layer: deterministic fault
// injection that exercises the speculation machinery's failure paths, and the
// state machines the pipeline's recovery controller is built from — bounded
// deadlock-break retry with exponential backoff (Backoff), per-context
// misprediction-storm quarantine (Quarantine), and the graceful-degradation
// ladder that steps MTVP down to STVP and then to the non-speculative
// baseline (Ladder).
//
// Injected faults are microarchitectural, never architectural: they corrupt
// speculation metadata (predictions, spawn events), timing state (store-queue
// entries, completion latencies, issue slots), or resource bookkeeping — the
// classes of state the engine's recovery machinery is supposed to survive.
// A checked run under any built-in profile must therefore either recover to
// an oracle-clean finish or abort with a structured Report; it must never
// hang and never commit a wrong value silently.
package fault

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault classes, one per speculation-machinery failure path.
const (
	// PredBitFlip flips one random bit of a predicted load value (a value
	// table soft error). The prediction is followed as usual and caught by
	// the normal verify-at-resolve path.
	PredBitFlip Kind = iota
	// PredAlias garbles the PC used to index the value predictor (an
	// aliasing storm): the prediction and confidence come from someone
	// else's entry.
	PredAlias
	// StoreDrop loses a store's timing-level store-buffer entry: no
	// forwarding, no drain traffic (functional state is unaffected).
	StoreDrop
	// StoreCorrupt corrupts the address tag of a store-buffer entry, so
	// forwarding matches and drain traffic hit the wrong line.
	StoreCorrupt
	// SpawnLost drops an MTVP spawn event in flight: no child is created
	// and the parent proceeds as if the selector had declined.
	SpawnLost
	// SpawnDup duplicates a spawn event: a second child chases the same
	// predicted value and must be killed at confirmation.
	SpawnDup
	// MemDelay adds a large extra latency to a load's completion (a
	// memory-system hiccup).
	MemDelay
	// IQStick wedges an issue-queue slot: the dispatched instruction
	// refuses to issue for StickCycles, far past the commit watchdog.
	IQStick
	// NumKinds is the number of fault classes.
	NumKinds
)

var kindNames = [NumKinds]string{
	PredBitFlip:  "pred-bitflip",
	PredAlias:    "pred-alias",
	StoreDrop:    "store-drop",
	StoreCorrupt: "store-corrupt",
	SpawnLost:    "spawn-lost",
	SpawnDup:     "spawn-dup",
	MemDelay:     "mem-delay",
	IQStick:      "iq-stick",
}

// String returns the fault class name.
func (k Kind) String() string {
	if k >= 0 && k < NumKinds {
		return kindNames[k]
	}
	return "fault?"
}

// Profile is a composable fault profile: an injection rate per fault class,
// in occurrences per million opportunities, plus the payload parameters the
// timed fault classes need.
type Profile struct {
	Name  string
	Rates [NumKinds]uint32 // parts per million, per opportunity

	// MemDelayCycles is the extra completion latency of one injected
	// memory delay.
	MemDelayCycles int
	// StickCycles is how long an injected stuck issue-queue slot refuses
	// to issue. Built-in profiles size this past the commit watchdog so
	// the recovery controller, not the scheduler, must clear it.
	StickCycles int
}

// Empty reports whether the profile injects nothing.
func (p Profile) Empty() bool {
	for _, r := range p.Rates {
		if r != 0 {
			return false
		}
	}
	return true
}

// Profiles returns the built-in fault profiles, each stressing one failure
// path (plus "monsoon", which composes them all). Every profile is part of
// the fault-campaign acceptance matrix: under -check it must recover to an
// oracle-clean finish or abort with a structured Report.
func Profiles() []Profile {
	return []Profile{
		{
			Name:  "pred-flip",
			Rates: [NumKinds]uint32{PredBitFlip: 30_000},
		},
		{
			Name:  "pred-chaos",
			Rates: [NumKinds]uint32{PredBitFlip: 400_000, PredAlias: 100_000},
		},
		{
			Name:  "pred-alias",
			Rates: [NumKinds]uint32{PredAlias: 150_000},
		},
		{
			Name:  "storebuf-rot",
			Rates: [NumKinds]uint32{StoreDrop: 8_000, StoreCorrupt: 8_000},
		},
		{
			Name:  "spawn-storm",
			Rates: [NumKinds]uint32{SpawnLost: 150_000, SpawnDup: 150_000},
		},
		{
			Name:           "mem-jitter",
			Rates:          [NumKinds]uint32{MemDelay: 10_000},
			MemDelayCycles: 2_000,
		},
		{
			Name:        "stuck-iq",
			Rates:       [NumKinds]uint32{IQStick: 300},
			StickCycles: 120_000,
		},
		{
			Name:        "stuck-iq-storm",
			Rates:       [NumKinds]uint32{IQStick: 15_000},
			StickCycles: 80_000,
		},
		{
			Name: "monsoon",
			Rates: [NumKinds]uint32{
				PredBitFlip: 20_000, PredAlias: 20_000,
				StoreDrop: 2_000, StoreCorrupt: 2_000,
				SpawnLost: 50_000, SpawnDup: 50_000,
				MemDelay: 5_000, IQStick: 150,
			},
			MemDelayCycles: 1_000,
			StickCycles:    90_000,
		},
	}
}

// ByName resolves a built-in profile. The empty string and "none" name the
// empty profile (no injection).
func ByName(name string) (Profile, error) {
	if name == "" || name == "none" {
		return Profile{Name: "none"}, nil
	}
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("fault: unknown profile %q (built-ins: %s)",
		name, strings.Join(names, ", "))
}

// Dice is the injector's seeded randomness source on its own: one
// splitmix64 stream rolling parts-per-million chances, exactly reproducible
// from the seed. It exists as a separate type because the fabric reuses the
// same idiom away from the simulator — poll jitter and the chaos network
// harness roll the same dice the fault injector does. A nil *Dice never
// fires.
type Dice struct {
	rng uint64
}

// NewDice builds a seeded dice stream (seed 0 selects a fixed default).
func NewDice(seed uint64) *Dice {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Dice{rng: seed}
}

// next advances the splitmix64 stream.
func (d *Dice) next() uint64 {
	d.rng += 0x9e3779b97f4a7c15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Roll rolls one ppm-rated chance. A zero rate consumes no randomness, so
// an unarmed site does not perturb the stream of an armed one.
func (d *Dice) Roll(ppm uint32) bool {
	if d == nil || ppm == 0 {
		return false
	}
	return d.next()%1_000_000 < uint64(ppm)
}

// Rand64 returns deterministic payload randomness from the same stream.
func (d *Dice) Rand64() uint64 {
	if d == nil {
		return 0
	}
	return d.next()
}

// Injector rolls deterministic dice at each injection opportunity. One
// seeded splitmix64 stream drives every site, so a run is exactly
// reproducible from (profile, seed). A nil *Injector never fires, letting
// call sites stay unconditional.
type Injector struct {
	prof   Profile
	dice   Dice
	counts [NumKinds]uint64
}

// NewInjector builds an injector for the profile over the given seed.
func NewInjector(p Profile, seed uint64) *Injector {
	return &Injector{prof: p, dice: *NewDice(seed)}
}

// Fire rolls one injection opportunity for fault class k, counting hits.
// Classes with a zero rate consume no randomness, so enabling one fault
// class does not perturb another's stream.
func (i *Injector) Fire(k Kind) bool {
	if i == nil {
		return false
	}
	if !i.dice.Roll(i.prof.Rates[k]) {
		return false
	}
	i.counts[k]++
	return true
}

// Rand64 returns deterministic payload randomness (bit positions, address
// perturbations) from the same stream.
func (i *Injector) Rand64() uint64 {
	if i == nil {
		return 0
	}
	return i.dice.Rand64()
}

// Profile returns the injector's profile (the zero Profile for nil).
func (i *Injector) Profile() Profile {
	if i == nil {
		return Profile{}
	}
	return i.prof
}

// Count returns how many faults of class k have been injected.
func (i *Injector) Count(k Kind) uint64 {
	if i == nil {
		return 0
	}
	return i.counts[k]
}

// Total returns the total number of injected faults.
func (i *Injector) Total() uint64 {
	if i == nil {
		return 0
	}
	var n uint64
	for _, c := range i.counts {
		n += c
	}
	return n
}

// Counts returns the nonzero per-class injection counts by class name.
func (i *Injector) Counts() map[string]uint64 {
	if i == nil {
		return nil
	}
	out := make(map[string]uint64)
	for k := Kind(0); k < NumKinds; k++ {
		if i.counts[k] != 0 {
			out[k.String()] = i.counts[k]
		}
	}
	return out
}

// formatCounts renders a count map deterministically (sorted by name).
func formatCounts(m map[string]uint64) string {
	if len(m) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

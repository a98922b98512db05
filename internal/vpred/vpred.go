// Package vpred implements the load value predictors the paper evaluates:
// an oracle (limit study, §5.1), the hybrid Wang–Franklin predictor used for
// the realistic results (§5.4), an order-3 differential FCM predictor with
// Burtscher's improved index function, and simple last-value and stride
// predictors used as components and baselines.
package vpred

import (
	"fmt"

	"mtvp/internal/config"
	"mtvp/internal/table"
)

// Candidate is one predicted value with its confidence.
type Candidate struct {
	Value uint64
	Conf  int
}

// Prediction is the outcome of a predictor lookup. Alternates lists other
// over-threshold candidate values (distinct from Value) for multiple-value
// multithreaded value prediction (§5.6).
type Prediction struct {
	Valid      bool // the predictor has history for this PC
	Value      uint64
	Conf       int
	Confident  bool
	Alternates []Candidate
}

// Predictor predicts the values load instructions will return.
//
// Lookup receives the load's actual value as well as its PC: only the
// oracle predictor uses it (the paper's limit study needs an always-correct
// predictor), and realistic predictors must ignore it. Train is called when
// the load's value resolves, in program order per thread, and performs
// value learning and confidence updates.
type Predictor interface {
	Lookup(pc, actual uint64) Prediction
	Train(pc, actual uint64)
}

// Sizer reports a predictor's allocated table footprint in entries. Every
// registered predictor implements it (property-test enforced); the bounded
// table size invariant requires the footprint to stay constant no matter
// what stream the predictor observes.
type Sizer interface {
	Footprint() int
}

// Sizing New uses for the simple last-value and stride predictors.
const (
	simpleTableEntries = 4096
	simpleThreshold    = 12
	simpleConfMax      = 32
)

// New builds the predictor selected by the configuration. Unknown kinds
// panic: Config.Validate rejects them with a structured error first, so
// reaching the panic means the config registry and this constructor switch
// disagree about what is registered.
func New(cfg *config.Config) Predictor {
	switch cfg.VP.Predictor {
	case config.PredOracle:
		return Oracle{}
	case config.PredWangFranklin:
		return NewWangFranklin(cfg.VP.WF, cfg.VP.LiberalThreshold)
	case config.PredDFCM:
		return NewDFCM(cfg.VP.DFCM)
	case config.PredFCM:
		return NewFCM(cfg.VP.DFCM)
	case config.PredLastValue:
		return NewLastValue(simpleTableEntries, simpleThreshold, simpleConfMax)
	case config.PredStride:
		return NewStride(simpleTableEntries, simpleThreshold, simpleConfMax)
	case config.PredVPQStride:
		return NewVPQStride(cfg.VP.VPQ)
	case config.PredEqualityLCV:
		return NewEqualityLCV(cfg.VP.Equality)
	default:
		panic(fmt.Sprintf("vpred: no constructor for predictor kind %d", int(cfg.VP.Predictor)))
	}
}

// BaseThreshold returns the confidence threshold of the configured
// predictor: the bar a prediction normally clears to be followed. The
// pipeline's quarantine controller uses it to derive the stricter clamped
// threshold applied to a context under misprediction-storm quarantine.
func BaseThreshold(cfg *config.Config) int {
	switch cfg.VP.Predictor {
	case config.PredWangFranklin:
		return cfg.VP.WF.Threshold
	case config.PredDFCM, config.PredFCM:
		return cfg.VP.DFCM.Threshold
	case config.PredLastValue, config.PredStride:
		return simpleThreshold // the fixed sizing New uses for these predictors
	case config.PredVPQStride:
		return cfg.VP.VPQ.Threshold
	case config.PredEqualityLCV:
		return cfg.VP.Equality.Threshold
	default:
		return 0 // oracle: no meaningful confidence scale
	}
}

// Oracle always predicts the correct value with maximum confidence. It is
// the predictor of the §5.1 limit study.
type Oracle struct{}

// Lookup returns the actual value with full confidence.
func (Oracle) Lookup(_, actual uint64) Prediction {
	return Prediction{Valid: true, Value: actual, Conf: 1 << 20, Confident: true}
}

// Train is a no-op.
func (Oracle) Train(_, _ uint64) {}

// Footprint implements Sizer: the oracle holds no state.
func (Oracle) Footprint() int { return 0 }

// LastValue predicts that a load returns the same value as last time.
type LastValue struct {
	entries   table.Paged[lvEntry]
	threshold int
	confMax   int
}

type lvEntry struct {
	pc    uint64
	value uint64
	conf  int
	valid bool
}

// NewLastValue returns a last-value predictor with the given table size and
// confidence parameters.
func NewLastValue(entries, threshold, confMax int) *LastValue {
	return &LastValue{
		entries:   table.New[lvEntry](entries),
		threshold: threshold,
		confMax:   confMax,
	}
}

func (p *LastValue) index(pc uint64) int {
	return int(pc % uint64(p.entries.Len()))
}

// Lookup implements Predictor.
func (p *LastValue) Lookup(pc, _ uint64) Prediction {
	e := p.entries.Peek(p.index(pc))
	if e == nil || !e.valid || e.pc != pc {
		return Prediction{}
	}
	return Prediction{
		Valid:     true,
		Value:     e.value,
		Conf:      e.conf,
		Confident: e.conf >= p.threshold,
	}
}

// Train implements Predictor.
func (p *LastValue) Train(pc, actual uint64) {
	e := p.entries.At(p.index(pc))
	if !e.valid || e.pc != pc {
		*e = lvEntry{pc: pc, value: actual, conf: 1, valid: true}
		return
	}
	if e.value == actual {
		if e.conf < p.confMax {
			e.conf++
		}
		return
	}
	e.conf -= 8
	if e.conf < 0 {
		e.conf = 0
	}
	e.value = actual
}

// Footprint implements Sizer.
func (p *LastValue) Footprint() int { return p.entries.Len() }

// Stride predicts last value plus the last observed stride.
type Stride struct {
	entries   table.Paged[strideEntry]
	threshold int
	confMax   int
}

type strideEntry struct {
	pc     uint64
	last   uint64
	stride int64
	conf   int
	valid  bool
}

// NewStride returns a stride predictor with the given table size and
// confidence parameters.
func NewStride(entries, threshold, confMax int) *Stride {
	return &Stride{
		entries:   table.New[strideEntry](entries),
		threshold: threshold,
		confMax:   confMax,
	}
}

func (p *Stride) index(pc uint64) int {
	return int(pc % uint64(p.entries.Len()))
}

// Lookup implements Predictor.
func (p *Stride) Lookup(pc, _ uint64) Prediction {
	e := p.entries.Peek(p.index(pc))
	if e == nil || !e.valid || e.pc != pc {
		return Prediction{}
	}
	return Prediction{
		Valid:     true,
		Value:     uint64(int64(e.last) + e.stride),
		Conf:      e.conf,
		Confident: e.conf >= p.threshold,
	}
}

// Train implements Predictor.
func (p *Stride) Train(pc, actual uint64) {
	e := p.entries.At(p.index(pc))
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, last: actual, valid: true}
		return
	}
	stride := int64(actual) - int64(e.last)
	if stride == e.stride {
		if e.conf < p.confMax {
			e.conf++
		}
	} else {
		e.conf -= 8
		if e.conf < 0 {
			e.conf = 0
		}
		e.stride = stride
	}
	e.last = actual
}

// Footprint implements Sizer.
func (p *Stride) Footprint() int { return p.entries.Len() }

var (
	_ Predictor = Oracle{}
	_ Predictor = (*LastValue)(nil)
	_ Predictor = (*Stride)(nil)
)

// Package vpred implements the load value predictors the experiments run:
// an oracle (limit study, §5.1), the hybrid Wang–Franklin predictor used for
// the realistic results (§5.4), an order-3 differential FCM predictor with
// Burtscher's improved index function (the §5.4 comparison), and an
// equality/last-committed-value predictor. As in the paper, one predictor
// instance is shared by every hardware context.
package vpred

import (
	"fmt"

	"mtvp/internal/config"
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
		return wfThreshold
	case config.PredDFCM:
		return dfcmThreshold
	case config.PredEqualityLCV:
		return eqThreshold
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

var _ Predictor = Oracle{}

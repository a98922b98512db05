package fault

// QState is a quarantine level for one hardware context's view of the value
// predictor.
type QState int

// Quarantine levels, in escalating order.
const (
	// QHealthy imposes no restriction: predictions are used as configured.
	QHealthy QState = iota
	// QClamped raises the confidence bar: only predictions well above the
	// predictor's normal threshold are followed.
	QClamped
	// QDisabled suppresses value prediction entirely for the context.
	QDisabled
)

// String returns the quarantine level name.
func (s QState) String() string {
	switch s {
	case QHealthy:
		return "healthy"
	case QClamped:
		return "clamped"
	case QDisabled:
		return "disabled"
	}
	return "qstate?"
}

// Quarantine is the per-context misprediction-storm detector. It keeps a
// saturating penalty score — mispredictions add WrongCost, correct
// predictions subtract CorrectCredit, and idle time decays it — and maps
// score bands to quarantine levels with hysteresis, so a predictor that is
// being actively poisoned (by a fault campaign or a hostile workload) is
// first clamped to high-confidence predictions only, then disabled outright,
// and only re-enabled after the storm demonstrably passes.
type Quarantine struct {
	state QState
	score int
	tick  int
}

// Quarantine tuning. Passive decay is what lets a disabled context, whose
// predictor makes no predictions, recover.
const (
	qWrongCost     = 4   // score added per misprediction
	qCorrectCredit = 1   // score removed per correct prediction
	qClampAt       = 32  // score that enters QClamped
	qDisableAt     = 64  // score that enters QDisabled
	qScoreMax      = 96  // saturation ceiling
	qDecayEvery    = 256 // commit ticks per 1 point of passive decay
)

// NewQuarantine builds a healthy detector.
func NewQuarantine() *Quarantine {
	return &Quarantine{}
}

// State returns the current quarantine level (QHealthy for nil).
func (q *Quarantine) State() QState {
	if q == nil {
		return QHealthy
	}
	return q.state
}

// Score returns the current penalty score.
func (q *Quarantine) Score() int {
	if q == nil {
		return 0
	}
	return q.score
}

// OnWrong records a misprediction. It returns true when the event escalated
// the quarantine level (healthy→clamped or clamped→disabled).
func (q *Quarantine) OnWrong() bool {
	if q == nil {
		return false
	}
	q.score += qWrongCost
	if q.score > qScoreMax {
		q.score = qScoreMax
	}
	return q.escalate()
}

// OnCorrect records a correct, followed prediction. It returns true when the
// event relaxed the quarantine level.
func (q *Quarantine) OnCorrect() bool {
	if q == nil {
		return false
	}
	q.score -= qCorrectCredit
	if q.score < 0 {
		q.score = 0
	}
	return q.relax()
}

// Tick records one commit's worth of passive time. A disabled context makes
// no predictions, so OnCorrect alone could never rehabilitate it; decay is
// what walks the score back down during the cool-down. Returns true when
// the decay relaxed the quarantine level.
func (q *Quarantine) Tick() bool {
	if q == nil || q.score == 0 {
		return false
	}
	q.tick++
	if q.tick < qDecayEvery {
		return false
	}
	q.tick = 0
	q.score--
	return q.relax()
}

// escalate raises state to match the score. Escalation has no hysteresis:
// the moment the score crosses a threshold the restriction applies.
func (q *Quarantine) escalate() bool {
	switch {
	case q.state == QHealthy && q.score >= qClampAt:
		q.state = QClamped
		if q.score >= qDisableAt {
			q.state = QDisabled
		}
		return true
	case q.state == QClamped && q.score >= qDisableAt:
		q.state = QDisabled
		return true
	}
	return false
}

// relax lowers state with hysteresis: disabled→clamped only once the score
// falls back to the clamp threshold, clamped→healthy at half of it. The gap
// keeps a context from oscillating at a threshold boundary.
func (q *Quarantine) relax() bool {
	switch {
	case q.state == QDisabled && q.score <= qClampAt:
		q.state = QClamped
		return true
	case q.state == QClamped && q.score <= qClampAt/2:
		q.state = QHealthy
		return true
	}
	return false
}

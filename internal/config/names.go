package config

import (
	"fmt"
	"strings"
)

// Canonical name tables. Indexed by the enum value, so String() and the
// Parse*/“*Names“ helpers can never disagree about what is registered.
var (
	predictorNames = [predKinds]string{
		PredOracle:       "oracle",
		PredWangFranklin: "wf",
		PredDFCM:         "dfcm3",
	}
	// predictorAliases accepts historical CLI spellings.
	predictorAliases = map[string]PredictorKind{
		"dfcm": PredDFCM,
	}
	selectorNames = [selKinds]string{
		SelILPPred:  "ilp-pred",
		SelL3Oracle: "l3-oracle",
		SelAlways:   "always",
	}
	selectorAliases = map[string]SelectorKind{
		"ilp": SelILPPred,
		"l3":  SelL3Oracle,
	}
)

// UnknownNameError reports a name that does not match any registered entity
// of the given kind, along with every valid choice.
type UnknownNameError struct {
	What  string   // what was being named: "predictor", "selector", ...
	Name  string   // the unknown name
	Valid []string // the registered names, in canonical order
}

func (e *UnknownNameError) Error() string {
	return fmt.Sprintf("config: unknown %s %q (valid: %s)",
		e.What, e.Name, strings.Join(e.Valid, ", "))
}

// PredictorNames returns the canonical name of every registered predictor,
// in enum order.
func PredictorNames() []string {
	return append([]string(nil), predictorNames[:]...)
}

// ParsePredictor resolves a predictor name (canonical or alias) to its kind.
// Unknown names yield an *UnknownNameError listing the valid choices.
func ParsePredictor(name string) (PredictorKind, error) {
	for k, n := range predictorNames {
		if n == name {
			return PredictorKind(k), nil
		}
	}
	if k, ok := predictorAliases[name]; ok {
		return k, nil
	}
	return 0, &UnknownNameError{What: "predictor", Name: name, Valid: PredictorNames()}
}

// SelectorNames returns the canonical name of every criticality selector.
func SelectorNames() []string {
	return append([]string(nil), selectorNames[:]...)
}

// ParseSelector resolves a criticality selector name (canonical or alias).
// Unknown names yield an *UnknownNameError listing the valid choices.
func ParseSelector(name string) (SelectorKind, error) {
	for k, n := range selectorNames {
		if n == name {
			return SelectorKind(k), nil
		}
	}
	if k, ok := selectorAliases[name]; ok {
		return k, nil
	}
	return 0, &UnknownNameError{What: "selector", Name: name, Valid: SelectorNames()}
}

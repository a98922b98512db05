package vpred

import (
	"testing"

	"mtvp/internal/config"
)

// BenchmarkPredictorZoo measures raw lookup+train throughput of every
// registered predictor at its default sizing, plus the bank organisations
// on the VPQ stride predictor (four contexts). The op stream is the mixed
// stride/noise/repeat stream the property suite uses, pre-generated outside
// the timer; ns/op is one lookup plus one train. CI runs it for
// information only; nothing compares its figures against a baseline.
func BenchmarkPredictorZoo(b *testing.B) {
	stream := loadStream(3, 1<<16)
	mask := len(stream) - 1

	for _, name := range config.PredictorNames() {
		kind, err := config.ParsePredictor(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cfg := config.Baseline()
			cfg.VP.Predictor = kind
			p := New(&cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := &stream[i&mask]
				p.Lookup(s.pc, s.value)
				p.Train(s.pc, s.value)
			}
		})
	}
	for _, mode := range config.SharingNames() {
		m, err := config.ParseSharing(mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("bank-vpq-"+mode, func(b *testing.B) {
			cfg := config.Baseline()
			cfg.Contexts = 4
			cfg.VP.Predictor = config.PredVPQStride
			cfg.VP.Sharing = m
			bank := NewBank(&cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := &stream[i&mask]
				bank.Lookup(s.ctx, s.pc, s.value)
				bank.Train(s.ctx, s.pc, s.value)
			}
		})
	}
}

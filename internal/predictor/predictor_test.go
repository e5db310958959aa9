package predictor

import (
	"math/rand"
	"testing"

	"dmacp/internal/cache"
)

func tiny() Config {
	return Config{L2TotalBytes: 1 << 16, LineBytes: 64, Ways: 4, SampleMod: 4}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{L2TotalBytes: 1 << 16, LineBytes: 64, Ways: 4, SampleMod: 0}); err == nil {
		t.Error("SampleMod 0 accepted")
	}
	if _, err := New(Config{L2TotalBytes: 100, LineBytes: 64, Ways: 4, SampleMod: 1}); err == nil {
		t.Error("bad cache geometry accepted")
	}
	if _, err := New(Config{L2TotalBytes: 36 << 20, LineBytes: 64, Ways: 8, SampleMod: 8}); err != nil {
		t.Errorf("the evaluation's configuration rejected: %v", err)
	}
}

func TestPerfectOnSampledRepeats(t *testing.T) {
	cfg := tiny()
	cfg.SampleMod = 1 // sample every set
	p := MustNew(cfg)
	// Warm with a small working set, then re-access: every prediction must
	// be correct because the shadow mirrors the full cache.
	real := cache.MustNew(cache.Config{SizeBytes: cfg.L2TotalBytes, LineBytes: cfg.LineBytes, Ways: cfg.Ways}, 1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(1 << 14)) // working set fits
		actual := real.Access(0, addr)
		p.Observe(addr, actual)
	}
	if acc := p.Accuracy(); acc < 0.99 {
		t.Errorf("full-sampling accuracy = %v, want ~1", acc)
	}
	if p.Observations() != 2000 {
		t.Errorf("Observations = %d", p.Observations())
	}
}

func TestImperfectUnderSampling(t *testing.T) {
	cfg := tiny() // SampleMod 4
	p := MustNew(cfg)
	real := cache.MustNew(cache.Config{SizeBytes: cfg.L2TotalBytes, LineBytes: cfg.LineBytes, Ways: cfg.Ways}, 1)
	rng := rand.New(rand.NewSource(5))
	// A mixed workload: half streaming (misses), half small reuse set (hits).
	for i := 0; i < 4000; i++ {
		var addr uint64
		if i%2 == 0 {
			addr = uint64(i) * 64 * 7 // streaming, mostly misses
		} else {
			addr = uint64(rng.Intn(1 << 12)) // small hot set
		}
		actual := real.Access(0, addr)
		p.Observe(addr, actual)
	}
	acc := p.Accuracy()
	if acc <= 0.5 || acc >= 0.999 {
		t.Errorf("sampled accuracy = %v, want imperfect but useful (0.5, 0.999)", acc)
	}
}

func TestTrainWarmsShadow(t *testing.T) {
	cfg := tiny()
	cfg.SampleMod = 1
	p := MustNew(cfg)
	addrs := []uint64{0, 64, 128, 192}
	for _, a := range addrs {
		p.Observe(a, false)
	}
	for _, a := range addrs {
		if !p.Predict(a) {
			t.Errorf("trained address %#x predicted miss", a)
		}
	}
	if p.Predict(1 << 15) {
		t.Error("cold address predicted hit with cold bias")
	}
}

func TestPredictPureNoStateChange(t *testing.T) {
	p := MustNew(tiny())
	before := p.Observations()
	for i := 0; i < 100; i++ {
		p.Predict(uint64(i) * 64)
	}
	if p.Observations() != before {
		t.Error("Predict changed observation count")
	}
	if p.Accuracy() != 0 {
		t.Error("Predict affected accuracy")
	}
}

func TestBiasFallbackForUnsampledSets(t *testing.T) {
	cfg := tiny()
	cfg.SampleMod = 1 << 20 // effectively only set 0 sampled
	p := MustNew(cfg)
	// Make sampled traffic hit-heavy: repeated access to one line in set 0.
	for i := 0; i < 10; i++ {
		p.Observe(0, i > 0)
	}
	// An unsampled line must now be predicted by bias -> hit.
	unsampled := uint64(cfg.LineBytes) // set 1
	if !p.Predict(unsampled) {
		t.Error("hit-biased predictor predicted miss for unsampled set")
	}
}

// Package predictor implements the compile-time L2 hit/miss predictor the
// partitioner consults during data location detection (Section 4.1): when the
// predictor expects a reference to miss in the last-level cache, the datum's
// effective location becomes the memory controller that services it rather
// than its SNUCA home bank.
//
// The design follows the set-sampling school of cache predictors (in the
// spirit of Chandra et al. [11]): a shadow tag array covering a sampled
// subset of cache sets is maintained precisely, and accesses to unsampled
// sets are predicted from the running hit-rate bias of the sampled ones. The
// sampling is what makes the predictor imperfect, reproducing the 63%–92%
// accuracy range of Table 2 — irregular applications with large shuffled
// footprints mispredict more because the bias estimate transfers poorly
// between sets.
package predictor

import (
	"fmt"

	"dmacp/internal/cache"
)

// Config sizes the predictor.
type Config struct {
	// L2TotalBytes is the aggregate capacity of the modeled L2 (all banks).
	L2TotalBytes uint64
	// LineBytes is the cache line size.
	LineBytes uint64
	// Ways is the modeled associativity.
	Ways int
	// SampleMod selects which sets have shadow tags: a set is sampled when
	// setIndex % SampleMod == 0. 1 samples every set (a near-perfect
	// predictor); larger values trade accuracy for table size.
	SampleMod uint64
}

// Predictor predicts L2 hits and misses and tracks its own accuracy.
type Predictor struct {
	cfg    Config
	shadow *cache.Cache
	sets   uint64

	sampledHits, sampledAccesses int64
	correct, total               int64
}

// New creates a predictor. The shadow holds only the sampled fraction of the
// modeled capacity.
func New(cfg Config) (*Predictor, error) {
	if cfg.SampleMod == 0 {
		return nil, fmt.Errorf("predictor: SampleMod must be >= 1")
	}
	full := cache.Config{SizeBytes: cfg.L2TotalBytes, LineBytes: cfg.LineBytes, Ways: cfg.Ways}
	if err := full.Validate(); err != nil {
		return nil, err
	}
	sets := uint64(full.Sets())
	sampledSets := (sets + cfg.SampleMod - 1) / cfg.SampleMod
	shadow, err := cache.New(cache.Config{
		SizeBytes: sampledSets * uint64(cfg.Ways) * cfg.LineBytes,
		LineBytes: cfg.LineBytes,
		Ways:      cfg.Ways,
	}, 1)
	if err != nil {
		return nil, err
	}
	return &Predictor{cfg: cfg, shadow: shadow, sets: sets}, nil
}

// MustNew is New panicking on error.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Predictor) sampled(line uint64) bool {
	set := line / p.cfg.LineBytes % p.sets
	return set%p.cfg.SampleMod == 0
}

// Predict returns true when the predictor expects the access to the line
// containing addr to hit in L2. It does not modify predictor state.
func (p *Predictor) Predict(addr uint64) bool {
	line := addr &^ (p.cfg.LineBytes - 1)
	if p.sampled(line) {
		return p.shadow.Contains(0, line)
	}
	// Unsampled set: fall back to the hit-rate bias observed on sampled sets.
	return p.sampledHits*2 > p.sampledAccesses
}

// Observe feeds the actual outcome of an access back into the predictor,
// updating shadow tags, the bias estimate, and accuracy accounting. The
// prediction scored is the one Predict would have returned immediately
// before this call.
func (p *Predictor) Observe(addr uint64, actualHit bool) {
	line := addr &^ (p.cfg.LineBytes - 1)
	predicted := p.Predict(line)
	if predicted == actualHit {
		p.correct++
	}
	p.total++
	if p.sampled(line) {
		hit := p.shadow.Access(0, line)
		p.sampledAccesses++
		if hit {
			p.sampledHits++
		}
	}
}

// Fresh returns a new, untrained predictor with the same configuration;
// the partitioner's location pass uses one per nest, shared by every
// window-size trial, so that the caller's predictor is never trained and the
// reported accuracy covers exactly one pass over the nest.
func (p *Predictor) Fresh() *Predictor {
	return MustNew(p.cfg)
}

// Accuracy returns the fraction of scored predictions that matched the
// actual outcome (Table 2), or 0 before any observation.
func (p *Predictor) Accuracy() float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.correct) / float64(p.total)
}

// Observations returns how many outcomes have been scored.
func (p *Predictor) Observations() int64 { return p.total }

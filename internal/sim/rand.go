package sim

import (
	"math/rand"

	"awakemis/internal/rng"
)

// nodeSource is a splitmix64 stream: 8 bytes of state per node instead
// of the ~4.9KB of math/rand's default source, so million-node runs
// keep their RNG footprint negligible. The engine derives every node's
// stream from (Config.Seed, node index) through this source (the
// derivation, rng.Stream, is frozen), which is what makes runs
// bit-identical across worker and lane counts and across releases.
type nodeSource struct {
	state uint64
}

var _ rand.Source64 = (*nodeSource)(nil)

func (s *nodeSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *nodeSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *nodeSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return rng.Mix(s.state)
}

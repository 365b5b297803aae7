package serve

import (
	"math"
	"sync"
)

// bucketTable maps a request's real (atoms, pairs) counts onto a small set
// of padded shapes so that compiled plans — which are specific to the exact
// (Z, N) — are shared across requests instead of compiled per system size.
//
// The atom count rounds up to atomBucket; the pair count takes the paper's
// padFactor headroom, rounds up to pairBucket, and then joins a per-atom-
// bucket running maximum: the same PadTo running-max discipline the serial
// Evaluator applies across MD steps, applied here across tenants. Shapes
// therefore converge — after warm-up, every request of a given size class
// evaluates at one fixed shape, and the shared registry's pool stops
// growing. Padding is exact, not approximate: fake pairs carry a zero
// cutoff envelope and surplus atom rows are never gathered, so a bucketed
// evaluation is bit-identical to the unpadded serial one.
type bucketTable struct {
	mu   sync.Mutex
	maxZ map[int]int // bucketed atom count -> running-max bucketed pair count
}

// The bucketing granularities: coarser buckets mean fewer shapes (fewer
// compiles, a smaller plan pool) but more padded work per request.
const (
	atomBucket = 16
	pairBucket = 256
	padFactor  = 1.05 // the paper's 5% pair headroom
)

// shape returns the padded (atoms, pairs) shape for a request with nReal
// atoms and zReal pairs, advancing the running maximum for its size class.
func (bt *bucketTable) shape(nReal, zReal int) (nB, zB int) {
	nB = roundUp(nReal, atomBucket)
	zB = roundUp(int(math.Ceil(padFactor*float64(zReal))), pairBucket)
	bt.mu.Lock()
	if cur := bt.maxZ[nB]; cur >= zB {
		zB = cur
	} else {
		bt.maxZ[nB] = zB
	}
	bt.mu.Unlock()
	return nB, zB
}

// shapes reports the number of distinct size classes seen so far.
func (bt *bucketTable) shapes() int {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return len(bt.maxZ)
}

func roundUp(n, b int) int {
	if n <= 0 {
		return b
	}
	return (n + b - 1) / b * b
}

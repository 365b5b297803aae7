package perfmodel

import (
	"math"

	"repro/internal/atoms"
	"repro/internal/core"
)

// DriftProbe measures how far an engine's forces and energy deviate from a
// reference model at one state: it evaluates the reference at the same
// positions and compares against the numbers the engine produced there —
// e.g. a reduced-precision model against its float64 twin, which is how the
// benchmark's force-RMSE and energy-error rows are taken. Because the
// comparison is at identical configurations, the numbers are the model
// deviation itself, free of the chaotic trajectory divergence that
// dominates any position-vs-position comparison. Probing the serial engine
// against its own model reads exactly zero.
type DriftProbe struct {
	ev *core.Evaluator
}

// NewDriftProbe builds a reference evaluator over the model. Close it when
// done.
func NewDriftProbe(m *core.Model) *DriftProbe {
	return &DriftProbe{ev: core.NewEvaluator(m)}
}

// DriftSample is one probed comparison: the engine's numbers at a state
// against the reference model evaluated at the identical positions.
type DriftSample struct {
	MaxForceErrEvA  float64 // largest per-component force deviation
	RMSForceErrEvA  float64 // RMS per-atom force-vector deviation
	EnergyErrEvAtom float64 // per-atom potential-energy deviation
}

// Measure evaluates the reference model at sys's current positions and
// returns the force and per-atom energy deviations of the engine's numbers.
func (p *DriftProbe) Measure(sys *atoms.System, engForces [][3]float64, engPotE float64) DriftSample {
	exactE, exactF := p.ev.EnergyForces(sys)
	var s DriftSample
	var sum2 float64
	for i := range exactF {
		var n2 float64
		for c := 0; c < 3; c++ {
			d := engForces[i][c] - exactF[i][c]
			n2 += d * d
			if a := math.Abs(d); a > s.MaxForceErrEvA {
				s.MaxForceErrEvA = a
			}
		}
		sum2 += n2
	}
	n := float64(sys.NumAtoms())
	s.RMSForceErrEvA = math.Sqrt(sum2 / n)
	s.EnergyErrEvAtom = math.Abs(engPotE-exactE) / n
	return s
}

// Close releases the reference evaluator.
func (p *DriftProbe) Close() { p.ev.Close() }

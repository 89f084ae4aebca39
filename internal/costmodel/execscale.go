package costmodel

import "ivdss/internal/core"

// Process-scale constants recalibrated against the two sqlmini execution
// engines (ivqp-bench -fig exec). The model constants used throughout the
// scenario matrix were originally fitted to the tree-walk interpreter;
// the bytecode VM finishes the same local processing in a fraction of the
// time, and that fraction feeds straight into every consumer of
// computation latency — the IVQP planner's delay search, MQO workload
// ordering, and admission shedding — since IV decays as (1-λCL)^CL.
const (
	// TreeWalkProcessScale anchors the calibration: the published model
	// constants describe the tree-walk engine.
	TreeWalkProcessScale = 1.0
	// VMProcessScale is the measured processing-time ratio VM/tree-walk
	// across the exec benchmark shapes (ivqp-bench -fig exec at scale 8:
	// scan 10.5×, filter 11.1×, hash-join 2.3×, group-by 8.3× faster once
	// plans are prepared). The hash join — build-side hashing dominates
	// and both engines share relation's columnar join kernel — is the
	// slowest shape at ~0.43×; 0.45 is the conservative calibration so
	// the planner never promises latency the worst shape cannot meet.
	VMProcessScale = 0.45
)

// Scaled returns a copy of the model with its processing-side constants
// multiplied by scale. Transmission constants are untouched — a faster
// local executor does not move bytes across the network any faster — and
// the per-query weights carry over unchanged.
func (m *CountModel) Scaled(scale float64) *CountModel {
	out := *m
	out.LocalProcess = core.Duration(float64(m.LocalProcess) * scale)
	out.PerBaseTable = core.Duration(float64(m.PerBaseTable) * scale)
	out.PerExtraSite = core.Duration(float64(m.PerExtraSite) * scale)
	return &out
}

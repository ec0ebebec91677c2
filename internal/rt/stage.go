package rt

// Stage labels one phase of the admission pipeline, matching the paper's
// Fig. 2 structure: on every arrival the scheduler (1) builds the candidate
// schedule over the processor available times, (2) partitions each task via
// the planning module, (3) checks every completion estimate against its
// deadline while applying tentative releases, and — asynchronously — (4)
// commits plans whose first transmission is due.
type Stage uint8

const (
	// StageCandidate: building the policy-ordered candidate list and
	// snapshotting the per-node available times.
	StageCandidate Stage = iota
	// StagePlan: the partitioning module's Plan calls across the candidate
	// schedule (node selection + load split).
	StagePlan
	// StageCheck: the schedulability check — deadline comparisons and
	// tentative availability updates around the planning calls.
	StageCheck
	// StageCommit: committing due plans (release-time bookkeeping).
	StageCommit

	// NumStages is the number of pipeline stages.
	NumStages = 4
)

var stageNames = [NumStages]string{"candidate", "plan", "check", "commit"}

// String returns the stage's metric label.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageObserver receives per-stage wall-clock timing spans from the
// scheduler: one ObserveStage call per stage per admission test (and one
// StageCommit span per commit batch). Implementations must be cheap and
// safe for concurrent use — the shards of a pool share one — and are
// called once per Submit, on the hot path. The metrics layer implements it with
// atomic histograms.
type StageObserver interface {
	ObserveStage(stage Stage, seconds float64)
}

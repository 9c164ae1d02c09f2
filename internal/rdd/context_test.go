package rdd

import (
	"math"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
)

// TestConfigValidation checks that nonsense knobs — fault probabilities, a
// negative worker count, overheads that would run the clock backwards — are
// rejected at Context construction with errors naming the field.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"crash prob > 1", Config{Faults: FaultProfile{TaskCrashProb: 1.5}}, "TaskCrashProb"},
		{"NaN crash prob", Config{Faults: FaultProfile{TaskCrashProb: math.NaN()}}, "TaskCrashProb"},
		{"negative fetch prob", Config{Faults: FaultProfile{FetchFailureProb: -0.1}}, "FetchFailureProb"},
		{"NaN fetch prob", Config{Faults: FaultProfile{FetchFailureProb: math.NaN()}}, "FetchFailureProb"},
		{"straggler prob > 1", Config{Faults: FaultProfile{StragglerProb: 7}}, "StragglerProb"},
		{"NaN straggler prob", Config{Faults: FaultProfile{StragglerProb: math.NaN()}}, "StragglerProb"},
		{"negative node", Config{Faults: FaultProfile{NodeLoss: []NodeLoss{{Node: -1}}}}, "NodeLoss[0].Node"},
		{"negative after-tasks", Config{Faults: FaultProfile{NodeLoss: []NodeLoss{{Node: 0, AfterTasks: -5}}}}, "NodeLoss[0].AfterTasks"},
		{"negative workers", Config{Workers: -2}, "Workers"},
		{"negative task overhead", Config{SchedOverheadSec: -0.004}, "SchedOverheadSec"},
		{"NaN task overhead", Config{SchedOverheadSec: math.NaN()}, "SchedOverheadSec"},
		{"negative stage overhead", Config{StageOverheadSec: -1}, "StageOverheadSec"},
		{"infinite stage overhead", Config{StageOverheadSec: math.Inf(1)}, "StageOverheadSec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Cluster = cluster.Config{Nodes: 1, Spec: cluster.M3TwoXLarge}
			_, err := New(tc.cfg)
			if err == nil {
				t.Fatal("New accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// And the happy path: valid knobs pass, the bounds of [0,1] included.
	if _, err := New(Config{
		Cluster: cluster.Config{Nodes: 1, Spec: cluster.M3TwoXLarge},
		Faults:  FaultProfile{TaskCrashProb: 0.1, FetchFailureProb: 0, StragglerProb: 1},
	}); err != nil {
		t.Fatalf("New rejected a valid config: %v", err)
	}
}

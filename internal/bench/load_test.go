package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunLoadShedsUnderOverload(t *testing.T) {
	res, err := RunLoad(QuickLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.Shed == 0 {
		t.Fatal("nothing shed; the config should overload one slot")
	}
	if res.Completed+res.Shed != res.Queries {
		t.Errorf("completed %d + shed %d != %d queries", res.Completed, res.Shed, res.Queries)
	}
	if res.Throughput <= 0 || res.TotalIV <= 0 {
		t.Errorf("throughput %v, total IV %v", res.Throughput, res.TotalIV)
	}
	if res.P95CL < res.MeanCL {
		t.Errorf("p95 CL %v below mean %v", res.P95CL, res.MeanCL)
	}
	// The replication-cadence comparison rides along: adaptive must beat
	// the static uniform cadence, and the traffic counters are populated.
	if res.SyncAdaptiveTotalIV <= res.SyncStaticTotalIV {
		t.Errorf("adaptive sync IV %.3f did not beat static %.3f",
			res.SyncAdaptiveTotalIV, res.SyncStaticTotalIV)
	}
	if res.SyncAdaptiveGainPct <= 0 {
		t.Errorf("sync gain = %+.2f%%, want positive", res.SyncAdaptiveGainPct)
	}
	if res.SyncsTotal <= 0 || res.SyncBytesTotal <= 0 {
		t.Errorf("sync traffic counters empty: syncs=%v bytes=%v", res.SyncsTotal, res.SyncBytesTotal)
	}

	var buf strings.Builder
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back LoadResult
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back != res {
		t.Errorf("JSON round trip changed the result: %+v vs %+v", back, res)
	}
}

func TestRunLoadDeterministicInSeed(t *testing.T) {
	cfg := QuickLoadConfig()
	a, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestRunLoadMQOBeatsFIFOLivePath is the tentpole's payoff: the identical
// overload stream through the shared engine yields more total information
// value with continuous micro-batch MQO than in FIFO submission order.
func TestRunLoadMQOBeatsFIFOLivePath(t *testing.T) {
	res, err := RunLoad(QuickLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.FIFOTotalIV <= 0 || res.MQOTotalIV <= 0 {
		t.Fatalf("live-path comparison missing: fifo %v, mqo %v", res.FIFOTotalIV, res.MQOTotalIV)
	}
	if res.MQOTotalIV <= res.FIFOTotalIV {
		t.Errorf("micro-batch MQO total IV %.4f not above FIFO %.4f", res.MQOTotalIV, res.FIFOTotalIV)
	}
	if res.FIFOCompleted+res.FIFOShed != res.Queries {
		t.Errorf("fifo variant lost queries: %d + %d != %d", res.FIFOCompleted, res.FIFOShed, res.Queries)
	}
	if res.MQOCompleted+res.MQOShed != res.Queries {
		t.Errorf("mqo variant lost queries: %d + %d != %d", res.MQOCompleted, res.MQOShed, res.Queries)
	}
}

func TestRunLoadEpsilonZeroCompletesEverything(t *testing.T) {
	cfg := QuickLoadConfig()
	cfg.Epsilon = 0
	res, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 || res.Completed != res.Queries {
		t.Errorf("epsilon 0: completed %d, shed %d of %d", res.Completed, res.Shed, res.Queries)
	}
}

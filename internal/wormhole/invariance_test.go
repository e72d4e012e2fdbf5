package wormhole

import (
	"fmt"
	"testing"
)

// TestIntraWorkersInvariance pins that IntraWorkers is accepted and
// ignored: for every sample config, Run metrics at 1 and 4 equal the
// metrics at 0 — full latency and utilization distributions included —
// because every run steps on one goroutine whatever the field says.
func TestIntraWorkersInvariance(t *testing.T) {
	for i, cfg := range sampleConfigs(t) {
		t.Run(fmt.Sprintf("cfg%02d", i), func(t *testing.T) {
			seq := cfg
			seq.IntraWorkers = 0
			want, err := Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4} {
				par := cfg
				par.IntraWorkers = p
				got, err := Run(par)
				if err != nil {
					t.Fatal(err)
				}
				if !metricsEqual(want, got) {
					t.Errorf("IntraWorkers=%d diverges from IntraWorkers=0:\n got %+v\nwant %+v", p, got, want)
				}
			}
		})
	}
}

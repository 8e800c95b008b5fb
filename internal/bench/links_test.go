package bench

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/simconst"
)

// TestLinkProfilesScale: the testbed's emulated links keep the paper's
// profiles at Scale = 1 and cost nothing at Scale = +Inf, where both the
// propagation delay and the serialization term vanish.
func TestLinkProfilesScale(t *testing.T) {
	old := simconst.Scale
	defer func() { simconst.Scale = old }()

	simconst.Scale = 1
	if got, want := wanLink(), netsim.RTT(simconst.RTTManagementToTM, simconst.WANBandwidth); got != want {
		t.Fatalf("scale 1 WAN link %+v, want %+v", got, want)
	}
	if got, want := clusterLink(), netsim.RTT(simconst.RTTTMToCluster, simconst.LinkBandwidth); got != want {
		t.Fatalf("scale 1 cluster link %+v, want %+v", got, want)
	}

	simconst.Scale = math.Inf(1)
	for name, p := range map[string]netsim.Profile{"wan": wanLink(), "cluster": clusterLink()} {
		if !p.ZeroCost() {
			t.Fatalf("scale +Inf %s link %+v is not zero-cost", name, p)
		}
	}
}

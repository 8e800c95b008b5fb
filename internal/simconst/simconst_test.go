package simconst

import (
	"math"
	"testing"
	"time"
)

func TestPaperConstants(t *testing.T) {
	// §V-A: "The average Internet Protocol round-trip-time between the
	// Task Manager and PetrelKube ... is 0.17ms. The Management Service
	// ... has an average round-trip-time to the Task Manager of 20.7ms."
	if RTTManagementToTM != 20700*time.Microsecond {
		t.Fatalf("MS<->TM RTT must be the paper's 20.7ms, got %v", RTTManagementToTM)
	}
	if RTTTMToCluster != 170*time.Microsecond {
		t.Fatalf("TM<->cluster RTT must be the paper's 0.17ms, got %v", RTTTMToCluster)
	}
}

func TestScaleD(t *testing.T) {
	old := Scale
	defer func() { Scale = old }()

	Scale = 1
	if D(100*time.Millisecond) != 100*time.Millisecond {
		t.Fatal("scale 1 must be identity")
	}
	Scale = 10
	if D(100*time.Millisecond) != 10*time.Millisecond {
		t.Fatalf("scale 10 should compress 10x, got %v", D(100*time.Millisecond))
	}
	Scale = 1000
	if D(time.Second) != time.Millisecond {
		t.Fatalf("scale 1000 wrong: %v", D(time.Second))
	}
}

func TestScaleBW(t *testing.T) {
	old := Scale
	defer func() { Scale = old }()

	Scale = 1
	if BW(LinkBandwidth) != LinkBandwidth {
		t.Fatal("scale 1 must be identity")
	}
	Scale = 10
	// Serialization time size/BW must compress like D compresses a delay.
	ser := func(bw float64) time.Duration { return time.Duration(1e6 / bw * float64(time.Second)) }
	if got, want := ser(BW(WANBandwidth)), D(ser(WANBandwidth)); got != want {
		t.Fatalf("scale 10: serialization %v, want %v", got, want)
	}
	Scale = math.Inf(1)
	if BW(WANBandwidth) != 0 || D(RTTManagementToTM) != 0 {
		t.Fatalf("scale +Inf must make links zero-cost: bw=%v rtt=%v", BW(WANBandwidth), D(RTTManagementToTM))
	}
}

func TestRelativeMagnitudes(t *testing.T) {
	// The experiments depend on these orderings; breaking them silently
	// changes every figure's shape.
	if RTTTMToCluster >= RTTManagementToTM {
		t.Fatal("lab RTT must be far below WAN RTT")
	}
	if PythonCallFactor <= 1 {
		t.Fatal("Python must be slower than the native runtime (Fig. 8)")
	}
	if DispatchOverhead <= 0 || DispatchOverhead >= 10*time.Millisecond {
		t.Fatal("dispatch overhead out of plausible range (Fig. 7 ceiling)")
	}
	if ContainerStartLatency < 50*time.Millisecond {
		t.Fatal("container start must be deployment-scale, not request-scale")
	}
}

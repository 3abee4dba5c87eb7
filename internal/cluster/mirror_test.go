package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"prophet/internal/drive"
	"prophet/internal/netsim"
	"prophet/internal/sim"
)

func TestMirrorPullsConservesBytes(t *testing.T) {
	f := func(sizesRaw []uint32, limRaw uint16) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		w := &worker{eng: sim.New()}
		var ranges []drive.Range
		want := map[int]float64{}
		for i, r := range sizesRaw {
			b := float64(r%30000000) + 1
			ranges = append(ranges, drive.Range{Grad: i, Bytes: b, Last: true})
			want[i] = b
		}
		pulls := w.mirrorPulls(0, ranges, float64(limRaw%100)*1e5+1e5)
		got := map[int]float64{}
		for _, pm := range pulls {
			var s float64
			for _, pc := range pm.pieces {
				got[pc.grad] += pc.bytes
				s += pc.bytes
			}
			if math.Abs(s-pm.bytes) > 1e-6 {
				return false
			}
		}
		for g, b := range want {
			if math.Abs(got[g]-b) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

var _ = netsim.Const(1)

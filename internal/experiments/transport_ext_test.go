package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestExtTransportGolden pins the transport comparison bit-for-bit:
// the PS rows exercise the cluster path and the ring/tree rows the
// collective path, so this one fixture certifies both executions of the
// drive layer stay deterministic — rates AND the attribution decomposition
// that rides along.
func TestExtTransportGolden(t *testing.T) {
	res, err := run[*ExtTransportResult]("ext-transport", Config{Iterations: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("ext-transport: model batch transport rate_s wait_s transmit_s ack_s\n")
	for _, m := range res.Models {
		for _, row := range m.Rows {
			fmt.Fprintf(&b, "%s %d %s %s %s %s %s\n",
				m.Model, m.Batch, row.Transport,
				g(row.Rate), g(row.Mean.Wait()), g(row.Mean.Transmit), g(row.Mean.Ack))
		}
	}
	checkGolden(t, "ext-transport.golden", b.String())
}

// TestExtTransportRanking sanity-checks the comparison's shape without
// pinning numbers: every transport produced a positive rate, the collective
// rows have exactly-zero ack, and the PS row has a strictly positive ack
// (the pull is never free).
func TestExtTransportRanking(t *testing.T) {
	res, err := run[*ExtTransportResult]("ext-transport", Config{Iterations: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) == 0 {
		t.Fatal("no models")
	}
	for _, m := range res.Models {
		if len(m.Rows) != 3 {
			t.Fatalf("%s: %d transports, want 3", m.Model, len(m.Rows))
		}
		for _, row := range m.Rows {
			if row.Rate <= 0 {
				t.Fatalf("%s/%s: rate %v", m.Model, row.Transport, row.Rate)
			}
			switch row.Transport {
			case "ps":
				if row.Mean.Ack <= 0 {
					t.Errorf("%s/ps: ack %v, want > 0 (the pull)", m.Model, row.Mean.Ack)
				}
			default:
				if row.Mean.Ack != 0 {
					t.Errorf("%s/%s: ack %v, want exactly 0", m.Model, row.Transport, row.Mean.Ack)
				}
			}
		}
	}
}

package experiments

import "testing"

// TestExtLiveTransportInvariants exercises the live comparison over six
// iterations and checks the transport-independent structure. No golden file:
// the wall-clock columns are real measurements and vary run to run; what
// must hold regardless is the decision equivalence across rows, the
// strictly positive ack on the PS rows (the pull leg is never free), and
// the exactly-zero ack on the collective rows (the aggregate lands with
// the last chunk step — there is no pull).
func TestExtLiveTransportInvariants(t *testing.T) {
	res, err := run[*ExtLiveTransportResult]("ext-live-transport", Config{Iterations: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (ps, ps-mux, ring, tree)", len(res.Rows))
	}
	if !res.DecisionsMatch {
		t.Fatal("decision streams diverged across transports")
	}
	for _, row := range res.Rows {
		if row.Wall <= 0 {
			t.Errorf("%s: wall %v, want > 0", row.Transport, row.Wall)
		}
		if row.Mean.Completion <= 0 {
			t.Errorf("%s: completion %v, want > 0", row.Transport, row.Mean.Completion)
		}
		switch row.Transport {
		case "ps", "ps-mux":
			if row.Mean.Ack <= 0 {
				t.Errorf("%s: ack %v, want > 0 (the pull)", row.Transport, row.Mean.Ack)
			}
		default:
			if row.Mean.Ack != 0 {
				t.Errorf("%s: ack %v, want exactly 0", row.Transport, row.Mean.Ack)
			}
		}
	}
}

package predict

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
)

// Report is the audit's output: every residual, the per-worker-iteration
// scores in (worker, iter) order, and the alarms raised.
type Report struct {
	Planned   int              `json:"planned"`
	Joined    int              `json:"joined"`
	Residuals []Residual       `json:"-"`
	Scores    []IterationScore `json:"iterations"`
	Alarms    []Alarm          `json:"alarms"`
	MaxRel    float64          `json:"max_rel_err"`
}

// Report snapshots the auditor's state so far. Scores are sorted by
// (worker, iter); residuals by (worker, iter, lane, seq).
func (a *Auditor) Report() *Report {
	a.mu.Lock()
	// Every planned window is either joined (a residual) or still in the
	// pending map — the two are disjoint, so their sum is the plan count.
	r := &Report{
		Planned:   len(a.residuals) + len(a.planned),
		Joined:    len(a.residuals),
		Residuals: append([]Residual(nil), a.residuals...),
		Scores:    append([]IterationScore(nil), a.scores...),
		Alarms:    append([]Alarm(nil), a.alarms...),
	}
	a.mu.Unlock()
	sort.Slice(r.Residuals, func(i, j int) bool {
		x, y := r.Residuals[i], r.Residuals[j]
		if x.Worker != y.Worker {
			return x.Worker < y.Worker
		}
		if x.Iter != y.Iter {
			return x.Iter < y.Iter
		}
		if x.Lane != y.Lane {
			return x.Lane < y.Lane
		}
		return x.Seq < y.Seq
	})
	sort.Slice(r.Scores, func(i, j int) bool {
		x, y := r.Scores[i], r.Scores[j]
		if x.Worker != y.Worker {
			return x.Worker < y.Worker
		}
		return x.Iter < y.Iter
	})
	r.MaxRel = r.MaxRelErr()
	return r
}

// MaxRelErr returns the largest window disagreement across all residuals —
// the quantity the simulator invariant test pins to 1e-6.
func (r *Report) MaxRelErr() float64 {
	var m float64
	for _, res := range r.Residuals {
		if res.RelErr > m {
			m = res.RelErr
		}
	}
	return m
}

// MaxDrift returns the largest drift score any worker reached.
func (r *Report) MaxDrift() float64 {
	var m float64
	for _, s := range r.Scores {
		if s.Drift > m {
			m = s.Drift
		}
	}
	return m
}

// WriteJSON dumps the report (scores and alarms; residuals are omitted —
// they scale with sends, not iterations).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Handler serves the auditor's live report as JSON — the /predict view
// behind the debug listener.
func (a *Auditor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := a.Report().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

package predict

import (
	"encoding/json"
	"fmt"
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

// Render writes the predicted-vs-actual table — the prophet-run -audit
// view. One row per (worker, iteration); times in milliseconds.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "%-4s %-4s %6s %6s  %10s %10s %8s %9s %8s %8s %8s %s\n",
		"wrk", "iter", "joined", "unj",
		"pred(ms)", "obs(ms)", "err%", "start(ms)", "gen(ms)", "ack(ms)", "drift%", "alarm")
	for _, s := range r.Scores {
		errPct := 0.0
		if s.PredTransmit > eps {
			errPct = 100 * (s.ObsTransmit - s.PredTransmit) / s.PredTransmit
		}
		alarm := ""
		if s.Alarmed {
			alarm = "ALARM"
		}
		fmt.Fprintf(w, "%-4d %-4d %6d %6d  %10.3f %10.3f %+8.2f %9.3f %8.3f %8.3f %8.2f %s\n",
			s.Worker, s.Iter, s.Joined, s.Unjoined,
			s.PredTransmit*1e3, s.ObsTransmit*1e3, errPct,
			s.StartErr*1e3, s.Gen*1e3, s.Ack*1e3, 100*s.Drift, alarm)
	}
	fmt.Fprintf(w, "planned %d  joined %d  max rel err %.3g  alarms %d\n",
		r.Planned, r.Joined, r.MaxRel, len(r.Alarms))
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

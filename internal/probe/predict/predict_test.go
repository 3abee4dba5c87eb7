package predict_test

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"prophet/internal/probe"
	"prophet/internal/probe/predict"
)

// feedIteration drives one worker-iteration through the auditor: n sends,
// each planned for predDur seconds and observed for obsDur seconds,
// back-to-back from t0.
func feedIteration(a *predict.Auditor, worker, iter, n int, t0, predDur, obsDur float64) float64 {
	a.BeginIteration(worker, iter, t0)
	a.Generated(worker, 0, t0)
	t := t0
	for seq := 0; seq < n; seq++ {
		a.SendPlanned(worker, 0, seq, iter, 1e6, t, t+predDur)
		a.SendStart(worker, 0, seq, iter, "push", 1e6, nil, t)
		a.SendComplete(worker, 0, iter, t+obsDur)
		t += obsDur
	}
	a.PullAcked(worker, 0, iter, t+0.001)
	a.EndIteration(worker, iter, t+0.001)
	return t
}

func TestAuditorExactPredictionsScoreZero(t *testing.T) {
	a := predict.NewAuditor(predict.Options{})
	feedIteration(a, 0, 0, 4, 0, 0.010, 0.010)
	feedIteration(a, 0, 1, 4, 1, 0.010, 0.010)
	a.Flush()
	rep := a.Report()
	if rep.Joined != 8 || rep.Planned != 8 {
		t.Fatalf("joined %d planned %d, want 8/8", rep.Joined, rep.Planned)
	}
	if got := rep.MaxRelErr(); got != 0 {
		t.Fatalf("exact predictions: max rel err %g, want 0", got)
	}
	if got := rep.MaxDrift(); got != 0 {
		t.Fatalf("exact predictions: max drift %g, want 0", got)
	}
	if len(rep.Alarms) != 0 {
		t.Fatalf("exact predictions raised %d alarms", len(rep.Alarms))
	}
}

func TestAuditorAlarmAfterWarmupAndRecovery(t *testing.T) {
	var cb []predict.Alarm
	m := probe.NewMetrics()
	a := predict.NewAuditor(predict.Options{
		Threshold: 0.5,
		OnAlarm:   func(al predict.Alarm) { cb = append(cb, al) },
		Metrics:   m,
	})
	// Iteration 0: exact (warmup). Iterations 1-2: observed 2x planned,
	// divergence 1.0 — past threshold, but iteration 0 seeds the EWMA at
	// 0 so iteration 1 lands at 0.3 and iteration 2 at 0.51.
	feedIteration(a, 0, 0, 2, 0, 0.010, 0.010)
	feedIteration(a, 0, 1, 2, 1, 0.010, 0.020)
	feedIteration(a, 0, 2, 2, 2, 0.010, 0.020)
	// Recovery: exact again, score decays 0.357, 0.2499 — no new alarms.
	feedIteration(a, 0, 3, 2, 3, 0.010, 0.010)
	feedIteration(a, 0, 4, 2, 4, 0.010, 0.010)
	a.Flush()

	rep := a.Report()
	if len(rep.Alarms) != 1 {
		t.Fatalf("alarms %+v, want exactly one (iteration 2)", rep.Alarms)
	}
	al := rep.Alarms[0]
	if al.Worker != 0 || al.Iter != 2 || math.Abs(al.Score-0.51) > 1e-9 {
		t.Fatalf("alarm %+v, want worker 0 iter 2 score 0.51", al)
	}
	if len(cb) != 1 || cb[0] != al {
		t.Fatalf("OnAlarm callback got %+v, want %+v", cb, al)
	}
	if got := m.Counter("predict_alarms").Value(); got != 1 {
		t.Fatalf("predict_alarms = %d, want 1", got)
	}
	if got := m.Counter("predict_joined").Value(); got != 10 {
		t.Fatalf("predict_joined = %d, want 10", got)
	}
	// Drift decays during recovery: the last score must be below threshold.
	last := rep.Scores[len(rep.Scores)-1]
	if last.Iter != 4 || last.Drift >= 0.5 || last.Alarmed {
		t.Fatalf("recovery score %+v, want drift < 0.5 and no alarm", last)
	}
}

func TestAuditorWarmupSuppressesFirstIteration(t *testing.T) {
	a := predict.NewAuditor(predict.Options{Threshold: 0.5})
	// Massive divergence immediately: iteration 0 seeds the EWMA above
	// threshold but must not alarm (warmup); iteration 1 must.
	feedIteration(a, 0, 0, 2, 0, 0.010, 0.100)
	feedIteration(a, 0, 1, 2, 1, 0.010, 0.100)
	a.Flush()
	rep := a.Report()
	if len(rep.Alarms) != 1 || rep.Alarms[0].Iter != 1 {
		t.Fatalf("alarms %+v, want exactly one at iteration 1", rep.Alarms)
	}
}

func TestAuditorUnjoinedCounted(t *testing.T) {
	a := predict.NewAuditor(predict.Options{})
	a.BeginIteration(0, 0, 0)
	a.SendPlanned(0, 0, 0, 0, 1e6, 0, 0.01)
	a.SendPlanned(0, 0, 1, 0, 1e6, 0.01, 0.02)
	// Only seq 0 is observed; seq 1's plan never joins.
	a.SendStart(0, 0, 0, 0, "push", 1e6, nil, 0)
	a.SendComplete(0, 0, 0, 0.01)
	a.EndIteration(0, 0, 0.02)
	a.Flush()
	rep := a.Report()
	if rep.Planned != 2 || rep.Joined != 1 {
		t.Fatalf("planned %d joined %d, want 2/1", rep.Planned, rep.Joined)
	}
	if len(rep.Scores) != 1 || rep.Scores[0].Unjoined != 1 {
		t.Fatalf("scores %+v, want one with Unjoined 1", rep.Scores)
	}
}

func TestAuditorStrayEventsIgnored(t *testing.T) {
	a := predict.NewAuditor(predict.Options{})
	// Complete without start, end without accumulator, unplanned span:
	// none may panic or fabricate residuals.
	a.SendComplete(0, 0, 0, 1)
	a.EndIteration(3, 9, 1)
	a.SendStart(0, 0, 7, 0, "push", 1e6, nil, 0)
	a.SendComplete(0, 0, 0, 0.5)
	a.FaultInjected(0, "stall", 0)
	a.Flush()
	rep := a.Report()
	if rep.Joined != 0 || len(rep.Alarms) != 0 {
		t.Fatalf("stray events produced joins/alarms: %+v", rep)
	}
}

func TestReportRenderAndJSON(t *testing.T) {
	a := predict.NewAuditor(predict.Options{Threshold: 0.5})
	feedIteration(a, 0, 0, 2, 0, 0.010, 0.010)
	feedIteration(a, 0, 1, 2, 1, 0.010, 0.030)
	a.Flush()

	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	if _, err := func() (int64, error) {
		buf := make([]byte, 4096)
		var n int64
		for {
			k, err := resp.Body.Read(buf)
			body.Write(buf[:k])
			n += int64(k)
			if err != nil {
				return n, nil
			}
		}
	}(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"joined": 4`, `"alarms"`, `"max_rel_err"`, `"iterations"`} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("/predict JSON missing %q:\n%s", want, body.String())
		}
	}
}

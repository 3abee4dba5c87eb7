package experiments

import "regexp"

// The three patterns below are the only parts of a rendered evaluation that
// are measured against a real clock (the live-emulation legs). Everything
// outside them is simulated and reproduces to the byte, which is what the
// serial≡parallel test here and cmd/prophet-bench's bench_results.txt golden
// compare after masking them.

// liveWallTime matches the wall-clock column of live-emulation rows
// ("wall 829ms"). Those runs execute real training against a real clock, so
// their durations differ between ANY two runs, serial or parallel; every
// simulated quantity must still match to the byte.
var liveWallTime = regexp.MustCompile(`wall\s+\S+`)

// liveFailFast matches the rendered error of the live fail-fast run in
// ext-fault. A real connection drop races the PS's reader against its
// writer, so whether "unexpected EOF" or "closed pipe" surfaces first is
// real-I/O timing, not simulation state — same caveat as wall clocks.
var liveFailFast = regexp.MustCompile(`error: emu: fail-fast: .*`)

// liveXportRow matches ext-live-transport's per-transport rows, where every
// numeric column (wall, t0, and the attribution decomposition) is measured
// against a real clock. The deterministic parts of that render — the row
// set, the push order, and the decisions-bit-identical flag — are outside
// this pattern and still compared to the byte; the Ack≡0 collective
// invariant is asserted by TestExtLiveTransportInvariants. The two-space
// indent keeps the sim-side ext-transport rows (four-space indent, fully
// deterministic) out of the mask.
var liveXportRow = regexp.MustCompile(`(?m)^  (ps|ps-mux|ring|tree) +[0-9. ]+$`)

// LiveClock lists the live-clock patterns for readers outside the package.
var LiveClock = []*regexp.Regexp{liveWallTime, liveFailFast, liveXportRow}

// Package schedule implements the communication scheduling strategies the
// paper evaluates, behind one interface both executors drive. The five
// baselines are one queue scheduler, Queue, and differ in a row of
// parameters — which generated gradient goes next, and how much one message
// may carry:
//
//	row            next      budget     slices  spans  stands for
//	fifo           release   0          no      no     default MXNet: whole gradients as generated
//	fusion         release   threshold  no      yes    Horovod's fusion buffer
//	tictac         priority  +∞         yes     no     TicTac (Hashemi et al., MLSys'19)
//	p3             priority  partition  yes     no     P3 (Jayarajan et al., MLSys'19)
//	bytescheduler  priority  credit     yes     yes    ByteScheduler (Peng et al., SOSP'19), credit optionally auto-tuned
//
// Prophet — the paper's contribution — is the one strategy that plans:
// profiled stepwise blocks assembled by Algorithm 1 (package core).
//
// A scheduler owns the *ordering* decision only. The executor reports
// gradient generation (OnGenerated) and link availability (Next); the
// scheduler answers with the next message to put on the wire.
package schedule

import "fmt"

// Piece is a (possibly partial) slice of one gradient inside a message.
type Piece struct {
	// Grad is the gradient index the bytes belong to.
	Grad int
	// Bytes is the payload carried for that gradient.
	Bytes float64
	// Last marks the piece that completes the gradient: after it arrives,
	// the parameter server can aggregate gradient Grad.
	Last bool
}

// Message is one network transfer: one or more pieces sent back to back
// with a single per-message overhead (they share a connection/window).
type Message struct {
	Pieces []Piece
	Bytes  float64
	// Label describes the message for traces, e.g. "block[12..24]".
	Label string
	// Stall is the sending strategy's engine dispatch cost for this
	// message, in seconds, serialized before the wire transfer. The four
	// strategies have very different implementation substrates (MXNet's
	// native engine, P3's sliced KVStore, ByteScheduler's Python core
	// with per-partition credit bookkeeping, Prophet's C++ BytePS core),
	// and the paper's measurements — ByteScheduler losing to P3 at
	// 3–4.5 Gbps in Table 2 despite coarser messages — are unexplainable
	// by wire behaviour alone. See DESIGN.md §5 (why the stall is row data)
	// and §6 (the calibration).
	Stall float64
}

// Priority returns the most critical gradient index carried, or a large
// sentinel for an empty message.
func (m Message) Priority() int {
	p := 1 << 30
	for _, pc := range m.Pieces {
		if pc.Grad < p {
			p = pc.Grad
		}
	}
	return p
}

// Completes lists the gradients this message finishes (pieces with Last).
func (m Message) Completes() []int {
	var out []int
	for _, pc := range m.Pieces {
		if pc.Last {
			out = append(out, pc.Grad)
		}
	}
	return out
}

func (m Message) String() string {
	return fmt.Sprintf("msg{%s %.0fB}", m.Label, m.Bytes)
}

// Scheduler decides the order and grouping of gradient transfers for one
// worker. Implementations are single-goroutine (driven by the simulator's
// event loop) and stateful across iterations.
type Scheduler interface {
	// Name identifies the strategy, e.g. "prophet".
	Name() string
	// BeginIteration resets per-iteration state before backward
	// propagation of iteration iter starts.
	BeginIteration(iter int)
	// OnGenerated reports that gradient g was released by the aggregation
	// layer at simulation time now.
	OnGenerated(g int, now float64)
	// Next returns the next message to transmit when the uplink is free.
	// ok is false when nothing is currently eligible (the link idles until
	// the next OnGenerated). The message's Pieces stay the scheduler's: the
	// caller reads them and never writes them.
	Next(now float64) (msg Message, ok bool)
	// OnSent reports that a previously returned message finished its
	// uplink transfer, and hands the message's Pieces back: from here on
	// the scheduler may overwrite and reuse them, so the caller must have
	// copied whatever it still reads (drive.Driver copies every message's
	// pieces when it enqueues it).
	OnSent(msg Message, start, end float64)
	// OnIterationEnd reports the duration of the completed iteration
	// (used by auto-tuners).
	OnIterationEnd(iterDur float64)
}

package ps

import "prophet/internal/transport"

// payloads is the process-wide frame payload pool: every server connection
// reader and client response reader recycles wire buffers through it, so a
// payload freed on one connection serves the next read on any other.
var payloads = transport.NewPayloadPool()

// floats recycles decoded []float64 gradient buffers the same way the
// payload pool recycles wire bytes: push contributions live from decode
// until the slot aggregates (the server recycles them after summing), and
// pull results live from decode until the worker has consumed them (the
// caller recycles via WorkerLink.Recycle once done).
var floats transport.FloatPool

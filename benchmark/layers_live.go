package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"prophet/internal/collective"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/ps"
	"prophet/internal/transport"
)

// Layer replays of the live stack: nn → transport → ps / collective. Each
// calls the layer's public API with the message shapes the workload
// produces (tensor sizes, worker count, bandwidth), from outside the
// program, and records spans around the calls.

// constGrads returns one gradient per worker for a tensor of n elements:
// worker w pushes w+1 everywhere, so the mean is (W+1)/2 exactly.
func constGrads(workers, n int) [][]float64 {
	out := make([][]float64, workers)
	for w := range out {
		out[w] = make([]float64, n)
		for i := range out[w] {
			out[w][i] = float64(w + 1)
		}
	}
	return out
}

func largest(elems []int) (idx int) {
	for i, n := range elems {
		if n > elems[idx] {
			idx = i
		}
	}
	return idx
}

// replayNN times the plain single-worker, no-wire baseline: one training
// step and one full-dataset loss evaluation at the workload's shape.
func (p *pass) replayNN(parent int) error {
	l := p.live
	m := nn.NewMLP(l.layers, p.seed)
	ds := nn.Blobs(2048, l.layers[0], l.layers[len(l.layers)-1], p.seed)
	lo := 0
	per, err := p.tr.loop("nn.MLP.Forward+Backward+Step", parent, p.slice/2, func(int) (int, error) {
		for i := 0; i < 10; i++ {
			x, labels := ds.Batch(lo, lo+l.batch)
			m.Backward(m.Forward(x), labels, nil)
			m.Step(0.1)
			lo = (lo + l.batch) % (ds.X.Rows - l.batch + 1)
		}
		return 10, nil
	})
	if err != nil {
		return err
	}
	p.set("nn.fwd_bwd_step_ms", 1e3*per)
	per, err = p.tr.loop("nn.MLP.Loss", parent, p.slice/2, func(int) (int, error) {
		for i := 0; i < 10; i++ {
			if l := m.Loss(ds.X, ds.Labels); math.IsNaN(l) {
				return i, fmt.Errorf("nn replay: loss is NaN")
			}
		}
		return 10, nil
	})
	p.set("nn.loss_eval_ms", 1e3*per)
	return err
}

// replayFrames times the frame codec at the workload's tensor sizes.
func (p *pass) replayFrames(parent int) error {
	elems := p.live.tensorElems()
	grads := make([][]float64, len(elems))
	for t, n := range elems {
		grads[t] = constGrads(1, n)[0]
	}
	fw := transport.NewFrameWriter(io.Discard)
	write := func(int) (int, error) {
		for rep := 0; rep < 50; rep++ {
			for t, g := range grads {
				if err := fw.WriteFloats(transport.Push, 1, uint32(t), g); err != nil {
					return 0, err
				}
			}
		}
		return 50 * len(grads), nil
	}
	var enc bytes.Buffer
	ew := transport.NewFrameWriter(&enc)
	for t, g := range grads {
		if err := ew.WriteFloats(transport.Push, 1, uint32(t), g); err != nil {
			return err
		}
	}
	stream := enc.Bytes()
	rd := bytes.NewReader(stream)
	fr := transport.NewFrameReader(rd, transport.NewPayloadPool())
	read := func(int) (int, error) {
		for rep := 0; rep < 50; rep++ {
			rd.Reset(stream)
			for range grads {
				f, err := fr.Read()
				if err != nil {
					return 0, err
				}
				fr.Recycle(f)
			}
		}
		return 50 * len(grads), nil
	}
	per, err := p.tr.loop("transport.FrameWriter.WriteFloats", parent, p.slice/2, write)
	if err != nil {
		return err
	}
	p.set("transport.frame_write_ns", 1e9*per)
	per, err = p.tr.loop("transport.FrameReader.Read+Recycle", parent, p.slice/2, read)
	if err != nil {
		return err
	}
	p.set("transport.frame_read_ns", 1e9*per)
	// Steady-state allocations of one write + one read, per frame.
	before := mallocs()
	nw, _ := write(0)
	nr, _ := read(0)
	p.set("transport.codec_allocs", float64(mallocs()-before)/float64(nw+nr)*2)
	return nil
}

// pipeSizes are the message sizes of the unshaped-pipe ceiling row.
var pipeSizes = []struct {
	suffix string
	bytes  int
}{{"4k", 4 << 10}, {"64k", 64 << 10}, {"1m", 1 << 20}}

// replayPipe measures the ceiling: one-way throughput of an unshaped
// transport.Pipe, the wire every live engine sits on.
func (p *pass) replayPipe(parent int) error {
	for _, sz := range pipeSizes {
		a, b := transport.Pipe(0, 0)
		msg := make([]byte, sz.bytes)
		buf := make([]byte, sz.bytes)
		n := max(16, (8<<20)/sz.bytes)
		per, err := p.tr.loop("transport.Pipe.Write+Read."+sz.suffix, parent, p.slice/3, func(int) (int, error) {
			werr := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					if _, err := a.Write(msg); err != nil {
						werr <- err
						return
					}
				}
				werr <- nil
			}()
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(b, buf); err != nil {
					a.Close() // unblocks the writer
					<-werr
					return i, err
				}
			}
			return n, <-werr
		})
		a.Close()
		b.Close()
		if err != nil {
			return err
		}
		p.set("transport.pipe_mbps_"+sz.suffix, float64(sz.bytes)/per/1e6)
	}
	return nil
}

// ceilingMBps returns the measured pipe ceiling at the size nearest to
// bytes (in ratio).
func (p *pass) ceilingMBps(bytes float64) float64 {
	best, bestDist := 0.0, math.Inf(1)
	for _, sz := range pipeSizes {
		if d := math.Abs(math.Log(bytes / float64(sz.bytes))); d < bestDist {
			best, bestDist = p.out["transport.pipe_mbps_"+sz.suffix], d
		}
	}
	return best
}

// replayLimiter checks the token bucket: bytes delivered over a Pipe
// shaped to the workload's rate, with its message sizes, against rate·time.
func (p *pass) replayLimiter(parent int) error {
	l := p.shaped
	var frames [][]byte
	for _, n := range l.tensorElems() {
		frames = append(frames, make([]byte, 13+8*n))
	}
	a, b := transport.Pipe(l.bandwidth, 0)
	id := p.tr.begin("transport.Limiter.Wait", parent)
	start := time.Now()
	deadline := start.Add(max(p.slice, 50*time.Millisecond))
	written := make(chan error, 1)
	go func() {
		defer a.Close()
		for i := 0; time.Now().Before(deadline); i++ {
			if _, err := a.Write(frames[i%len(frames)]); err != nil {
				written <- err
				return
			}
		}
		written <- nil
	}()
	delivered, err := io.Copy(io.Discard, b)
	elapsed := time.Since(start).Seconds()
	p.tr.end(id, 1)
	b.Close()
	if werr := <-written; werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	p.set("transport.limiter_rate_err_pct", 100*(float64(delivered)/(l.bandwidth*elapsed)-1))
	return nil
}

// muxPair builds two MuxConns over one unshaped pipe. onFrame runs on the
// server side's demux goroutine for every data frame, before Done.
func muxPair(streams int, onFrame func(stream uint32, f *transport.Frame)) (client, server *transport.MuxConn, wait func()) {
	a, b := transport.Pipe(0, 0)
	opts := transport.MuxOptions{Streams: streams, Pool: transport.NewPayloadPool(), AutoGrant: true}
	client, server = transport.NewMuxConn(a, opts), transport.NewMuxConn(b, opts)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			stream, f, err := server.Read()
			if err != nil {
				return
			}
			if onFrame != nil {
				onFrame(stream, f)
			}
			server.Done(stream, f)
		}
	}()
	return client, server, wg.Wait
}

// replayMux times the stream multiplexer: a SendFloats → Read → Done echo
// on one stream, and 64 streams sending tensor-size frames concurrently.
func (p *pass) replayMux(parent int) error {
	const streams = 64
	elems := p.live.tensorElems()
	big := constGrads(1, elems[largest(elems)])[0]

	// Echo: the server's demux loop must never write, so a second
	// goroutine sends the reply; the client's demux loop signals arrival.
	echo := make(chan uint32, 1)
	client, server, waitServer := muxPair(streams, func(stream uint32, _ *transport.Frame) { echo <- stream })
	back := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for stream := range echo {
			if server.SendFloats(stream, transport.PullResp, 0, 0, big) != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			stream, f, err := client.Read()
			if err != nil {
				close(back)
				return
			}
			client.Done(stream, f)
			back <- struct{}{}
		}
	}()
	per, err := p.tr.loop("transport.MuxConn.SendFloats+Read+Done.echo", parent, p.slice/2, func(int) (int, error) {
		for i := 0; i < 100; i++ {
			if err := client.SendFloats(0, transport.Push, uint32(i), 0, big); err != nil {
				return i, err
			}
			if _, ok := <-back; !ok {
				return i, fmt.Errorf("mux replay: connection lost")
			}
		}
		return 100, nil
	})
	client.Close()
	server.Close()
	waitServer()
	close(echo)
	wg.Wait()
	if err != nil {
		return err
	}
	p.set("transport.mux_rtt_us", 1e6*per)

	// Throughput: every stream sends the model's tensors, in push order.
	grads := make([][]float64, len(elems))
	payload := 0
	for t, n := range elems {
		grads[t] = constGrads(1, n)[0]
		payload += 8 * n
	}
	client, server, waitServer = muxPair(streams, nil)
	wg.Add(1)
	go func() { // drains the credit grants the server returns
		defer wg.Done()
		for {
			stream, f, err := client.Read()
			if err != nil {
				return
			}
			client.Done(stream, f)
		}
	}()
	const rounds = 10
	per, err = p.tr.loop("transport.MuxConn.SendFloats.w64", parent, p.slice/2, func(int) (int, error) {
		errs := make([]error, streams)
		var senders sync.WaitGroup
		for s := 0; s < streams; s++ {
			senders.Add(1)
			go func(s int) {
				defer senders.Done()
				for r := 0; r < rounds; r++ {
					for t := len(grads) - 1; t >= 0; t-- {
						if err := client.SendFloats(uint32(s), transport.Push, uint32(r), uint32(t), grads[t]); err != nil {
							errs[s] = err
							return
						}
					}
				}
			}(s)
		}
		senders.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return rounds * streams, nil
	})
	client.Close()
	server.Close()
	waitServer()
	wg.Wait()
	if err != nil {
		return err
	}
	p.set("transport.mux_mbps_w64", float64(payload)/per/1e6)
	return nil
}

// psRig is a parameter server with W connected clients over unshaped
// pipes: dedicated connections (Serve) or one shared one (ServeMux).
type psRig struct {
	links   []ps.WorkerLink
	closers []io.Closer
	served  chan error
}

func newPSRig(workers int, mux bool) *psRig {
	srv := ps.NewServer(workers)
	r := &psRig{links: make([]ps.WorkerLink, workers), served: make(chan error, 1)}
	if mux {
		a, b := transport.Pipe(0, 0)
		g := ps.NewMuxGroup(a, workers, ps.MuxGroupOptions{})
		ids := make([]int, workers)
		for w := range ids {
			ids[w] = w
			r.links[w] = g.Worker(w)
		}
		r.closers = []io.Closer{g, b}
		go func() { r.served <- srv.ServeMux(b, ids) }()
		return r
	}
	conns := make([]net.Conn, workers)
	for w := range conns {
		a, b := transport.Pipe(0, 0)
		c := ps.NewClient(a)
		r.links[w], conns[w] = c, b
		r.closers = append(r.closers, c, b)
	}
	go func() { r.served <- srv.Serve(conns) }()
	return r
}

// close tears the rig down and waits for the server to return.
func (r *psRig) close() {
	for _, c := range r.closers {
		c.Close()
	}
	<-r.served
}

// round has every worker push its gradient of each listed tensor and pull
// the aggregate, until all hold the mean. batch sends a worker's tensors
// as one PushPullBatch instead of Push + Pull per tensor.
func (r *psRig) round(iter int, tensors []int, grads [][][]float64, batch bool) error {
	want := float64(len(r.links)+1) / 2
	errs := make([]error, len(r.links))
	var wg sync.WaitGroup
	for w, link := range r.links {
		wg.Add(1)
		go func(w int, link ps.WorkerLink) {
			defer wg.Done()
			check := func(t int, data []float64, err error) error {
				if err != nil {
					return err
				}
				if len(data) != len(grads[t][w]) || data[0] != want || data[len(data)-1] != want {
					return fmt.Errorf("ps replay: worker %d tensor %d: aggregate is not the mean %v", w, t, want)
				}
				link.Recycle(data)
				return nil
			}
			if batch {
				chans := make(map[int]<-chan ps.PullResult, len(tensors))
				errs[w] = link.PushPullBatch(iter, tensors, func(t int) []float64 { return grads[t][w] },
					func(t int, ch <-chan ps.PullResult) { chans[t] = ch })
				for _, t := range tensors {
					if errs[w] != nil {
						return
					}
					res, ok := <-chans[t]
					if !ok {
						errs[w] = fmt.Errorf("ps replay: worker %d: pull channel closed", w)
						return
					}
					errs[w] = check(t, res.Data, res.Err)
				}
				return
			}
			for _, t := range tensors {
				if errs[w] = link.Push(iter, t, grads[t][w]); errs[w] != nil {
					return
				}
				data, err := link.Pull(iter, t)
				if errs[w] = check(t, data, err); errs[w] != nil {
					return
				}
			}
		}(w, link)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayPS times the parameter server over both of its wires.
func (p *pass) replayPS(parent int) error {
	l := p.psLive
	elems := l.tensorElems()
	grads := make([][][]float64, len(elems))
	all := make([]int, len(elems))
	modelBytes := 0
	for t, n := range elems {
		grads[t] = constGrads(l.workers, n)
		all[len(elems)-1-t] = t // push order: backward emits high indices first
		modelBytes += 8 * n
	}
	one := []int{largest(elems)}
	iter := 0
	timeRounds := func(name string, rig *psRig, tensors []int, batch bool, budget time.Duration) (float64, error) {
		return p.tr.loop(name, parent, budget, func(int) (int, error) {
			for i := 0; i < 5; i++ {
				iter++
				if err := rig.round(iter, tensors, grads, batch); err != nil {
					return i, err
				}
			}
			return 5, nil
		})
	}

	conns := newPSRig(l.workers, false)
	per, err := timeRounds("ps.Serve.Push+Pull", conns, one, false, p.slice/3)
	conns.close()
	if err != nil {
		return err
	}
	p.set("ps.round_us_conns", 1e6*per)

	mux := newPSRig(l.workers, true)
	defer mux.close()
	before, iter0 := mallocs(), iter
	per, err = timeRounds("ps.ServeMux.Push+Pull", mux, one, false, p.slice/3)
	if err != nil {
		return err
	}
	p.set("ps.round_us_mux", 1e6*per)
	p.set("ps.allocs_per_round", float64(mallocs()-before)/float64(iter-iter0))
	per, err = timeRounds("ps.ServeMux.PushPullBatch", mux, all, true, p.slice/3)
	if err != nil {
		return err
	}
	p.set("ps.batch_round_us_mux", 1e6*per)
	// Payload moved by a batch round (every worker pushes and pulls the
	// model) over the pipe's ceiling at the batch's write size.
	mbps := 2 * float64(modelBytes*l.workers) / per / 1e6
	p.set("ps.mux_over_ceiling", mbps/p.ceilingMBps(float64(modelBytes)))
	return nil
}

// replayCollective times internal/collective alone: W peers all-reducing
// one iteration's gradients, tensor by tensor in push order, as the fifo
// schedule dispatches them.
func (p *pass) replayCollective(parent int) error {
	l := p.ring
	elems := l.tensorElems()
	want := float64(l.workers+1) / 2
	run := func(backend string, stepSpans bool) (perIter float64, steps int, stepS float64, wireBytes float64, err error) {
		met := probe.NewMetrics()
		fab, err := collective.New(backend, l.workers, 0, collective.Options{Metrics: met, Clock: p.tr.now})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer fab.Close()
		bufs := make([][][]float64, l.workers)
		for w := range bufs {
			bufs[w] = make([][]float64, len(elems))
			for t, n := range elems {
				bufs[w][t] = make([]float64, n)
			}
		}
		iters := 0
		perIter, err = p.tr.loop("collective.AllReduce."+backend, parent, p.slice/2, func(id int) (int, error) {
			errs := make([]error, l.workers)
			var wg sync.WaitGroup
			for w := 0; w < l.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var onStep collective.StepFunc
					if w == 0 && stepSpans {
						onStep = func(step, _ int, _ float64, start, end float64) {
							p.tr.add("collective.step", id, start, end)
							steps++
							stepS += end - start
						}
					}
					peer := fab.Peer(w)
					for t := len(elems) - 1; t >= 0; t-- {
						buf := bufs[w][t]
						for i := range buf {
							buf[i] = float64(w + 1)
						}
						if errs[w] = peer.AllReduce(iters, buf, onStep); errs[w] != nil {
							return
						}
						if buf[0] != want || buf[len(buf)-1] != want {
							errs[w] = fmt.Errorf("collective replay: peer %d tensor %d: result is not the mean %v", w, t, want)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			iters++
			for _, err := range errs {
				if err != nil {
					return 0, err
				}
			}
			return 1, nil
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		wireBytes = float64(met.Counter("transport_collective_tx_bytes").Value()) / float64(iters)
		return perIter, steps / iters, stepS / float64(max(steps, 1)), wireBytes, nil
	}
	perIter, steps, stepS, wire, err := run("ring", true)
	if err != nil {
		return err
	}
	p.set("collective.allreduce_ms_ring", 1e3*perIter)
	p.set("collective.step_us_ring", 1e6*stepS)
	p.set("collective.steps_per_iter", float64(steps))
	p.set("collective.bytes_per_iter", wire)
	p.set("collective.ring_over_ceiling", wire/perIter/1e6/p.ceilingMBps(wire/float64(max(steps*l.workers, 1))))
	perIter, _, _, _, err = run("tree", false)
	if err != nil {
		return err
	}
	p.set("collective.allreduce_ms_tree", 1e3*perIter)
	return nil
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/executor"
)

// The traced run measures each layer from outside the program: it
// wraps the core.Router the smart client routes through, so every
// NodeConn call (the wire round trip, or the in-process vBucket call)
// becomes a child span of the client op that issued it, and it nests
// the executor.Profile phases a query reports under the query span.
// Nothing inside the program is instrumented for this; the program's
// own sampled tracer stays off.

// span is one timed interval of one benchmark op. Times are
// nanoseconds since the traced window began; Parent 0 marks the op's
// root span.
type span struct {
	Op     uint64 `json:"op"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    string `json:"err,omitempty"`
}

// maxKeptSpans bounds the spans each client keeps for the span file,
// so a long traced window cannot grow the process under test without
// limit. Self times are computed for every op regardless.
const maxKeptSpans = 1 << 14

// opTrace collects the spans of the op in flight on one client.
type opTrace struct {
	epoch time.Time
	op    uint64
	spans []span
}

type opTraceKey struct{}

func (t *opTrace) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the root span of the next op and returns the context the
// wrapped router finds it through.
func (t *opTrace) begin(name string) context.Context {
	t.op++
	t.spans = append(t.spans[:0], span{Op: t.op, ID: 1, Name: name, Start: t.now()})
	return context.WithValue(context.Background(), opTraceKey{}, t)
}

// child records a completed child span of the root.
func (t *opTrace) child(name string, start, end int64, err error) {
	s := span{Op: t.op, ID: uint32(len(t.spans) + 1), Parent: 1, Name: name, Start: start, End: end}
	if err != nil {
		s.Err = err.Error()
	}
	t.spans = append(t.spans, s)
}

// end closes the root span.
func (t *opTrace) end(err error) {
	root := &t.spans[0]
	root.End = t.now()
	if err != nil {
		root.Err = err.Error()
	}
}

// self is the root's self time: its duration minus the part of it its
// children cover.
func (t *opTrace) self() int64 {
	root := t.spans[0]
	return selfTime(root.Start, root.End, t.spans[1:])
}

// selfTime is the length of [start, end) not covered by any child
// interval. Overlapping children (possible for parallel sub-calls) are
// merged first so covered time is not counted twice.
func selfTime(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, start), min(c.End, end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, curS, curE := int64(0), int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	if curE > curS {
		covered += curE - curS
	}
	return end - start - covered
}

// addPhases nests executor.Profile phases under the query root span.
// The profile gives each phase's duration but not its start, and the
// phases run one after another, so they are laid end to end from the
// root's start.
func (t *opTrace) addPhases(phases []executor.PhaseTiming) {
	at := t.spans[0].Start
	for _, ph := range phases {
		d := int64(ph.Elapsed)
		t.child(ph.Operator, at, at+d, nil)
		at += d
	}
}

// tracedRouter is the benchmark-side core.Router: the program's own
// map source, with every NodeConn wrapped to time the node call.
type tracedRouter struct {
	bucketMap func() (*cmap.Map, error)
	conn      func(cmap.NodeID) (core.NodeConn, error)
	// layer names the node call's span: "vbucket" in process,
	// "transport" over the wire.
	layer string
}

func (r tracedRouter) BucketMap() (*cmap.Map, error) { return r.bucketMap() }

func (r tracedRouter) Conn(id cmap.NodeID) (core.NodeConn, error) {
	nc, err := r.conn(id)
	if err != nil {
		return nil, err
	}
	return tracedConn{NodeConn: nc, layer: r.layer}, nil
}

// tracedConn times the two calls the benchmark issues; the rest of the
// NodeConn surface passes through untouched.
type tracedConn struct {
	core.NodeConn
	layer string
}

func (c tracedConn) record(ctx context.Context, op string, start int64, err error) {
	if t, ok := ctx.Value(opTraceKey{}).(*opTrace); ok {
		t.child(c.layer+"."+op, start, t.now(), err)
	}
}

func spanStart(ctx context.Context) int64 {
	if t, ok := ctx.Value(opTraceKey{}).(*opTrace); ok {
		return t.now()
	}
	return 0
}

func (c tracedConn) Get(ctx context.Context, vbID int, key string, now int64) (cache.Item, error) {
	s := spanStart(ctx)
	it, err := c.NodeConn.Get(ctx, vbID, key, now)
	c.record(ctx, "get", s, err)
	return it, err
}

func (c tracedConn) Set(ctx context.Context, vbID int, key string, value []byte, flags uint32, expiry int64, casCheck uint64, now int64, dur core.DurabilityOptions) (cache.Item, error) {
	s := spanStart(ctx)
	it, err := c.NodeConn.Set(ctx, vbID, key, value, flags, expiry, casCheck, now, dur)
	c.record(ctx, "set", s, err)
	return it, err
}

// childSamples files each child span's duration under its name.
func (t *opTrace) childSamples(into map[string]*samples) {
	for _, s := range t.spans[1:] {
		p := into[s.Name]
		if p == nil {
			p = new(samples)
			into[s.Name] = p
		}
		p.add(s.End - s.Start)
	}
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

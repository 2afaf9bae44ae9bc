package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/vbucket"
)

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{sp(10, 30)}, 80},
		{"disjoint", []span{sp(10, 20), sp(50, 70)}, 70},
		{"overlapping counted once", []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested", []span{sp(10, 90), sp(20, 30)}, 20},
		{"clipped to parent", []span{sp(-50, 10), sp(90, 200)}, 80},
		{"outside parent", []span{sp(200, 300)}, 100},
		{"unsorted", []span{sp(60, 70), sp(0, 10)}, 80},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// fakeConn is a NodeConn whose Get takes a fixed time and whose Set
// fails with not-my-vbucket.
type fakeConn struct{ core.NodeConn }

func (fakeConn) Get(ctx context.Context, vbID int, key string, now int64) (cache.Item, error) {
	time.Sleep(2 * time.Millisecond)
	return cache.Item{Key: key}, nil
}

func (fakeConn) Set(ctx context.Context, vbID int, key string, value []byte, flags uint32, expiry int64, casCheck uint64, now int64, dur core.DurabilityOptions) (cache.Item, error) {
	return cache.Item{}, fmt.Errorf("wrapped: %w", vbucket.ErrNotMyVBucket)
}

func TestTracedConnRecordsChildSpans(t *testing.T) {
	tr := &opTrace{epoch: time.Now()}
	nc := tracedConn{NodeConn: fakeConn{}, layer: "vbucket"}
	ctx := tr.begin("core.get")
	time.Sleep(time.Millisecond)
	if _, err := nc.Get(ctx, 0, "k", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Set(ctx, 0, "k", nil, 0, 0, 0, 0, core.DurabilityOptions{}); !errors.Is(err, vbucket.ErrNotMyVBucket) {
		t.Fatalf("set error = %v", err)
	}
	tr.end(nil)
	dur, self := tr.spans[0].End-tr.spans[0].Start, tr.self()
	if len(tr.spans) != 3 || tr.spans[1].Name != "vbucket.get" || tr.spans[2].Name != "vbucket.set" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	get := tr.spans[1].End - tr.spans[1].Start
	if get < int64(2*time.Millisecond) {
		t.Errorf("get span %v shorter than the call", time.Duration(get))
	}
	if self <= 0 || self > dur-get {
		t.Errorf("self %v not within (0, dur %v - get %v]", time.Duration(self), time.Duration(dur), time.Duration(get))
	}
	if tr.spans[2].Err == "" {
		t.Error("failed node call recorded without its error")
	}
	into := map[string]*samples{}
	tr.childSamples(into)
	if len(*into["vbucket.get"]) != 1 || len(*into["vbucket.set"]) != 1 {
		t.Errorf("child samples = %v", into)
	}
	// Without an op in the context the wrapper only passes through.
	if _, err := nc.Get(context.Background(), 0, "k", 0); err != nil {
		t.Fatal(err)
	}
}

func TestAddPhasesNestsProfileUnderQuery(t *testing.T) {
	tr := &opTrace{epoch: time.Now()}
	tr.begin("query")
	tr.addPhases([]executor.PhaseTiming{
		{Operator: "parse", Elapsed: 10},
		{Operator: "scan", Elapsed: 30},
	})
	root := tr.spans[0]
	if p, s := tr.spans[1], tr.spans[2]; p.Start != root.Start || p.End != root.Start+10 || s.Start != p.End || s.End != s.Start+30 || s.Parent != 1 {
		t.Fatalf("phases laid out as %+v", tr.spans)
	}
	time.Sleep(time.Millisecond)
	tr.end(nil)
	dur, self := tr.spans[0].End-tr.spans[0].Start, tr.self()
	if self != dur-40 {
		t.Errorf("query self = %d, want dur-40 = %d", self, dur-40)
	}
}

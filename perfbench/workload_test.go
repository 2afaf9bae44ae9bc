package main

import (
	"testing"

	"couchgo/internal/query"
	"couchgo/internal/ycsb"
)

func TestRecordStamp(t *testing.T) {
	r := rngFor(7, "t", 0)
	key := ycsb.KeyName(42)
	doc := buildRecord(r, key, 0x1_00000000a3)
	if len(doc) != recordLen {
		t.Fatalf("record is %d bytes, want %d", len(doc), recordLen)
	}
	if !stampedBy(doc, key) || stampedBy(doc, ycsb.KeyName(43)) {
		t.Errorf("stamp check wrong for %s", doc[:48])
	}
	if v, ok := stampVersion(doc); !ok || v != 0x1_00000000a3 {
		t.Errorf("version = %x, %v", v, ok)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a := buildRecord(rngFor(1, "load", 3), "k", 0)
	b := buildRecord(rngFor(1, "load", 3), "k", 0)
	c := buildRecord(rngFor(2, "load", 3), "k", 0)
	d := buildRecord(rngFor(1, "load", 4), "k", 0)
	if string(a) != string(b) {
		t.Error("same seed and stream gave different records")
	}
	if string(a) == string(c) || string(a) == string(d) {
		t.Error("different seed or client gave the same record")
	}
}

func TestAckTableKeepsHighestCAS(t *testing.T) {
	a := newAckTable(10)
	a.record(3, 5, 50)
	a.record(3, 9, 90)
	a.record(3, 7, 70) // acknowledged later but with a lower CAS
	a.record(12, 4, 40)
	got := map[int64]ack{}
	a.each(func(k int64, w ack) { got[k] = w })
	if got[3] != (ack{9, 90}) || got[12] != (ack{4, 40}) || len(got) != 11 {
		t.Errorf("acks = %v", got)
	}
}

func TestCheckScan(t *testing.T) {
	rows := func(keys ...int64) *query.Result {
		res := &query.Result{}
		for _, k := range keys {
			res.Rows = append(res.Rows, map[string]any{"id": ycsb.KeyName(k)})
		}
		return res
	}
	for _, c := range []struct {
		name string
		res  *query.Result
		bad  bool
	}{
		{"exact", rows(5, 6, 7), false},
		{"short", rows(5, 6), true},
		{"gap", rows(5, 7, 8), true},
		{"wrong start", rows(4, 5, 6), true},
	} {
		v := &violations{}
		checkScan(v, c.res, 5, 3)
		if got := v.n.Load() > 0; got != c.bad {
			t.Errorf("%s: violation = %v, want %v", c.name, got, c.bad)
		}
	}
}

func TestMixFollowsPercentages(t *testing.T) {
	w, err := workloadByName("query-range")
	if err != nil {
		t.Fatal(err)
	}
	r := rngFor(1, "mix", 0)
	var n [numOpKinds]int
	for i := 0; i < 100000; i++ {
		n[w.pick(r)]++
	}
	if n[opRead] != 0 || n[opUpdate] != 0 || n[opScan] < 94000 || n[opScan] > 96000 {
		t.Errorf("query-range mix = %v", n)
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

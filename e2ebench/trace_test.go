package main

import (
	"testing"
	"time"
)

// One request: 10 units at the client, of which 1 is codec and 6 the
// sharded search, whose two children ran in parallel for 4 and 5.
func TestSelfTimesAddUpToTheRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "promipsd", Name: "client.Search", StartNs: 100, EndNs: 110},
		{ID: 2, Parent: 1, Layer: "client", Name: "json codec", StartNs: 100, EndNs: 101},
		{ID: 3, Parent: 1, Layer: "shard", Name: "shard.Index.Search", StartNs: 101, EndNs: 107},
		{ID: 4, Parent: 3, Layer: "promips", Name: "promips.Index.Search", StartNs: 101, EndNs: 105},
		{ID: 5, Parent: 3, Layer: "promips", Name: "promips.Index.Search", StartNs: 101, EndNs: 106},
		{ID: 6, Layer: "loadgen", Name: "open.search", StartNs: 0, EndNs: 50}, // another root: not part of the ladder
	}
	self, root, clipped := selfTimes(spans, "client.Search")
	want := map[string]int64{"promipsd": 3, "client": 1, "shard": 1, "promips": 5}
	var sum int64
	for layer, ns := range want {
		if self[layer] != ns {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], ns)
		}
		sum += self[layer]
	}
	if root != 10 || sum != root || clipped != 0 || len(self) != len(want) {
		t.Errorf("root %d, sum of self times %d, clipped %d, layers %v", root, sum, clipped, self)
	}

	// A replayed child that outlasts its parent is clipped, and reported.
	spans[2].EndNs = 112
	self, root, clipped = selfTimes(spans, "client.Search")
	if self["promipsd"] != 0 || root != 10 || clipped != 2 {
		t.Errorf("overlong child: promipsd self %d, root %d, clipped %d; want 0, 10, 2", self["promipsd"], root, clipped)
	}
}

func TestEmitNestsTheSeams(t *testing.T) {
	tr := &tracer{t0: time.Unix(0, 0)}
	rungs := []rung{{
		op: op{kind: opSearch}, start: time.Unix(0, 1000),
		e2e: 900, codec: 100, shard: 600, child: []time.Duration{400, 500},
	}}
	tr.emit(rungs)
	self, root, clipped := selfTimes(tr.spans, "client.Search")
	if root != 900 || clipped != 0 || self["promipsd"] != 200 || self["client"] != 100 || self["shard"] != 100 || self["promips"] != 500 {
		t.Errorf("root %d clipped %d self %v", root, clipped, self)
	}
	for _, s := range tr.spans {
		if s.Query != 0 || s.ID == 0 || (s.Parent == 0) != (s.Layer == "promipsd") {
			t.Errorf("span %+v: spans of one operation share its query id and hang off one root", s)
		}
	}
}

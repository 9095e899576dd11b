package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "fog1.flush", Node: "fog1/a", Start: 0, End: 100},
		// Overlapping children cover 10..50; a later one 60..70; one
		// runs past the flush's end and counts only up to it.
		{Name: "send.fog1_fog2", Node: "fog1/a", Start: 20, End: 50},
		{Name: "send.fog1_fog2", Node: "fog1/a", Start: 10, End: 30},
		{Name: "send.fog1_fog2", Node: "fog1/a", Start: 60, End: 70},
		{Name: "send.fog1_fog2", Node: "fog1/a", Start: 95, End: 120},
		// Another node's send is not a child.
		{Name: "send.fog1_fog2", Node: "fog1/b", Start: 0, End: 100},
		{Name: "fog1.flush", Node: "fog1/b", Start: 200, End: 210},
	}
	// fog1/a: 100 - (40 + 10 + 5) = 45; fog1/b: 10, no child inside.
	if got := selfTime(spans, "fog1.flush"); got != 55 {
		t.Fatalf("self time = %d, want 55", got)
	}
}

func TestHopOf(t *testing.T) {
	for _, tc := range []struct{ from, to, want string }{
		{"edge/fog1/d01-s01", "fog1/d01-s01", hopEdgeFog1},
		{"fog1/d01-s01", "fog2/d01", hopFog1Fog2},
		{"fog2/d01", "cloud", hopFog2Cloud},
		{"client/q0", "cloud", hopClientQuery},
		{"client/q0", "fog2/d02", hopClientQuery},
		{"bench/ctl", "cloud", ""},
	} {
		if got := hopOf(tc.from, tc.to); got != tc.want {
			t.Errorf("hopOf(%q, %q) = %q, want %q", tc.from, tc.to, got, tc.want)
		}
	}
}

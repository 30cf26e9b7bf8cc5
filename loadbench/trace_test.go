package main

import (
	"reflect"
	"testing"
)

// handTree is one request: a root over [0,100] with two children, the second
// of which has a grandchild, plus a second request that is a bare root.
//
//	root  [0,100]  cpu 90
//	  a   [10,30]  cpu 20
//	  b   [40,90]  cpu 30   (20 off-CPU)
//	    c [50,70]  cpu 5    (15 off-CPU)
//	root2 [100,110] cpu 10
func handTree() []span {
	return []span{
		{ID: 1, Parent: 0, Req: 1, Name: "query", Start: 0, End: 100, CPU: 90},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 30, CPU: 20},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 40, End: 90, CPU: 30},
		{ID: 4, Parent: 3, Req: 1, Name: "c", Start: 50, End: 70, CPU: 5},
		{ID: 5, Parent: 0, Req: 2, Name: "query", Start: 100, End: 110, CPU: 10},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(handTree())
	want := []selfTime{
		// root: 100 - (20 + 50) = 30 self; off-CPU 10, minus children's 20+15: none of its own.
		{self: 30, wait: 0},
		{self: 20, wait: 0},
		// b: 50 - 20 = 30 self; off-CPU 20, minus c's 15 = 5.
		{self: 30, wait: 5},
		{self: 20, wait: 15},
		{self: 10, wait: 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %+v, want %+v", got, want)
	}
	if bad := treeErrors(handTree()); len(bad) != 0 {
		t.Fatalf("treeErrors = %v, want none", bad)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two overlapping children and one sticking out of its parent: covered
	// time is the union clipped to the parent, [10,60] = 50.
	spans := []span{
		{ID: 1, Req: 1, Name: "query", Start: 0, End: 60, CPU: 60},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40, CPU: 30},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 20, End: 50, CPU: 30},
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 45, End: 80, CPU: 35},
	}
	if got := selfTimes(spans)[0].self; got != 10 {
		t.Fatalf("root self = %d, want 10", got)
	}
}

func TestTreeErrorsFlagsEscapingChild(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "query", Start: 0, End: 10, CPU: 10},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 5, End: 20, CPU: 15},
	}
	if bad := treeErrors(spans); !reflect.DeepEqual(bad, []int{1}) {
		t.Fatalf("treeErrors = %v, want [1]", bad)
	}
}

func TestSummarize(t *testing.T) {
	layers, roots := summarize(handTree())
	if !reflect.DeepEqual(roots, []int64{100, 10}) {
		t.Fatalf("roots = %v", roots)
	}
	q := layers["query"]
	if q.Count != 2 || q.SelfP50 != 10 || q.SelfP99 != 30 {
		t.Errorf("query stats = %+v", q)
	}
	// b's self time is 30 of 110 root nanoseconds; 5ns of wait over 2 requests.
	b := layers["b"]
	if b.Count != 1 || b.SelfShare != 30.0/110 || b.WaitPerRequest != 2 {
		t.Errorf("b stats = %+v", b)
	}
}

func TestTracerNilIsANoOp(t *testing.T) {
	var tr *tracer
	root := tr.request("query")
	tr.end(tr.begin(root, "a"))
	tr.end(root)
	live := newTracer()
	r := live.request("query")
	live.end(live.begin(r, "a"))
	live.end(r)
	if len(live.spans) != 2 || live.spans[1].Parent != r || live.spans[0].Req != 1 {
		t.Fatalf("spans = %+v", live.spans)
	}
	if bad := treeErrors(live.spans); len(bad) != 0 {
		t.Fatalf("a live trace must add up: %v", bad)
	}
}

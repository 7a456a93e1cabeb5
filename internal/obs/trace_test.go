package obs

import (
	"context"
	"testing"
)

func TestTraceTree(t *testing.T) {
	tr := NewTrace("query")
	root := tr.Root()
	parse := root.Child("parse")
	parse.End()
	scan := root.Child("scan e1")
	scan.SetInt("events_scanned", 100)
	scan.SetInt("events_scanned", 150) // replace, not append
	scan.SetInt("hits", 3)
	scan.AddInt("chunks", 2)
	scan.AddInt("chunks", 5) // accumulate
	scan.End()
	root.End()

	n := tr.Tree()
	if n.Name != "query" || len(n.Children) != 2 {
		t.Fatalf("tree = %+v", n)
	}
	sc := n.Children[1]
	if sc.Name != "scan e1" || sc.Attrs["events_scanned"] != 150 || sc.Attrs["hits"] != 3 || sc.Attrs["chunks"] != 7 {
		t.Fatalf("scan node = %+v", sc)
	}
	if len(sc.Attrs) != 3 {
		t.Fatalf("SetInt appended instead of replacing: %v", sc.Attrs)
	}
	if sc.DurationUS < 0 || sc.StartUS < 0 {
		t.Fatalf("negative times: %+v", sc)
	}
}

func TestNilSpanSafety(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	s.SetInt("k", 1)
	s.AddInt("k", 1)
	s.End()
	var tr *Trace
	if tr.Root() != nil || tr.Tree() != nil {
		t.Fatal("nil trace produced nodes")
	}
	ctx := WithSpan(context.Background(), nil)
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span stored in context")
	}
}

func TestSpanContext(t *testing.T) {
	tr := NewTrace("q")
	ctx := WithSpan(context.Background(), tr.Root())
	if SpanFromContext(ctx) != tr.Root() {
		t.Fatal("span did not round-trip through context")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context carried a span")
	}
}

func TestTopSpans(t *testing.T) {
	root := &SpanNode{Name: "query", DurationUS: 1000, Children: []*SpanNode{
		{Name: "parse", DurationUS: 10},
		{Name: "scan e1", DurationUS: 700, Children: []*SpanNode{
			{Name: "inner", DurationUS: 650},
		}},
		{Name: "join e2", DurationUS: 200},
	}}
	top := TopSpans(root, 2)
	if len(top) != 2 || top[0].Name != "scan e1" || top[1].Name != "inner" {
		t.Fatalf("top spans = %+v", top)
	}
	if TopSpans(nil, 3) != nil || TopSpans(root, 0) != nil {
		t.Fatal("degenerate TopSpans not nil")
	}
}

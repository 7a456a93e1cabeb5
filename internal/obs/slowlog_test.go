package obs

import (
	"fmt"
	"testing"
)

func TestSlowLogThreshold(t *testing.T) {
	l := NewSlowLog(100)
	l.capacity = 8
	l.Record(SlowEntry{Query: "fast", DurationMS: 99.9})
	l.Record(SlowEntry{Query: "slow", DurationMS: 100})
	entries, total := l.Snapshot()
	if total != 1 || len(entries) != 1 || entries[0].Query != "slow" {
		t.Fatalf("entries=%+v total=%d; want only the 100ms query", entries, total)
	}
	if l.ThresholdMS() != 100 {
		t.Fatalf("ThresholdMS = %d", l.ThresholdMS())
	}
}

func TestSlowLogZeroLogsEverything(t *testing.T) {
	l := NewSlowLog(0)
	l.capacity = 4
	l.Record(SlowEntry{Query: "q", DurationMS: 0})
	if _, total := l.Snapshot(); total != 1 {
		t.Fatalf("threshold 0 skipped a query; total=%d", total)
	}
}

func TestSlowLogNegativeDisables(t *testing.T) {
	l := NewSlowLog(-1)
	l.capacity = 4
	l.Record(SlowEntry{Query: "q", DurationMS: 1e9})
	if entries, total := l.Snapshot(); total != 0 || len(entries) != 0 {
		t.Fatalf("disabled log recorded: entries=%d total=%d", len(entries), total)
	}
}

func TestSlowLogRingWrapNewestFirst(t *testing.T) {
	l := NewSlowLog(0)
	l.capacity = 3
	for i := 0; i < 5; i++ {
		l.Record(SlowEntry{Query: fmt.Sprintf("q%d", i), DurationMS: float64(i)})
	}
	entries, total := l.Snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	want := []string{"q4", "q3", "q2"}
	if len(entries) != len(want) {
		t.Fatalf("kept %d entries, want %d", len(entries), len(want))
	}
	for i, w := range want {
		if entries[i].Query != w {
			t.Fatalf("entries[%d] = %q, want %q (newest-first)", i, entries[i].Query, w)
		}
	}
}

func TestSlowLogNil(t *testing.T) {
	var l *SlowLog
	l.Record(SlowEntry{Query: "q", DurationMS: 1})
	if entries, total := l.Snapshot(); entries != nil || total != 0 {
		t.Fatal("nil log returned entries")
	}
	if l.ThresholdMS() != -1 {
		t.Fatalf("nil ThresholdMS = %d, want -1", l.ThresholdMS())
	}
}

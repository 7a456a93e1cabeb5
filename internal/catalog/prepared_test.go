package catalog

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/service"
)

const paramQuery = `proc p[$exe] write file f as evt return p, f`

// TestPreparedSurvivesHotSwap: a statement registered before a dataset
// hot-swap keeps executing under its original stmt_id afterwards, now
// against the swapped-in data.
func TestPreparedSurvivesHotSwap(t *testing.T) {
	dir := t.TempDir()
	small, big := filepath.Join(dir, "small"), filepath.Join(dir, "big")
	if err := buildDB(t, "x", 5).SaveDir(small); err != nil {
		t.Fatal(err)
	}
	if err := buildDB(t, "x", 40).SaveDir(big); err != nil {
		t.Fatal(err)
	}

	c := New(Config{})
	if _, err := c.AddDir("inv", small); err != nil {
		t.Fatal(err)
	}
	svc, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bindings := map[string]any{"exe": "%worker.exe"}
	before, err := svc.Do(ctx, service.Request{StmtID: info.StmtID, Params: bindings})
	if err != nil {
		t.Fatal(err)
	}
	if before.TotalRows != 5 {
		t.Fatalf("pre-swap rows = %d", before.TotalRows)
	}

	if _, err := c.Load("inv", big); err != nil {
		t.Fatal(err)
	}
	svc2, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	after, err := svc2.Do(ctx, service.Request{StmtID: info.StmtID, Params: bindings})
	if err != nil {
		t.Fatalf("stmt_id did not survive the hot-swap: %v", err)
	}
	if after.TotalRows != 40 {
		t.Errorf("post-swap rows = %d, want 40 (new data)", after.TotalRows)
	}
	if st := svc2.PreparedStats(); st.Statements != 1 {
		t.Errorf("adopted registry stats = %+v", st)
	}
}

// TestPreparedConcurrentAcrossAppendSealAndHotSwap is the -race
// acceptance test: one statement prepared once, executed concurrently
// from many goroutines while a writer appends + seals into the live
// dataset and the catalog hot-swaps it mid-flight. Every execution must
// either succeed or report a clean stmt/cursor contract error — no
// races, no torn state.
func TestPreparedConcurrentAcrossAppendSealAndHotSwap(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap")
	if err := buildDB(t, "x", 20).SaveDir(snap); err != nil {
		t.Fatal(err)
	}

	c := New(Config{})
	if _, err := c.AddDir("inv", snap); err != nil {
		t.Fatal(err)
	}
	svc, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var execs, swaps atomic.Int64

	// writer: append + seal into whichever database currently serves the
	// dataset
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s, err := c.Resolve("inv")
			if err != nil {
				continue
			}
			db := s.DB()
			db.AppendAll([]aiql.Record{{
				AgentID: uint32(1 + i%3),
				Subject: aiql.Process{PID: 100, ExeName: "worker.exe", Path: `C:\bin\worker.exe`, User: "alice"},
				Op:      aiql.OpWrite, ObjType: aiql.EntityFile,
				ObjFile: aiql.File{Path: fmt.Sprintf(`C:\live\%d.log`, i)},
				StartTS: int64(1000+i) * int64(time.Second),
			}})
			if i%25 == 0 {
				db.Flush() // seal
			}
		}
	}()

	// readers: execute the prepared handle through whatever service the
	// catalog currently resolves
	const readers = 6
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			deadline := time.Now().Add(400 * time.Millisecond)
			for time.Now().Before(deadline) {
				s, err := c.Resolve("inv")
				if err != nil {
					errs <- err
					return
				}
				resp, err := s.Do(ctx, service.Request{
					StmtID: info.StmtID,
					Params: map[string]any{"exe": "%worker.exe"},
					Client: fmt.Sprintf("reader-%d", r),
				})
				switch {
				case err == nil:
					if resp.TotalRows < 20 {
						errs <- fmt.Errorf("result lost base rows: %d", resp.TotalRows)
						return
					}
					execs.Add(1)
				case errors.Is(err, service.ErrClientThrottled), errors.Is(err, service.ErrOverloaded):
					// clean shedding under load is fine
				default:
					errs <- err
					return
				}
			}
			errs <- nil
		}(r)
	}

	// swapper: hot-swap the dataset back to the snapshot repeatedly
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			time.Sleep(80 * time.Millisecond)
			if _, err := c.Load("inv", snap); err != nil {
				t.Errorf("hot-swap: %v", err)
				return
			}
			swaps.Add(1)
		}
	}()

	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if execs.Load() == 0 || swaps.Load() == 0 {
		t.Fatalf("test exercised nothing: %d execs, %d swaps", execs.Load(), swaps.Load())
	}

	// the handle still answers on the final post-swap service
	s, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Do(ctx, service.Request{StmtID: info.StmtID, Params: map[string]any{"exe": "%worker.exe"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalRows < 20 {
		t.Errorf("final rows = %d", resp.TotalRows)
	}
	t.Logf("%d executions across %d hot-swaps", execs.Load(), swaps.Load())
}

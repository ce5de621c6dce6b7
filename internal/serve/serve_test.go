package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orbit/internal/climate"
	"orbit/internal/infer"
	"orbit/internal/vit"
)

const (
	fixHeight = 8
	fixWidth  = 16
	fixDSLen  = 128
)

// fixtureModel builds the shared tiny full-state model and its score
// cache: 8 channels on an 8×16 grid, identity output mapping.
func fixtureModel(tb testing.TB, seed uint64) (*vit.Model, *infer.ScoreCache) {
	tb.Helper()
	vars := climate.RegistrySmall()
	w := climate.NewWorld(vars, fixHeight, fixWidth, climate.ERA5Source())
	stats := w.EstimateStats(8)
	ds := climate.NewDataset(w, stats, 0, fixDSLen, 2)
	m, err := vit.New(vit.Tiny(len(vars), fixHeight, fixWidth), seed)
	if err != nil {
		tb.Fatal(err)
	}
	return m, infer.NewScoreCache(ds, nil)
}

// newReplica builds one pool replica over the model. tp == 0 is a
// single-device engine; tp >= 2 shards the trunk over a simulated
// cluster (its own machine per replica, like a real pod).
func newReplica(tb testing.TB, id int, m *vit.Model, sc *infer.ScoreCache, maxBatch, tp int) *Replica {
	tb.Helper()
	eng, err := infer.NewEngine(m, infer.Config{MaxBatch: maxBatch, TP: tp})
	if err != nil {
		tb.Fatal(err)
	}
	return NewReplica(id, eng, sc)
}

// TestServerServesAndCoalesces proves the happy path end to end:
// concurrent requests coalesce into fused batches, and every response
// is bit-identical to a direct engine rollout of the same sample.
func TestServerServesAndCoalesces(t *testing.T) {
	m, sc := fixtureModel(t, 21)
	rep := newReplica(t, 0, m, sc, 8, 0)
	s, err := NewServer(Config{MaxBatch: 8, MaxWait: 300 * time.Millisecond}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 8
	resps := make([]*Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Do(context.Background(), Request{Start: i, Steps: 2})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()

	ref, err := infer.NewEngine(m, infer.Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	coalesced := 0
	for i, r := range resps {
		if r == nil {
			t.Fatalf("request %d lost", i)
		}
		if r.Degraded || r.Retries != 0 {
			t.Fatalf("request %d unexpectedly degraded/retried: %+v", i, r)
		}
		want := ref.ScoredRollout(sc, i, 2)
		if !reflect.DeepEqual(r.Scores, want) {
			t.Fatalf("request %d scores differ from direct rollout", i)
		}
		if r.Coalesced > coalesced {
			coalesced = r.Coalesced
		}
	}
	if coalesced < 2 {
		t.Fatalf("no coalescing observed (max reported %d)", coalesced)
	}
	st := s.Stats()
	if st.Accepted != n || st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats accounting wrong: %+v", st)
	}
}

// TestAdmissionCapacity proves the hard queue bound: a burst beyond
// QueueCap sheds with ErrOverloaded, every accepted request completes,
// and the queue never exceeds its capacity.
func TestAdmissionCapacity(t *testing.T) {
	m, sc := fixtureModel(t, 22)
	rep := newReplica(t, 0, m, sc, 4, 0)
	// Slow the replica down so the burst outruns service and the queue
	// actually fills — otherwise the tiny model drains faster than 64
	// goroutines can pile up.
	rep.afterRun = func() { time.Sleep(20 * time.Millisecond) }
	s, err := NewServer(Config{MaxBatch: 4, QueueCap: 8, MaxWait: time.Millisecond}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const burst = 64
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Do(context.Background(), Request{Start: i % fixDSLen, Steps: 1})
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if shed.Load() == 0 {
		t.Fatal("64-deep burst against an 8-deep queue shed nothing")
	}
	if served.Load()+shed.Load() != burst {
		t.Fatalf("requests lost: %d served + %d shed != %d", served.Load(), shed.Load(), burst)
	}
	if st.MaxQueueDepth > 8 {
		t.Fatalf("queue depth %d exceeded capacity 8", st.MaxQueueDepth)
	}
	if st.ShedCapacity != shed.Load() {
		t.Fatalf("shed accounting: counter %d, observed %d", st.ShedCapacity, shed.Load())
	}
}

// parkRequest submits a request on a goroutine and waits until the
// server has admitted it into the pending queue (depth reaches want).
func parkRequest(t *testing.T, s *Server, req Request, want int) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), req)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth < want {
		if time.Now().After(deadline) {
			t.Fatalf("request never admitted (depth %d, want %d)", s.Stats().QueueDepth, want)
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestCanceledPendingReleasesSlot: a call whose context ends while it
// waits for its batch window leaves the queue before Do returns. It
// must not hold its admission slot until the window's flush.
func TestCanceledPendingReleasesSlot(t *testing.T) {
	m, sc := fixtureModel(t, 29)
	rep := newReplica(t, 0, m, sc, 16, 0)
	s, err := NewServer(Config{
		MaxBatch: 16, QueueCap: 1,
		MaxWait: time.Hour, // no flush inside the test
	}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, Request{Start: 0, Steps: 1})
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); s.Stats().QueueDepth < 1; {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request: got %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.QueueDepth != 0 || st.DroppedExpired != 1 {
		t.Fatalf("after cancel: queue depth %d, dropped %d; want 0 and 1", st.QueueDepth, st.DroppedExpired)
	}
	// The freed slot admits the next request at QueueCap 1.
	d := parkRequest(t, s, Request{Start: 1, Steps: 1}, 1)
	s.Close()
	if err := <-d; err != nil {
		t.Fatalf("request after the cancel: %v", err)
	}
}

// lateCtx is a context whose deadline has passed but whose own timer
// has not yet marked it done: the window in which a flush timer armed
// for the same deadline can run first.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestFlushDropsPastDeadline: a batch flushed after a member's deadline
// drops that member even when its context is not yet done, instead of
// running a forward that holds the member's slot for a whole batch.
func TestFlushDropsPastDeadline(t *testing.T) {
	m, sc := fixtureModel(t, 31)
	rep := newReplica(t, 0, m, sc, 4, 0)
	s, err := NewServer(Config{MaxBatch: 4, MaxWait: time.Hour}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &call{req: Request{Start: 0, Steps: 1}, ctx: lateCtx{context.Background()}, ch: make(chan callResult, 1)}
	s.mu.Lock()
	s.depth++
	s.mu.Unlock()
	s.inflight.Add(1)
	s.runBatch([]*call{c})
	if r := <-c.ch; !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("past-deadline member: got %v, want context.DeadlineExceeded", r.err)
	}
	if st := s.Stats(); st.Batches != 0 || st.DroppedExpired != 1 || st.QueueDepth != 0 {
		t.Fatalf("past-deadline member was dispatched or kept its slot: %+v", st)
	}
}

// TestPriorityShedding proves low-priority requests shed at the
// watermark while normal traffic is still admitted.
func TestPriorityShedding(t *testing.T) {
	m, sc := fixtureModel(t, 23)
	rep := newReplica(t, 0, m, sc, 16, 0)
	s, err := NewServer(Config{
		MaxBatch: 16, QueueCap: 8, ShedLowDepth: 2,
		MaxWait: 10 * time.Second, // only Close flushes; the queue parks
	}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}

	d1 := parkRequest(t, s, Request{Start: 0, Steps: 1}, 1)
	d2 := parkRequest(t, s, Request{Start: 1, Steps: 1}, 2)
	// Depth is now 2 — at the low watermark, below capacity.
	if _, err := s.Do(context.Background(), Request{Start: 2, Steps: 1, Priority: PriorityLow}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low-priority request at watermark: got %v, want ErrOverloaded", err)
	}
	d3 := parkRequest(t, s, Request{Start: 3, Steps: 1, Priority: PriorityNormal}, 3)
	st := s.Stats()
	if st.ShedPriority != 1 {
		t.Fatalf("priority sheds = %d, want 1", st.ShedPriority)
	}
	s.Close() // drains the parked batch
	for i, d := range []<-chan error{d1, d2, d3} {
		if err := <-d; err != nil {
			t.Fatalf("parked request %d: %v", i, err)
		}
	}
	if _, err := s.Do(context.Background(), Request{Start: 0, Steps: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Do: got %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestDegradedMode proves graceful degradation: above DegradeDepth,
// normal requests get raw rollouts (means, no scores) while
// high-priority requests keep full scoring.
func TestDegradedMode(t *testing.T) {
	m, sc := fixtureModel(t, 24)
	rep := newReplica(t, 0, m, sc, 16, 0)
	s, err := NewServer(Config{
		MaxBatch: 16, QueueCap: 16, DegradeDepth: 1,
		MaxWait: 10 * time.Second,
	}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}

	results := make([]*Response, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	submit := func(i int, req Request, wantDepth int) {
		t.Helper()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Do(context.Background(), req)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().QueueDepth < wantDepth {
			if time.Now().After(deadline) {
				t.Errorf("request %d never admitted", i)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit(0, Request{Start: 0, Steps: 2}, 1)                         // depth 0 at admission: full scoring
	submit(1, Request{Start: 1, Steps: 2}, 2)                         // depth 1: degraded
	submit(2, Request{Start: 2, Steps: 2, Priority: PriorityHigh}, 3) // high: never degraded
	s.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if results[0].Degraded || results[0].Scores == nil {
		t.Fatalf("first request (empty queue) should be fully scored: %+v", results[0])
	}
	if !results[1].Degraded || results[1].Scores != nil {
		t.Fatalf("queued normal request should be degraded: %+v", results[1])
	}
	if len(results[1].Means) != 2 || len(results[1].Means[0]) != m.Config.OutChannels {
		t.Fatalf("degraded response means malformed: %v", results[1].Means)
	}
	if results[2].Degraded || results[2].Scores == nil {
		t.Fatalf("high-priority request must not degrade: %+v", results[2])
	}
	if st := s.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}
}

// TestFailoverMidBatchBitIdentical kills a single-device replica
// between its forward and the post-batch health check (the
// deterministic "mid-batch" hook), and proves the batch retried on the
// surviving replica returns results bit-identical to a no-fault run —
// with no request lost.
func TestFailoverMidBatchBitIdentical(t *testing.T) {
	m, sc := fixtureModel(t, 25)
	repA := newReplica(t, 0, m, sc, 4, 0)
	repB := newReplica(t, 1, m, sc, 4, 0)
	var once sync.Once
	repA.afterRun = func() { once.Do(func() { repA.Kill() }) }
	s, err := NewServer(Config{MaxBatch: 4, MaxWait: 200 * time.Millisecond}, []*Replica{repA, repB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 4
	resps := make([]*Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Do(context.Background(), Request{Start: 10 + i, Steps: 1 + i%2})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()

	ref, err := infer.NewEngine(m, infer.Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r == nil {
			t.Fatalf("request %d lost across the failover", i)
		}
		if r.Retries < 1 || r.Replica != repB.ID {
			t.Fatalf("request %d not failed over: replica %d, retries %d", i, r.Replica, r.Retries)
		}
		want := ref.ScoredRollout(sc, 10+i, 1+i%2)
		if !reflect.DeepEqual(r.Scores, want) {
			t.Fatalf("request %d: retried scores differ from the no-fault rollout", i)
		}
	}
	st := s.Stats()
	if st.ReplicaFailures < 1 || st.Retries < 1 {
		t.Fatalf("failover not recorded: %+v", st)
	}
	if st.HealthyReplicas != 1 {
		t.Fatalf("dead replica still reported healthy: %+v", st)
	}
	if repA.Healthy() {
		t.Fatal("killed replica reports healthy")
	}
}

// TestNoHealthyReplica proves pool exhaustion fails requests with a
// typed error instead of hanging or losing them.
func TestNoHealthyReplica(t *testing.T) {
	m, sc := fixtureModel(t, 26)
	rep := newReplica(t, 0, m, sc, 4, 0)
	rep.Kill()
	s, err := NewServer(Config{MaxBatch: 4, MaxWait: time.Millisecond}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do(context.Background(), Request{Start: 0, Steps: 1}); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("got %v, want ErrNoHealthyReplica", err)
	}
}

// TestRequestValidation proves bad requests fail at admission with the
// typed error — never deep in the engine.
func TestRequestValidation(t *testing.T) {
	m, sc := fixtureModel(t, 27)
	rep := newReplica(t, 0, m, sc, 4, 0)
	s, err := NewServer(Config{MaxBatch: 4, MaxWait: time.Millisecond, MaxSteps: 10}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, req := range []Request{
		{Start: -1, Steps: 2},
		{Start: fixDSLen, Steps: 2},
		{Start: 0, Steps: 0},
		{Start: 0, Steps: 11}, // above MaxSteps
	} {
		var re *infer.RequestError
		if _, err := s.Do(context.Background(), req); !errors.As(err, &re) {
			t.Fatalf("request %+v: got %v, want *infer.RequestError", req, err)
		}
	}
}

// TestDeadlinePropagation proves (a) an expired context is rejected at
// admission, (b) a canceled queued request is dropped at batch
// formation without occupying a slot, and (c) a member deadline
// tighter than MaxWait caps the batch's wait horizon.
func TestDeadlinePropagation(t *testing.T) {
	m, sc := fixtureModel(t, 28)
	rep := newReplica(t, 0, m, sc, 8, 0)
	s, err := NewServer(Config{MaxBatch: 8, QueueCap: 16, MaxWait: 10 * time.Second}, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Do(expired, Request{Start: 0, Steps: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context admitted: %v", err)
	}

	// Park a request, cancel it, then let a tight-deadline request
	// flush the batch: the canceled member must be dropped, the live
	// member served alone well before the 10s MaxWait.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx2, Request{Start: 1, Steps: 1})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel2()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v", err)
	}

	start := time.Now()
	ctx3, cancel3 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel3()
	r, err := s.Do(ctx3, Request{Start: 2, Steps: 1})
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("tight-deadline request waited %v against a 10s MaxWait: deadline did not cap the batch horizon", elapsed)
	}
	if err == nil {
		if r.Coalesced != 1 {
			t.Fatalf("canceled member occupied a batch slot: coalesced %d", r.Coalesced)
		}
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("tight-deadline request: %v", err)
	}
	// The flush that drops the canceled member runs concurrently with
	// Do's deadline return; poll for its bookkeeping.
	for end := time.Now().Add(5 * time.Second); s.Stats().DroppedExpired < 1; {
		if time.Now().After(end) {
			t.Fatalf("expired drop never counted: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParsePriority pins the wire names.
func TestParsePriority(t *testing.T) {
	for s, want := range map[string]Priority{
		"": PriorityNormal, "normal": PriorityNormal,
		"low": PriorityLow, "high": PriorityHigh,
	} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Fatalf("ParsePriority(%q) = %v, %v", s, got, err)
		}
		if got.String() == "" {
			t.Fatalf("priority %v has no name", got)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Fatal("unknown priority accepted")
	}
}

// TestHistogramQuantiles pins the log₂ histogram's conservative
// quantile semantics.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if h.quantile(0.99) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	for i := 0; i < 99; i++ {
		h.observe(3 * time.Microsecond) // bucket [2,4)µs → reports 4µs
	}
	h.observe(3 * time.Millisecond) // tail: bucket upper bound 4096µs
	h.observe(3 * time.Millisecond)
	if got := h.quantile(0.50); got != 4*time.Microsecond {
		t.Fatalf("p50 = %v, want 4µs upper bound", got)
	}
	if got := h.quantile(0.99); got < 3*time.Millisecond {
		t.Fatalf("p99 = %v must cover the tail observation", got)
	}
}

// Package serve is the serving resilience layer: a bounded admission
// queue with priority-aware load shedding, deadline-aware batch
// formation, graceful degradation under overload, and a health-checked
// replica pool that retries a failed batch on a healthy replica — the
// overload-safe, fault-tolerant front end the ROADMAP's "millions of
// users" item requires in front of internal/infer.
//
// Dataflow:
//
//	Do(ctx, req) ── admission (capacity / priority shed, degrade mark)
//	            └─► pending queue ── batch formation (MaxBatch fill or
//	                             timer capped by tightest deadline)
//	                             └─► dispatch ── healthy replica
//	                                         ├─ ok: deliver responses
//	                                         └─ replica dead: jittered
//	                                            backoff, retry whole
//	                                            batch on next healthy
//	                                            replica (bit-identical
//	                                            results, no request
//	                                            ever lost)
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"orbit/internal/infer"
)

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrOverloaded is returned when admission control sheds a request —
// the queue is at capacity, or a low-priority request arrived above
// the priority shed watermark. HTTP front ends map it to 429 with a
// Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded, retry later")

// ErrNoHealthyReplica is returned when a batch cannot be placed: every
// replica is dead or the failover retry budget is exhausted.
var ErrNoHealthyReplica = errors.New("serve: no healthy replica")

// Priority orders requests under overload. The zero value is
// PriorityNormal, so naive callers get the default treatment.
type Priority int

const (
	// PriorityNormal requests shed only at queue capacity.
	PriorityNormal Priority = iota
	// PriorityLow requests shed earlier, at Config.ShedLowDepth.
	PriorityLow
	// PriorityHigh requests are never served degraded.
	PriorityHigh
)

// String returns the wire name of the priority.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	default:
		return "normal"
	}
}

// ParsePriority maps a wire name ("", "low", "normal", "high") to a
// Priority; unknown names error.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("serve: unknown priority %q", s)
}

// Request is one rollout to serve, with its overload priority.
type Request struct {
	Start    int
	Steps    int
	Priority Priority
}

// Response is one served rollout, annotated with the resilience
// machinery's observable effects.
type Response struct {
	Start, Steps int
	// Coalesced is how many requests shared the forward batch.
	Coalesced int
	// Replica identifies the replica that produced the result.
	Replica int
	// Retries counts replica failovers the batch survived.
	Retries int
	// Degraded marks a rollout served without scoring (overload mode):
	// Scores is nil and Means carries the raw rollout summary.
	Degraded bool
	// Scores are the per-step wRMSE/wACC (nil when Degraded).
	Scores []infer.StepScore
	// Means are per-step per-channel spatial means of the predicted
	// fields — the raw-rollout payload of degraded mode, which skips
	// the ~5×-a-forward truth/climatology generation entirely.
	Means [][]float64
}

// Config tunes the resilience layer. Zero values take the documented
// defaults; DegradeDepth and ShedLowDepth are disabled at 0.
type Config struct {
	// MaxBatch is the coalesced batch width (default: the smallest
	// replica engine's fused batch width).
	MaxBatch int
	// MaxWait is the batch fill horizon (default 2ms). A member
	// deadline tighter than MaxWait flushes the batch early.
	MaxWait time.Duration
	// QueueCap bounds admitted-but-unfinished requests; beyond it
	// admission sheds with ErrOverloaded (default 4×MaxBatch). This is
	// the bound that keeps accepted-request latency finite under any
	// offered load.
	QueueCap int
	// MaxSteps caps the rollout horizon a request may ask for
	// (0 = uncapped).
	MaxSteps int
	// DegradeDepth is the queue depth at which new non-high-priority
	// requests are served degraded — raw rollouts, no scoring
	// (0 = never degrade).
	DegradeDepth int
	// ShedLowDepth is the queue depth at which PriorityLow requests
	// are shed (0 = low priority sheds only at QueueCap).
	ShedLowDepth int
	// MaxRetries bounds batch failovers across replicas (default:
	// number of replicas − 1, at least 1).
	MaxRetries int
	// RetryBackoff is the base of the jittered exponential backoff
	// between failover attempts (default 1ms).
	RetryBackoff time.Duration
	// Seed makes the backoff jitter reproducible (default 1).
	Seed int64
}

// Server is the resilient serving front end over a replica pool.
type Server struct {
	cfg      Config
	replicas []*Replica

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	pending  []*call
	timer    *time.Timer
	timerAt  time.Time
	gen      uint64
	depth    int // admitted, not yet completed
	maxDepth int
	rr       int // round-robin replica cursor
	closed   bool
	inflight sync.WaitGroup

	st counters
}

type call struct {
	req      Request
	ctx      context.Context
	degraded bool
	admitted time.Time
	scores   []infer.StepScore
	means    [][]float64
	ch       chan callResult
}

type callResult struct {
	resp *Response
	err  error
}

// NewServer wires the resilience layer over a pool of replicas.
func NewServer(cfg Config, replicas []*Replica) (*Server, error) {
	if len(replicas) == 0 {
		return nil, errors.New("serve: need at least one replica")
	}
	seen := make(map[int]bool, len(replicas))
	for _, r := range replicas {
		if r == nil || r.Engine == nil || r.Scores == nil {
			return nil, errors.New("serve: replica needs an engine and a score cache")
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("serve: duplicate replica id %d", r.ID)
		}
		seen[r.ID] = true
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = replicas[0].Engine.Cfg.MaxBatch
		for _, r := range replicas[1:] {
			if b := r.Engine.Cfg.MaxBatch; b < cfg.MaxBatch {
				cfg.MaxBatch = b
			}
		}
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Millisecond
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.MaxBatch
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = len(replicas) - 1
		if cfg.MaxRetries < 1 {
			cfg.MaxRetries = 1
		}
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Server{
		cfg:      cfg,
		replicas: replicas,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Do submits a request and blocks until it is served, shed, or its
// context expires. Safe for arbitrary concurrency.
//
// Error classes: *infer.RequestError (invalid request), ErrOverloaded
// (admission shed), ErrClosed, ErrNoHealthyReplica (pool exhausted),
// or ctx.Err() (deadline/cancellation).
func (s *Server) Do(ctx context.Context, req Request) (*Response, error) {
	if req.Steps < 1 {
		return nil, &infer.RequestError{Start: req.Start, Steps: req.Steps, Reason: "steps must be >= 1"}
	}
	if s.cfg.MaxSteps > 0 && req.Steps > s.cfg.MaxSteps {
		return nil, &infer.RequestError{Start: req.Start, Steps: req.Steps,
			Reason: fmt.Sprintf("steps above the server cap %d", s.cfg.MaxSteps)}
	}
	if err := s.replicas[0].Scores.CheckStart(req.Start); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := &call{req: req, ctx: ctx, admitted: time.Now(), ch: make(chan callResult, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Admission control: the hard capacity bound applies to every
	// priority (bounded queue ⇒ bounded latency); low priority sheds
	// earlier at the ShedLowDepth watermark.
	if s.depth >= s.cfg.QueueCap {
		s.mu.Unlock()
		s.st.shedCapacity.Add(1)
		return nil, ErrOverloaded
	}
	if req.Priority == PriorityLow && s.cfg.ShedLowDepth > 0 && s.depth >= s.cfg.ShedLowDepth {
		s.mu.Unlock()
		s.st.shedPriority.Add(1)
		return nil, ErrOverloaded
	}
	// Graceful degradation: above DegradeDepth the queue is deep
	// enough that scoring (≈5× a forward per step) would push it
	// deeper; serve raw rollouts instead. High priority keeps scores.
	c.degraded = s.cfg.DegradeDepth > 0 && s.depth >= s.cfg.DegradeDepth && req.Priority != PriorityHigh
	s.depth++
	if s.depth > s.maxDepth {
		s.maxDepth = s.depth
	}
	s.st.accepted.Add(1)
	s.inflight.Add(1)
	s.pending = append(s.pending, c)
	switch {
	case len(s.pending) >= s.cfg.MaxBatch:
		batch := s.takeLocked()
		s.mu.Unlock()
		s.runBatch(batch)
	case len(s.pending) == 1:
		wait := s.cfg.MaxWait
		if dl, ok := ctx.Deadline(); ok {
			if until := time.Until(dl); until < wait {
				wait = until
			}
		}
		s.armLocked(wait)
		s.mu.Unlock()
	default:
		if dl, ok := ctx.Deadline(); ok && dl.Before(s.timerAt) {
			s.armLocked(time.Until(dl))
		}
		s.mu.Unlock()
	}
	select {
	case r := <-c.ch:
		return r.resp, r.err
	case <-ctx.Done():
		s.abandon(c)
		return nil, ctx.Err()
	}
}

// abandon withdraws a call whose context ended while it was still
// queued, so it frees its admission slot now instead of at the next
// flush. A call a batch has already claimed is left to runBatch, which
// drops or delivers it.
func (s *Server) abandon(c *call) {
	s.mu.Lock()
	i := slices.Index(s.pending, c)
	if i < 0 {
		s.mu.Unlock()
		return
	}
	s.pending = slices.Delete(s.pending, i, i+1)
	s.depth--
	if len(s.pending) == 0 {
		s.takeLocked() // stops the flush timer
	}
	s.mu.Unlock()
	// Counted as runBatch counts an expired drop.
	s.st.droppedExpired.Add(1)
	s.st.failed.Add(1)
	s.inflight.Done()
}

// armLocked (re)arms the flush timer; caller holds s.mu.
func (s *Server) armLocked(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.gen++
	gen := s.gen
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timerAt = time.Now().Add(d)
	s.timer = time.AfterFunc(d, func() { s.flushTimer(gen) })
}

// takeLocked claims the pending batch; caller holds s.mu.
func (s *Server) takeLocked() []*call {
	batch := s.pending
	s.pending = nil
	s.gen++
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	return batch
}

func (s *Server) flushTimer(gen uint64) {
	s.mu.Lock()
	if gen != s.gen {
		s.mu.Unlock()
		return
	}
	batch := s.takeLocked()
	s.mu.Unlock()
	s.runBatch(batch)
}

// deliver completes one admitted call: depth bookkeeping, latency
// observation, and the (buffered, never-blocking) result send.
func (s *Server) deliver(c *call, resp *Response, err error) {
	s.mu.Lock()
	s.depth--
	s.mu.Unlock()
	if err != nil {
		s.st.failed.Add(1)
	} else {
		s.st.completed.Add(1)
		if c.degraded {
			s.st.degraded.Add(1)
		}
		s.st.latency.observe(time.Since(c.admitted))
	}
	c.ch <- callResult{resp: resp, err: err}
	s.inflight.Done()
}

// expired reports why a call can no longer be served, or nil. The
// deadline is read directly: the flush timer a deadline arms can fire
// before the context's own timer marks it done, and a call dispatched
// in that gap would hold its admission slot through a whole batch.
func (c *call) expired() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if dl, ok := c.ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// runBatch drops expired members, then dispatches the batch to the
// replica pool with failover.
func (s *Server) runBatch(batch []*call) {
	if len(batch) == 0 {
		return
	}
	live := batch[:0]
	for _, c := range batch {
		if err := c.expired(); err != nil {
			s.st.droppedExpired.Add(1)
			s.deliver(c, nil, err)
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}
	s.st.batches.Add(1)
	s.dispatch(live)
}

// dispatch places a batch on a healthy replica; when the replica dies
// (before, during, or after the forward) the whole batch is retried on
// the next healthy replica after a jittered exponential backoff. A
// replica's results are delivered only after it passes the post-batch
// health check, so a batch from a dead replica is discarded and rerun
// — which is why retried results are bit-identical to a no-fault run
// and no request is ever lost.
func (s *Server) dispatch(batch []*call) {
	tried := make(map[int]bool)
	retries := 0
	var lastErr error
	for {
		r := s.pick(tried)
		if r == nil {
			err := ErrNoHealthyReplica
			if lastErr != nil {
				err = fmt.Errorf("%w (last failure: %v)", ErrNoHealthyReplica, lastErr)
			}
			for _, c := range batch {
				s.deliver(c, nil, err)
			}
			return
		}
		err := r.run(batch)
		if err == nil {
			for _, c := range batch {
				s.deliver(c, &Response{
					Start:     c.req.Start,
					Steps:     c.req.Steps,
					Coalesced: len(batch),
					Replica:   r.ID,
					Retries:   retries,
					Degraded:  c.degraded,
					Scores:    c.scores,
					Means:     c.means,
				}, nil)
			}
			return
		}
		r.markDead(err)
		s.st.replicaFailures.Add(1)
		tried[r.ID] = true
		lastErr = err
		retries++
		if retries > s.cfg.MaxRetries {
			ferr := fmt.Errorf("serve: batch failed after %d failovers: %w", retries-1, err)
			for _, c := range batch {
				s.deliver(c, nil, ferr)
			}
			return
		}
		s.st.retries.Add(1)
		time.Sleep(s.backoff(retries))
		// Deadlines may have expired during the backoff; drop those
		// members before occupying another replica.
		live := batch[:0]
		for _, c := range batch {
			if cerr := c.expired(); cerr != nil {
				s.st.droppedExpired.Add(1)
				s.deliver(c, nil, cerr)
				continue
			}
			live = append(live, c)
		}
		batch = live
		if len(batch) == 0 {
			return
		}
	}
}

// pick returns the next healthy replica not yet tried for this batch,
// round-robin, or nil when none remains.
func (s *Server) pick(tried map[int]bool) *Replica {
	s.mu.Lock()
	start := s.rr
	s.rr++
	s.mu.Unlock()
	n := len(s.replicas)
	for i := 0; i < n; i++ {
		r := s.replicas[(start+i)%n]
		if tried[r.ID] || !r.Healthy() {
			continue
		}
		return r
	}
	return nil
}

// backoff returns the jittered exponential failover delay for the
// given (1-based) retry attempt, capped at 100ms.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBackoff << uint(attempt-1)
	if max := 100 * time.Millisecond; d > max {
		d = max
	}
	s.rngMu.Lock()
	j := 0.5 + s.rng.Float64() // uniform in [0.5, 1.5)
	s.rngMu.Unlock()
	return time.Duration(float64(d) * j)
}

// Close stops admission, drains the pending batch, and waits until
// every in-flight request has received its response — the graceful
// shutdown path orbit-serve runs on SIGTERM.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.inflight.Wait()
		return
	}
	s.closed = true
	batch := s.takeLocked()
	s.mu.Unlock()
	s.runBatch(batch)
	s.inflight.Wait()
}

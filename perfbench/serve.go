package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	orbit "orbit"
	"orbit/internal/infer"
	"orbit/internal/serve"
	"orbit/internal/tensor"
)

// serve-* fixed inputs (mirrored in baseline.json). The server
// settings are orbit-serve's defaults and the model is its demo
// architecture.
const (
	serveHeight, serveWidth = 16, 32
	serveLead               = 4 // one day at 6-hourly steps
	serveEvalStart          = 1200
	serveEvalSteps          = 365 * 4
	serveStartWindow        = 90 * 4 // starts: the first 90 days of the evaluation year
	serveMaxBatch           = 8
	serveMaxWait            = 2 * time.Millisecond
	serveQueueCap           = 32
	serveMaxSteps           = 40
	serveNominalRPS         = 50.0
	serveOverloadRPS        = 400.0
	serveNominalShare       = 0.7 // of each round; the rest is the overload phase
	serveDeadlineShare      = 0.25
	serveDeadline           = 250 * time.Millisecond
	serveLatencyLimit       = 500 * time.Millisecond // goodput counts answers within it
	serveSetups             = 3
	serveSampleChecks       = 16
	serveInflightCap        = 1024 // generator goroutines in flight; beyond it the generator runs late
	serveLateBound          = 100 * time.Millisecond
	serveRounds             = 4
	serveRamp               = 100 * time.Millisecond // overload queue fill, excluded from goodput
	serveBucket             = 100 * time.Millisecond
	serveTailQuantile       = 0.90
)

var (
	serveHorizons = []int{1, 2, 4, 8, 16}
	serveChans    = []int{4, 7, 1, 2} // z500, t850, t2m, u10
)

// serveRequest is one generated request.
type serveRequest struct {
	due      time.Duration // offset from the phase start
	start    int
	steps    int
	deadline bool
}

// serveOutcome is what the generator observed for one request.
type serveOutcome struct {
	due     time.Time
	late    time.Duration // send time − due time
	latency time.Duration // answer time − due time
	err     error
	resp    *serve.Response
}

// genRequests draws one phase's open-loop arrivals: exponential gaps
// at the given rate over the phase, starts uniform over the start
// window, horizons uniform over serveHorizons, and a deadline on a
// serveDeadlineShare of them. Horizons are dealt from a shuffled deck
// holding each once, so every phase carries them in equal shares:
// latency clusters by horizon, and a median over an unequal mix moved
// with the seed by more than the host moved it.
func genRequests(rng *tensor.RNG, rate float64, dur time.Duration) []serveRequest {
	var reqs []serveRequest
	var deck []int
	t := 0.0
	for {
		if len(deck) == 0 {
			for _, i := range rng.Perm(len(serveHorizons)) {
				deck = append(deck, serveHorizons[i])
			}
		}
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return reqs
		}
		reqs = append(reqs, serveRequest{
			due:      due,
			start:    rng.Intn(serveStartWindow),
			steps:    deck[0],
			deadline: rng.Float64() < serveDeadlineShare,
		})
		deck = deck[1:]
	}
}

// serveStack is one set-up of the serving stack.
type serveStack struct {
	model *orbit.Model
	quant map[string]*orbit.QuantizedWeight
	eng   *infer.Engine
	sc    *infer.ScoreCache
	srv   *serve.Server
}

// writeServeCheckpoint writes the demo-architecture model initialised
// from the seed, in the workload's weight format.
func writeServeCheckpoint(path string, seed uint64, format string) error {
	cfg := orbit.TinyConfig(len(orbit.RegistrySmall()), serveHeight, serveWidth)
	cfg.OutChannels = len(serveChans)
	m, err := orbit.NewModel(cfg, seed)
	if err != nil {
		return err
	}
	if format == "q4_0" {
		return orbit.SaveQuantizedCheckpoint(path, m, orbit.QuantQ4)
	}
	return orbit.SaveModel(path, m, false)
}

// setupServe loads the checkpoint, builds and warms the engine, warms
// the score cache over every field a request can touch, and starts the
// server. Spans are recorded when tracing.
func setupServe(tr *tracer, path, format string) (*serveStack, error) {
	st := &serveStack{}
	var err error
	sp := tr.start("ckpt", "load", noSpan, -1)
	if format == "q4_0" {
		st.model, st.quant, err = orbit.LoadQuantizedModel(path)
	} else {
		st.model, err = orbit.LoadInferenceModel(path)
	}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("load %s checkpoint: %w", format, err)
	}
	sp = tr.start("infer", "engine", noSpan, -1)
	st.eng, err = orbit.NewInferenceEngine(st.model, orbit.InferConfig{
		ResidualChans: serveChans, MaxBatch: serveMaxBatch, Quant: st.quant})
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	st.eng.Warmup()
	tr.end(sp)

	sp = tr.start("climate", "warm", noSpan, -1)
	ds := orbit.NewERA5Dataset(orbit.RegistrySmall(), serveHeight, serveWidth, serveEvalStart, serveEvalSteps, serveLead)
	ds.OutputChans = serveChans
	st.sc = orbit.NewScoreCache(ds, serveChans)
	for i := 0; i < serveStartWindow+serveHorizons[len(serveHorizons)-1]*serveLead; i++ {
		st.sc.InputAt(i)
		if i >= serveLead {
			st.sc.TruthAt(i)
			st.sc.ClimAt(i)
		}
	}
	tr.end(sp)

	st.srv, err = orbit.NewForecastServer(orbit.ServeConfig{
		MaxBatch: serveMaxBatch, MaxWait: serveMaxWait, QueueCap: serveQueueCap, MaxSteps: serveMaxSteps,
	}, []*orbit.ServeReplica{orbit.NewServeReplica(0, st.eng, st.sc)})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// drive runs one open-loop phase against the server: a single
// dispatcher sends each request when it is due, on its own goroutine,
// and each request is timed from when it was due.
func drive(tr *tracer, srv *serve.Server, reqs []serveRequest, reqBase int64) (out []serveOutcome, start time.Time) {
	out = make([]serveOutcome, len(reqs))
	sem := make(chan struct{}, serveInflightCap)
	var wg sync.WaitGroup
	base := time.Now()
	for i, r := range reqs {
		due := base.Add(r.due)
		out[i].due = due
		// Sleep, never spin: a spinning generator would take a core
		// from the server it measures. Its lateness is reported.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent := time.Now()
		out[i].late = sent.Sub(due)
		wg.Add(1)
		go func(i int, r serveRequest, due, sent time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx := context.Background()
			if r.deadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, due.Add(serveDeadline))
				defer cancel()
			}
			resp, err := srv.Do(ctx, serve.Request{Start: r.start, Steps: r.steps})
			done := time.Now()
			out[i].latency, out[i].err, out[i].resp = done.Sub(due), err, resp
			if tr.on {
				root := tr.record("serve", "request", noSpan, reqBase+int64(i), due, done)
				tr.record("gen", "late", root, reqBase+int64(i), due, sent)
				tr.record("serve", "do", root, reqBase+int64(i), sent, done)
			}
		}(i, r, due, sent)
	}
	wg.Wait()
	return out, base
}

// account classifies a phase's outcomes.
func account(phase string, outs []serveOutcome) phaseAccount {
	a := phaseAccount{Phase: phase, Sent: int64(len(outs))}
	for _, o := range outs {
		switch {
		case o.err == nil:
			a.Succeeded++
		case errors.Is(o.err, serve.ErrOverloaded):
			a.Shed++
		case errors.Is(o.err, context.DeadlineExceeded):
			a.Expired++
		default:
			a.Errored++
		}
	}
	return a
}

func runServe(cfg runConfig, format string) (*result, error) {
	res := &result{Contract: map[string]string{
		"latency_ms_p50":   "latency_ms_p50",
		"throughput_per_s": "goodput_rps",
	}}
	path := filepath.Join(cfg.workDir, "serve-"+format+".orbt")
	if err := writeServeCheckpoint(path, cfg.seed, format); err != nil {
		return nil, fmt.Errorf("serve-%s: write checkpoint: %w", format, err)
	}
	// The run alternates serveRounds rounds of a nominal phase and an
	// overload phase, so both rates sample the host over the whole run.
	// The nominal phase gets most of the time because its latency tail
	// needs the samples.
	round := time.Duration(cfg.seconds / serveRounds * float64(time.Second))
	nomDur := time.Duration(float64(round) * serveNominalShare)
	ovlDur := round - nomDur
	rng := tensor.NewRNG(cfg.seed)
	var nominal, overload [serveRounds][]serveRequest
	for r := range serveRounds {
		nominal[r] = genRequests(rng, serveNominalRPS, nomDur)
		overload[r] = genRequests(rng, serveOverloadRPS, ovlDur)
	}

	// Set up serveSetups times; the last stack serves, the median
	// set-up time is reported.
	var setups []float64
	var st *serveStack
	for i := 0; i < serveSetups; i++ {
		if st != nil {
			st.srv.Close()
		}
		t0 := time.Now()
		var err error
		if st, err = setupServe(cfg.tr, path, format); err != nil {
			return nil, fmt.Errorf("serve-%s: %w", format, err)
		}
		setups = append(setups, cfg.host.since(t0))
	}
	res.add("setup_s", median(setups), "s", "host")
	// Return the discarded set-ups' memory, so the resident set measured
	// below is the serving stack's, not leftovers of the repetition.
	debug.FreeOSMemory()

	var nomOut, ovlOut [serveRounds][]serveOutcome
	var ovlStart [serveRounds]time.Time
	var reqBase int64
	var rss []float64 // sampled peak per round
	for r := range serveRounds {
		t0 := time.Now()
		nomOut[r], _ = drive(cfg.tr, st.srv, nominal[r], reqBase)
		reqBase += int64(len(nominal[r]))
		ovlOut[r], ovlStart[r] = drive(cfg.tr, st.srv, overload[r], reqBase)
		reqBase += int64(len(overload[r]))
		rss = append(rss, cfg.host.peakRSSMiB(t0, time.Now()))
	}
	res.add("peak_rss_mib", median(rss), "MiB", "host")
	res.Metrics[len(res.Metrics)-1].Note = "median over rounds of the resident set's sampled peak"
	stats := st.srv.Stats()
	st.srv.Close()

	nomAll, ovlAll := slices.Concat(nomOut[:]...), slices.Concat(ovlOut[:]...)
	nomAcc, ovlAcc := account("nominal", nomAll), account("overload", ovlAll)
	res.Phases = []phaseAccount{nomAcc, ovlAcc}
	res.Attempted = nomAcc.Sent + ovlAcc.Sent
	res.Failed = nomAcc.Errored + ovlAcc.Errored

	// Host durations corrected for steal (host.go).
	var lat, lateNom, lateOvl []float64
	for _, o := range nomAll {
		if o.err == nil {
			lat = append(lat, ms(cfg.host.corrected(o.due, o.due.Add(o.latency))))
		}
		lateNom = append(lateNom, ms(o.late))
	}
	// Goodput counts answers within the latency limit by the time they
	// completed, in buckets of each overload phase after its ramp-up.
	nb := int((ovlDur - serveRamp) / serveBucket)
	var good []float64
	for r := range serveRounds {
		counts := make([]float64, nb)
		t0 := ovlStart[r].Add(serveRamp)
		for _, o := range ovlOut[r] {
			lateOvl = append(lateOvl, ms(o.late))
			if o.err != nil || o.latency > serveLatencyLimit {
				continue
			}
			if b := int(o.due.Add(o.latency).Sub(t0) / serveBucket); b >= 0 && b < nb {
				counts[b]++
			}
		}
		for b := range counts {
			bt := t0.Add(time.Duration(b) * serveBucket)
			good = append(good, counts[b]/cfg.host.corrected(bt, bt.Add(serveBucket)).Seconds())
		}
	}
	res.add("latency_ms_p50", median(lat), "ms", "host")
	tailName := fmt.Sprintf("latency_ms_p%.0f", 100*serveTailQuantile)
	res.Contract["latency_ms_tail"] = tailName
	res.add(tailName, quantile(lat, serveTailQuantile), "ms", "host")
	res.Metrics[len(res.Metrics)-1].Note = "in place of p99, which does not repeat within a tenth between runs on a shared 2-core host"
	res.add("goodput_rps", mean(good), "1/s", "host")
	failed := nomAcc.Shed + nomAcc.Expired + nomAcc.Errored + ovlAcc.Shed + ovlAcc.Expired + ovlAcc.Errored
	res.add("fail_ratio", float64(failed)/float64(res.Attempted), "ratio", "count")
	res.add("answers_nominal", float64(len(lat)), "count", "count")
	lateP99 := max(quantile(lateNom, 0.99), quantile(lateOvl, 0.99))
	res.add("gen_late_ms_p99_nominal", quantile(lateNom, 0.99), "ms", "host")
	res.add("gen_late_ms_p99_overload", quantile(lateOvl, 0.99), "ms", "host")
	res.check("serve-"+format+" generator", lateP99 <= ms(serveLateBound),
		"open-loop generator p99 lateness %.3g ms (bound %v: beyond it the generator, not the server, sets the latency)",
		lateP99, serveLateBound)
	res.add("serve_batches", float64(stats.Batches), "count", "count")

	// Correctness, outside the timed phases: a sample of answers
	// equals a single-request ScoredRollout with the same start,
	// horizon and weights within the golden tolerance.
	checked, worst := 0, 0.0
	var mismatch string
	for _, p := range []struct {
		outs []serveOutcome
		reqs []serveRequest
	}{{nomOut[0], nominal[0]}, {ovlOut[0], overload[0]}} {
		n := 0
		for i, o := range p.outs {
			if o.err != nil || o.resp.Degraded || n >= serveSampleChecks/2 {
				continue
			}
			n++
			req := p.reqs
			want := st.eng.ScoredRollout(st.sc, req[i].start, req[i].steps)
			d := scoreDiff(o.resp.Scores, want)
			if d > worst {
				worst = d
			}
			if d > goldenTolerance && mismatch == "" {
				mismatch = fmt.Sprintf("; start %d steps %d differs by %g", req[i].start, req[i].steps, d)
			}
			checked++
		}
	}
	res.check("serve-"+format+" answers", checked > 0 && worst <= goldenTolerance,
		"%d sampled answers vs single-request ScoredRollout: worst |diff| %g (tolerance %g)%s",
		checked, worst, goldenTolerance, mismatch)
	res.check("serve-"+format+" errors", res.Failed == 0,
		"%d requests ended in an error other than shed or deadline", res.Failed)

	if cfg.trace {
		if err := traceServe(cfg, res, st, format, slices.Concat(nomOut[:]...), slices.Concat(ovlOut[:]...), stats); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// goldenTolerance is the repository's golden rollout tolerance.
const goldenTolerance = 1e-6

// scoreDiff is the largest absolute difference between two score
// trajectories (+Inf when their shapes differ).
func scoreDiff(got, want []infer.StepScore) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	worst := 0.0
	for s := range got {
		if len(got[s].RMSE) != len(want[s].RMSE) || len(got[s].ACC) != len(want[s].ACC) {
			return math.Inf(1)
		}
		for c := range got[s].RMSE {
			worst = math.Max(worst, math.Abs(got[s].RMSE[c]-want[s].RMSE[c]))
			worst = math.Max(worst, math.Abs(got[s].ACC[c]-want[s].ACC[c]))
		}
	}
	return worst
}

// expectedBatchHorizon is the expected longest horizon of n requests
// drawn uniformly from serveHorizons: a coalesced batch rolls out to
// its longest member.
func expectedBatchHorizon(n int) int {
	hs := append([]int(nil), serveHorizons...)
	sort.Ints(hs)
	e := 0.0
	for i, h := range hs {
		pLE := math.Pow(float64(i+1)/float64(len(hs)), float64(n))
		pLT := math.Pow(float64(i)/float64(len(hs)), float64(n))
		e += float64(h) * (pLE - pLT)
	}
	return int(math.Round(e))
}

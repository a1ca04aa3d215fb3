package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonDues returns n arrival offsets of a Poisson process of the
// given rate, conditioned on exactly n arrivals in [0, n/rate): n+1
// exponential gaps, rescaled so they sum to the window. Conditioning
// on the count keeps the offered load of a phase identical across
// seeds while the arrival clustering — what queues feel — stays
// Poisson. The same rng state gives the same offsets.
func poissonDues(rng *rand.Rand, n int, rate float64) []time.Duration {
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	window := float64(n) / rate * float64(time.Second)
	dues := make([]time.Duration, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += gaps[i]
		dues[i] = time.Duration(acc / total * window)
	}
	return dues
}

// reply is what one request delivered: the scenarios it completed, the
// simulated cycles they report, and whether every output checked out.
type reply struct {
	scenarios int64
	cycles    int64
	hits      int64
	err       error
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	rate      float64
	window    time.Duration   // scheduled span of the arrivals
	wall      time.Duration   // first due to last completion
	latencies []time.Duration // of the successful requests, in due-time order
	attempted int64
	failed    int64
	scenarios int64
	cycles    int64
	hits      int64
	// lags are how late an idle sender started a request past its due
	// time: the generator's own health, separate from queueing.
	lags []time.Duration
	// backlogEnd counts requests already due but not yet sent when the
	// window closed; endWait is the median time the last tenth of the
	// requests (by due time) waited for a free connection.
	backlogEnd int
	endWait    time.Duration
	firstErr   error
}

// grew reports whether the phase's backlog grew: the last tenth of its
// requests waited for a connection, in the median, more than half the
// latency limit. A backlog that merely fluctuates clears within a few
// requests; one that grows delays everything after it.
func (ph *phase) grew(limitMS float64) bool {
	return float64(ph.endWait) > limitMS/2*float64(time.Millisecond)
}

// runOpenLoop sends request i at start+dues[i] over at most conns
// concurrent senders, timing each from its due time, so a stall shows
// as latency on every request it delays (no coordinated omission).
func runOpenLoop(conns int, rate float64, dues []time.Duration, send func(i int, due time.Time) reply) *phase {
	n := len(dues)
	started := make([]time.Duration, n)
	done := make([]time.Duration, n)
	replies := make([]reply, n)
	var lagMu sync.Mutex
	var lags []time.Duration
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				idle := false
				if wait := dues[i] - time.Since(start); wait > 0 {
					idle = true
					time.Sleep(wait)
				}
				started[i] = time.Since(start)
				if idle {
					lagMu.Lock()
					lags = append(lags, started[i]-dues[i])
					lagMu.Unlock()
				}
				replies[i] = send(i, start.Add(dues[i]))
				done[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()

	window := time.Duration(float64(n) / rate * float64(time.Second))
	ph := &phase{lags: lags, attempted: int64(n)}
	var last time.Duration
	for i := 0; i < n; i++ {
		r := replies[i]
		last = max(last, done[i])
		if dues[i] <= window && started[i] > window {
			ph.backlogEnd++
		}
		if r.err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = r.err
			}
			continue
		}
		ph.latencies = append(ph.latencies, done[i]-dues[i])
		ph.scenarios += r.scenarios
		ph.cycles += r.cycles
		ph.hits += r.hits
	}
	if n > 0 {
		ph.wall = last - dues[0]
		var waits []time.Duration
		for i := n - max(n/10, 1); i < n; i++ {
			waits = append(waits, started[i]-dues[i])
		}
		ph.endWait = time.Duration(medianDuration(waits, 1))
	}
	return ph
}

// ladder is a fixed geometric sequence of offered rates.
func ladder(lo float64, ratio float64, steps int) []float64 {
	rates := make([]float64, steps)
	r := lo
	for i := range rates {
		rates[i] = r
		r *= ratio
	}
	return rates
}

// rungVerdict is one probed ladder rate.
type rungVerdict struct {
	rate  float64
	p99ms float64
	grew  bool
	ok    bool
	lagMS float64
}

// searchLadder finds the highest rate on the ladder whose phase meets
// the p99 limit with no failed request and no growing backlog, by
// bisection (meeting the limit is assumed monotone in the rate). The
// p99 is the median over windows of the phase (see windowedLatency), and
// a rung that misses is probed once more and counts as missing only if
// both probes miss: one stall of the host should not halve the answer,
// while a backlog that keeps growing fails every probe. It returns 0
// when even the lowest rung misses, plus every probe made.
func searchLadder(rates []float64, limitMS float64, probe func(rate float64) *phase) (float64, []rungVerdict) {
	lo, hi := -1, len(rates) // rates[lo] passes, rates[hi] fails
	var probed []rungVerdict
	try := func(rate float64) bool {
		ph := probe(rate)
		_, _, p99, _ := windowedLatency(ph)
		lagP99 := 0.0
		if len(ph.lags) > 0 {
			_, lagP99 = tailPercentile(msOf(ph.lags))
		}
		v := rungVerdict{rate: rate, p99ms: p99, grew: ph.grew(limitMS), lagMS: lagP99}
		v.ok = ph.failed == 0 && !v.grew && p99 <= limitMS
		probed = append(probed, v)
		return v.ok
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(rates[mid]) || try(rates[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, probed
	}
	return rates[lo], probed
}

package main

import (
	"sort"
	"syscall"
	"time"
)

// roundStats is what one round measured.  scale turns the raw samples into
// reference-speed time; rawWall stays unscaled for the report.
type roundStats struct {
	ops     int
	rawWall time.Duration
	factor  float64
	wall    time.Duration
	cpu     time.Duration
	lat     [numLat][]time.Duration
}

// scale divides the round's wall time, the given raw CPU time and every
// latency sample by the round's speed factor.
func (r *roundStats) scale(factor float64, rawCPU time.Duration) {
	r.factor = factor
	r.wall = time.Duration(float64(r.rawWall) / factor)
	r.cpu = time.Duration(float64(rawCPU) / factor)
	for k := range r.lat {
		for i, d := range r.lat[k] {
			r.lat[k][i] = time.Duration(float64(d) / factor)
		}
	}
}

// cpuTime returns the process's user+system CPU time so far (all threads,
// GC workers included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of the samples by linear interpolation
// between order statistics; 0 for an empty sample.  It sorts in place.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo >= len(samples)-1 {
		return samples[len(samples)-1]
	}
	frac := pos - float64(lo)
	return samples[lo] + time.Duration(frac*float64(samples[lo+1]-samples[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundsPerRun is the number of rounds the measured phase aims for.
const roundsPerRun = 10

// median of a float sample; 0 for an empty one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianRound is the median over rounds of a per-round value; rounds where
// the value is undefined (ok false) are skipped.
func medianRound(rs []roundStats, value func(*roundStats) (float64, bool)) float64 {
	var vals []float64
	for i := range rs {
		if v, ok := value(&rs[i]); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

func (r *roundStats) throughput() (float64, bool) {
	return float64(r.ops) / r.wall.Seconds(), r.wall > 0
}

func (r *roundStats) cpuPerOp() (float64, bool) {
	return ms(r.cpu) / float64(r.ops), r.ops > 0
}

// pooledLatency is the q-quantile in ms of one latency class over the
// samples of every round.
func pooledLatency(rs []roundStats, k latKind, q float64) float64 {
	var all []time.Duration
	for i := range rs {
		all = append(all, rs[i].lat[k]...)
	}
	return ms(quantile(all, q))
}

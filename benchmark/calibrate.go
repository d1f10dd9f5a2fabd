package main

import (
	"io"
	"math"
	"net"
	"net/http"
	"time"
)

// The machine this benchmark runs on is a small shared VM whose speed moves
// by tens of percent for seconds to minutes (other tenants thrashing the
// shared cache and memory bus, vCPU wake-ups getting slower): whole runs of
// identical code differ by 20%, and so do rounds inside one run.  Raw
// wall-clock numbers therefore cannot carry a 10-25% regression bound.  Two
// things make them steady:
//
//   - Calibration.  Between ops the load client times three fixed reference
//     kernels: a register-and-L1 loop (core clock and SMT sharing), random
//     read-modify-writes over an 8 MiB buffer (the shared cache levels, like
//     the map- and pointer-heavy request path) and a few HTTP round trips to
//     a trivial handler of the benchmark's own (the wake-up and syscall path
//     of a loopback request).  The geometric mean of their times over their
//     nominal times is one reading of the machine's speed factor; the
//     median reading of a round is the round's factor, and every time
//     measured in the round — op latencies, wall time, CPU time — is divided
//     by it.  A reported "ms" is thus a millisecond at the reference box's
//     nominal speed.  The kernels are benchmark code, so a change to the
//     program cannot move them.
//   - Rounds.  The measured phase is cut into rounds of whole schedule
//     cycles (each round has exactly the workload's op mix); throughput and
//     CPU per op are computed per round and the median round is reported,
//     which shrugs off the rounds an episode of heavy interference ruins.
//     Latency quantiles pool the scaled samples of every round.

const (
	aluIters = 100000
	aluWords = 1 << 12
	memIters = 25000
	memWords = 1 << 20
	pings    = 5
	// The nominal times are what the kernels take on the 2-core reference
	// box in a quiet moment.  They only fix the scale of the reported times.
	aluNominal  = 235 * time.Microsecond
	memNominal  = 650 * time.Microsecond
	pingNominal = 650 * time.Microsecond
	// calEvery is the longest stretch of ops between two calibrations.  Each
	// calibration then reads the kernels for calShare of the stretch it
	// follows (at least once, at most calMax): one reading takes about
	// 1.5 ms, so a run spends 5-8% of its time calibrating and a round holds
	// a hundred readings or more whether its ops take 0.1 ms or a second.
	calEvery = 20 * time.Millisecond
	calShare = 20
	calMax   = 60 * time.Millisecond
)

// calibration is the time each reference kernel took in one call of
// calibrate.
type calibration struct{ alu, mem, ping time.Duration }

// reference owns the calibration kernels' state: the buffer and generator of
// the memory kernel (the generator carries on between calls, so no call
// replays addresses a previous one left in cache) and the ping server with
// its one client connection.
type reference struct {
	small  [aluWords]uint64
	buf    []uint64
	x      uint64
	url    string
	srv    *http.Server
	client *http.Client
}

var ref *reference

// startReference boots the ping server; stopReference closes it.
func startReference() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ref = &reference{
		buf: make([]uint64, memWords),
		x:   88172645463325252,
		url: "http://" + ln.Addr().String() + "/",
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("ok")) //nolint:errcheck // the client checks
		})},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	go ref.srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed
	_, err = ref.measure()
	return err
}

func stopReference() {
	ref.client.CloseIdleConnections()
	ref.srv.Close()
}

// measure runs the three kernels once.
func (r *reference) measure() (calibration, error) {
	start := time.Now()
	x := r.x
	for i := 0; i < aluIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.small[x&(aluWords-1)] += x
	}
	t0 := time.Now()
	for i := 0; i < memIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.buf[x&(memWords-1)] += x
	}
	r.x = x
	t1 := time.Now()
	for i := 0; i < pings; i++ {
		resp, err := r.client.Get(r.url)
		if err != nil {
			return calibration{}, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return calibration{}, err
		}
	}
	return calibration{alu: t0.Sub(start), mem: t1.Sub(t0), ping: time.Since(t1)}, nil
}

// reading is one speed-factor reading: the geometric mean of the three
// kernels' slow-downs (> 1 on a slow machine).
func (c calibration) reading() float64 {
	return math.Cbrt(float64(c.alu) / float64(aluNominal) * float64(c.mem) / float64(memNominal) * float64(c.ping) / float64(pingNominal))
}

// calibrator collects the speed-factor readings of one round (or one
// set-up) and accounts the time they cost, so that it can be left out of the
// round's wall and CPU time.
type calibrator struct {
	readings []float64
	last     time.Time
	wall     time.Duration
	cpu      time.Duration
}

// run reads the kernels for about budget (at least once).  A failing ping
// server is a broken benchmark, not a measurement: it panics.
func (c *calibrator) run(budget time.Duration) {
	start, cpu0 := time.Now(), cpuTime()
	for {
		m, err := ref.measure()
		if err != nil {
			panic("benchmark: calibration ping failed: " + err.Error())
		}
		c.readings = append(c.readings, m.reading())
		if time.Since(start) >= budget {
			break
		}
	}
	c.last = time.Now()
	c.wall += c.last.Sub(start)
	c.cpu += cpuTime() - cpu0
}

// maybeRun calibrates when calEvery has passed since the last calibration,
// for calShare of that stretch.
func (c *calibrator) maybeRun() {
	if since := time.Since(c.last); since >= calEvery {
		c.run(min(since/calShare, calMax))
	}
}

// factor is the median reading.
func (c *calibrator) factor() float64 { return median(c.readings) }

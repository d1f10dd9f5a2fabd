package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spread is the distance between the first and third quartile of the values
// as a share of their median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method): the run-to-run
// noise figure the benchmark contract is judged by.
func spread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k*(n+1))/4 - 1
		lo := int(pos)
		switch {
		case pos < 0:
			lo, pos = 0, 0
		case lo >= n-1:
			lo, pos = n-2, float64(n-1)
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	if m := median(s); m != 0 {
		return (q(3) - q(1)) / m
	}
	return 0
}

// selfCheck runs each selected workload as two interleaved sets (A B A B ...) of n
// runs each, every run a fresh process of this binary with its own seed, and
// judges the sets the way the contract does: per end-to-end metric the
// spread of each set must stay within the metric's bound (setup_s exempt)
// and set B's median may not be worse than set A's by more than the bound.
func selfCheck(selected []workload, n int, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for i := 0; i < n; i++ {
			for set := range sets {
				seed := 1 + i + set*n
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64))
				cmd.Stderr = stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var rep report
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || !rep.Correct {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: bad result line (%v): %s\n", w.name, seed, err, lines[len(lines)-1])
					return 1
				}
				for name, m := range rep.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "== %s: 2 sets x %d runs x %gs\n", w.name, n, seconds)
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "  %-20s A %v\n  %-20s B %v\n", m.Name, sets[0][m.Name], "", sets[1][m.Name])
		}
		fmt.Fprintf(stdout, "  %-20s %12s %12s %8s %8s %8s %6s\n", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := mb/ma - 1
			if m.Better == "higher" {
				worse = ma/mb - 1
			}
			sa, sb := spread(a), spread(b)
			verdict := "PASS"
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "FAIL"
				code = 1
			} else if m.Name != "setup_s" && (sa > m.Bound/3 || sb > m.Bound/3) {
				verdict = "pass (spread above a third of the bound)"
			}
			fmt.Fprintf(stdout, "  %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				m.Name, ma, mb, worse*100, sa*100, sb*100, m.Bound*100, verdict)
		}
	}
	return code
}

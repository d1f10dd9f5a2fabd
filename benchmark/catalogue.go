package main

import (
	"fmt"
	"io"
	"syscall"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these (a test
// keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// What is the one-line definition printed by -list.
	What string
}

// endToEnd are the metrics a user of divd would see; every workload reports
// all of them.  Times are in reference-speed units (see calibrate.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "generate tenants, boot the stack, create the long-lived sessions, warm up, follower convergence (median of 3 set-ups)"},
	{"throughput_rps", "1/s", "higher", 0.2, "ops / wall time of a round, median round"},
	{"cpu_ms_per_op", "ms", "lower", 0.2, "process user+sys CPU time of a round / ops, median round"},
	{"read_cached_p50_ms", "ms", "lower", 0.25, "GET assignment answering with the version this client read last, p50"},
	{"read_fresh_p50_ms", "ms", "lower", 0.25, "GET assignment answering with a version this client had not read yet, p50"},
	{"delta_p50_ms", "ms", "lower", 0.25, "POST deltas to ack, p50"},
	{"delta_p90_ms", "ms", "lower", 0.25, "POST deltas to ack, p90"},
	{"create_p50_ms", "ms", "lower", 0.25, "POST /v1/networks of a transient session, p50"},
	{"assess_p50_ms", "ms", "lower", 0.2, "POST assess (20 runs, fixed request seed), p50"},
	{"alloc_kb_per_op", "KiB", "lower", 0.05, "heap bytes allocated during the measured phase / ops (server and load client)"},
	{"energy_per_host", "1", "lower", 0.05, "sum of final session energies / sum of hosts over the long-lived tenants"},
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-16s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (-trace 0; times scaled to the reference box's nominal speed):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-20s %-5s %-6s bound %4.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.What)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-32s %-7s %-6s %s\n", m.Name, m.Unit, m.Better, m.What)
	}
}

// fsType names the filesystem holding dir (the WAL's fsync cost depends on
// it), as the statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}

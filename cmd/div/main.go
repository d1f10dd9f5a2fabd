// Command div runs the paper's workflow: optimise a network's
// diversification, evaluate an assignment with the MTTC simulation and the
// Bayesian-network diversity metric d_bn, write an assessment report, and
// regenerate the tables and figures of the paper's evaluation.
//
// Usage:
//
//	div opt -in network.json [-solver trws] [-iterations 100] [-out assignment.json] [-dot net.dot]
//	div opt -case-study -scenario host-constraints
//	div opt -in big.json -parallel 8 -workers 4      # partitioned parallel mode
//	div sim -case-study -assignment optimal -entry c4 -target t5
//	div sim -in network.json -assignment-file assignment.json -entry h0 -target h9
//	div report -case-study -out report.md -dot-dir out/
//	div tables -exp table5,table6 [-full]            # -exp all: every experiment
//	div simtable -table os [-recompute] [-json]
//
// opt, sim and report load one problem: the spec named by -in together with
// the spec's own constraints, or (with -case-study, or without -in) the
// built-in Stuxnet case study under the -scenario constraints (report always
// uses host-constraints).  Every subcommand takes -cpuprofile and
// -memprofile.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"netdiversity/internal/casestudy"
	"netdiversity/internal/core"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/profiling"
	"netdiversity/internal/vulnsim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "div:", err)
		os.Exit(1)
	}
}

// command is one subcommand: the shared flags it reads, their defaults, and
// a constructor that declares its own flags and returns its body.
type command struct {
	shared   string
	defaults common
	flags    func(fs *flag.FlagSet, c *common) func(out io.Writer) error
}

var commands = map[string]command{
	"opt": {"in case-study scenario solver iterations seed",
		common{scenario: "none", solver: "trws", iterations: 100, seed: 1}, optCmd},
	"sim": {"in case-study scenario solver seed entry target runs",
		common{scenario: "none", solver: "trws", seed: 1, entry: "c4", target: "t5", runs: 1000}, simCmd},
	"report": {"in case-study seed entry target runs",
		common{scenario: "host-constraints", seed: 1, entry: "c4", target: "t5", runs: 300}, reportCmd},
	"tables":   {"seed", common{seed: 42}, tablesCmd},
	"simtable": {"", common{}, simtableCmd},
}

func run(args []string, out io.Writer) (err error) {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(args) == 0 {
		return fmt.Errorf("usage: div <%s> [flags]", strings.Join(names, "|"))
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (want one of %s)", args[0], strings.Join(names, ", "))
	}
	fs := flag.NewFlagSet("div "+args[0], flag.ContinueOnError)
	c := cmd.defaults
	c.register(fs, cmd.shared)
	body := cmd.flags(fs, &c)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	stopProfiling, err := profiling.Start(c.cpuProfile, c.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiling(); perr != nil && err == nil {
			err = perr
		}
	}()
	return body(out)
}

// common holds the flags the subcommands share.  A subcommand's defaults
// are the struct's initial values.
type common struct {
	in, scenario, solver, entry, target string
	caseStudy                           bool
	iterations, workers, runs           int
	seed                                int64
	cpuProfile, memProfile              string
}

// register declares the shared flags listed in names on fs, plus the
// profiling pair every subcommand takes.
func (c *common) register(fs *flag.FlagSet, names string) {
	for _, name := range strings.Fields(names) {
		switch name {
		case "in":
			fs.StringVar(&c.in, name, c.in, "network spec JSON ('-' for stdin); without it the case study is used")
		case "case-study":
			fs.BoolVar(&c.caseStudy, name, c.caseStudy, "ignore -in and use the built-in ICS case study")
		case "scenario":
			fs.StringVar(&c.scenario, name, c.scenario, "case-study constraint scenario: none, host-constraints, product-constraints (a spec carries its own)")
		case "solver":
			fs.StringVar(&c.solver, name, c.solver, "solver from the registry: "+strings.Join(core.SolverNames(), ", "))
		case "iterations":
			fs.IntVar(&c.iterations, name, c.iterations, "maximum solver iterations")
		case "seed":
			fs.Int64Var(&c.seed, name, c.seed, "random seed")
		case "entry":
			fs.StringVar(&c.entry, name, c.entry, "attacker entry host")
		case "target":
			fs.StringVar(&c.target, name, c.target, "attack target host")
		case "runs":
			fs.IntVar(&c.runs, name, c.runs, "simulation runs (per MTTC cell)")
		default:
			panic("div: unknown shared flag " + name)
		}
	}
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write cpu profile to `file`")
	fs.StringVar(&c.memProfile, "memprofile", "", "write memory profile to `file`")
}

// load returns the network, its constraint set (nil when unconstrained) and
// the similarity table: the spec named by -in with the spec's constraints
// and the paper's similarity table, or the case study under the -scenario
// constraints.
func (c *common) load() (*netmodel.Network, *netmodel.ConstraintSet, *vulnsim.SimilarityTable, error) {
	if c.caseStudy || c.in == "" {
		net, err := casestudy.Build()
		if err != nil {
			return nil, nil, nil, err
		}
		var cs *netmodel.ConstraintSet
		switch c.scenario {
		case "none", "":
		case "host-constraints":
			cs = casestudy.HostConstraints()
		case "product-constraints":
			cs = casestudy.ProductConstraints()
		default:
			return nil, nil, nil, fmt.Errorf("unknown scenario %q", c.scenario)
		}
		return net, cs, casestudy.Similarity(), nil
	}
	r := io.Reader(os.Stdin)
	if c.in != "-" {
		f, err := os.Open(c.in)
		if err != nil {
			return nil, nil, nil, err
		}
		defer f.Close()
		r = f
	}
	net, cs, err := netmodel.ReadSpec(r)
	if err != nil {
		return nil, nil, nil, err
	}
	if cs.Empty() {
		cs = nil
	}
	// Unknown products fall back to the table's default similarity (0).
	return net, cs, vulnsim.PaperSimilarity(), nil
}

// optimizer returns an optimiser for the loaded problem under cs (nil:
// unconstrained) with the -solver, -iterations, -seed and (opt's) -workers
// flags.
func (c *common) optimizer(net *netmodel.Network, sim *vulnsim.SimilarityTable, cs *netmodel.ConstraintSet) (*core.Optimizer, error) {
	solver, err := core.ParseSolver(c.solver)
	if err != nil {
		return nil, err
	}
	opt, err := core.NewOptimizer(net, sim, core.Options{
		Solver:        solver,
		MaxIterations: c.iterations,
		Workers:       c.workers,
		Seed:          c.seed,
	})
	if err != nil {
		return nil, err
	}
	if cs != nil {
		if err := opt.SetConstraints(cs); err != nil {
			return nil, err
		}
	}
	return opt, nil
}

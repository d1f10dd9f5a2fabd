// Package netdiversity is the public API of the library.  It reproduces the
// system of "Scalable Approach to Enhancing ICS Resilience by Network
// Diversity" (Li, Feng, Hankin — DSN 2020): optimal assignment of software
// products across a networked (industrial control) system so that the spread
// of zero-day malware between hosts running similar products is minimised.
//
// The workflow mirrors the paper:
//
//  1. Obtain a vulnerability SimilarityTable — either the tables published in
//     the paper (PaperSimilarity) or one computed from a CVE corpus with
//     BuildSimilarityTable.
//  2. Describe the Network: hosts, links, the services every host provides
//     and the candidate products for each service; optionally a
//     ConstraintSet with pinned products and require/forbid rules.
//  3. Run the Optimizer (TRW-S by default) to obtain the optimal assignment.
//  4. Evaluate assignments with the Bayesian-network diversity metric
//     (Diversity) and the malware-propagation simulator (NewSimulator).
//
// The sub-packages under internal/ hold the implementations; this package
// re-exports the types needed by library users, the examples and the command
// line tools.
package netdiversity

import (
	"netdiversity/internal/attacksim"
	"netdiversity/internal/baseline"
	"netdiversity/internal/bayes"
	"netdiversity/internal/casestudy"
	"netdiversity/internal/core"
	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/nvdgen"
	"netdiversity/internal/vulnsim"

	// Blank import registers the multilevel coarsening solver with the solve
	// registry, so library users and the cmd tools can select it by name.
	_ "netdiversity/internal/multilevel"
)

// Network model types (Definitions 2-5 of the paper).
type (
	// Network is a set of hosts, links, services and candidate products.
	Network = netmodel.Network
	// Host is one host with its services and candidate products.
	Host = netmodel.Host
	// Link is an undirected connection between two hosts.
	Link = netmodel.Link
	// Assignment maps every (host, service) pair to the installed product.
	Assignment = netmodel.Assignment
	// Constraint is a local or global configuration constraint.
	Constraint = netmodel.Constraint
	// ConstraintSet bundles constraints and pinned products.
	ConstraintSet = netmodel.ConstraintSet
	// HostID, ServiceID and ProductID identify hosts, services and products.
	HostID    = netmodel.HostID
	ServiceID = netmodel.ServiceID
	ProductID = netmodel.ProductID
	// Spec is the JSON representation of a network plus constraints.
	Spec = netmodel.Spec
)

// Vulnerability-similarity types (Section III of the paper).
type (
	// SimilarityTable stores pairwise vulnerability similarities.
	SimilarityTable = vulnsim.SimilarityTable
	// Product identifies an off-the-shelf product (CPE-style).
	Product = vulnsim.Product
	// CVE is a single vulnerability record.
	CVE = vulnsim.CVE
	// CVEDatabase is an in-memory CVE corpus (the offline NVD stand-in).
	CVEDatabase = vulnsim.Database
	// VulnFilter restricts which vulnerabilities count toward similarity.
	VulnFilter = vulnsim.VulnFilter
	// Catalog is a set of products indexed by ID.
	Catalog = vulnsim.Catalog
)

// Optimisation types (Section V of the paper).
type (
	// Optimizer computes optimal diversification strategies.
	Optimizer = core.Optimizer
	// OptimizerOptions configures the optimiser.
	OptimizerOptions = core.Options
	// OptimizeResult is the outcome of an optimisation run.
	OptimizeResult = core.Result
	// Solver selects the minimisation algorithm.
	Solver = core.Solver
)

// Evaluation types (Sections VI and VII of the paper).
type (
	// DiversityConfig parameterises the Bayesian attack network.
	DiversityConfig = bayes.Config
	// DiversityResult reports the d_bn metric.
	DiversityResult = bayes.MetricResult
	// InferenceOptions configures probability computation.
	InferenceOptions = bayes.InferenceOptions
	// Simulator runs malware-propagation campaigns.
	Simulator = attacksim.Simulator
	// SimulationConfig parameterises a simulation campaign.
	SimulationConfig = attacksim.Config
	// SimulationResult reports MTTC and related statistics.
	SimulationResult = attacksim.Result
	// AttackCampaign is a campaign compiled to the flat CSR attack engine;
	// obtain one with Simulator.Compile to run many batches over it.
	AttackCampaign = attacksim.Campaign
	// SimulationMode selects the campaign execution engine.
	SimulationMode = attacksim.Mode
	// RandomNetworkConfig parameterises the random network generator used
	// by the scalability experiments.
	RandomNetworkConfig = netgen.RandomConfig
)

// Solver names linked into every build (see ParseSolver for the rest).
const (
	SolverTRWS   = core.SolverTRWS
	SolverBP     = core.SolverBP
	SolverICM    = core.SolverICM
	SolverAnneal = core.SolverAnneal
)

// Simulation execution modes: the synchronous tick loop (bit-exact with the
// historical simulator) and the event-driven geometric/Dijkstra engine
// (statistically equivalent, faster on high-MTTC campaigns).
const (
	SimulationTick  = attacksim.ModeTick
	SimulationEvent = attacksim.ModeEvent
)

// Constraint modes and the global-constraint host sentinel.
const (
	Require  = netmodel.Require
	Forbid   = netmodel.Forbid
	AllHosts = netmodel.AllHosts
)

// Common service identifiers used by the case study.
const (
	ServiceOS       = netmodel.ServiceOS
	ServiceBrowser  = netmodel.ServiceBrowser
	ServiceDatabase = netmodel.ServiceDatabase
)

// NewNetwork creates an empty network.
func NewNetwork() *Network { return netmodel.New() }

// NewAssignment creates an empty assignment.
func NewAssignment() *Assignment { return netmodel.NewAssignment() }

// NewConstraintSet creates an empty constraint set.
func NewConstraintSet() *ConstraintSet { return netmodel.NewConstraintSet() }

// NewOptimizer creates an optimiser for the network and similarity table.
func NewOptimizer(net *Network, sim *SimilarityTable, opts OptimizerOptions) (*Optimizer, error) {
	return core.NewOptimizer(net, sim, opts)
}

// ParseSolver converts a solver name ("trws", "bp", "icm", "anneal"),
// validated against the unified solver registry.
func ParseSolver(name string) (Solver, error) { return core.ParseSolver(name) }

// SolverNames lists the names registered with the unified solver registry;
// each is usable with ParseSolver and the div tool's -solver flag.
func SolverNames() []string { return core.SolverNames() }

// PairwiseSimilarityCost returns the summed similarity over all links and
// shared services for an assignment (the pairwise part of Eq. 1).
func PairwiseSimilarityCost(net *Network, sim *SimilarityTable, a *Assignment) (float64, error) {
	return core.PairwiseSimilarityCost(net, sim, a)
}

// Jaccard computes the Jaccard similarity of two vulnerability sets.
func Jaccard(a, b map[string]struct{}) float64 { return vulnsim.Jaccard(a, b) }

// NewSimilarityTable creates an empty similarity table over the products.
func NewSimilarityTable(products []string) *SimilarityTable {
	return vulnsim.NewSimilarityTable(products)
}

// BuildSimilarityTable computes a similarity table from a CVE corpus.
func BuildSimilarityTable(db *CVEDatabase, products []string, filter VulnFilter) *SimilarityTable {
	return vulnsim.BuildSimilarityTable(db, products, filter)
}

// NewCVEDatabase creates an empty CVE corpus.
func NewCVEDatabase() *CVEDatabase { return vulnsim.NewDatabase() }

// PaperSimilarity returns the merged similarity table of the paper's
// Tables II/III plus the case-study database products.
func PaperSimilarity() *SimilarityTable { return vulnsim.PaperSimilarity() }

// PaperOSTable returns Table II of the paper.
func PaperOSTable() *SimilarityTable { return vulnsim.PaperOSTable() }

// PaperBrowserTable returns Table III of the paper.
func PaperBrowserTable() *SimilarityTable { return vulnsim.PaperBrowserTable() }

// SyntheticNVD generates a synthetic CVE corpus that reproduces a similarity
// table exactly (the offline substitute for querying NVD).
func SyntheticNVD(table *SimilarityTable, startYear int) (*CVEDatabase, error) {
	return nvdgen.FromSimilarityTable(table, startYear)
}

// MonoAssignment returns the homogeneous (worst-case) assignment α_m.
func MonoAssignment(net *Network, cs *ConstraintSet) (*Assignment, error) {
	return baseline.Mono(net, cs)
}

// RandomAssignment returns a uniformly random assignment α_r.
func RandomAssignment(net *Network, cs *ConstraintSet, seed int64) (*Assignment, error) {
	return baseline.Random(net, cs, seed)
}

// GreedyColoringAssignment returns the greedy graph-colouring style baseline.
func GreedyColoringAssignment(net *Network, sim *SimilarityTable, cs *ConstraintSet) (*Assignment, error) {
	return baseline.GreedyColoring(net, sim, cs)
}

// Diversity computes the BN-based diversity metric d_bn (Definition 6).
func Diversity(net *Network, a *Assignment, sim *SimilarityTable, cfg DiversityConfig, opts InferenceOptions) (DiversityResult, error) {
	return bayes.Diversity(net, a, sim, cfg, opts)
}

// NewSimulator prepares a malware-propagation simulator for a network and
// assignment.
func NewSimulator(net *Network, a *Assignment, sim *SimilarityTable) (*Simulator, error) {
	return attacksim.New(net, a, sim)
}

// RandomNetwork generates a connected random network (scalability workloads).
func RandomNetwork(cfg RandomNetworkConfig) (*Network, error) { return netgen.Random(cfg) }

// SyntheticSimilarity builds a similarity table for the synthetic products of
// a random network.
func SyntheticSimilarity(cfg RandomNetworkConfig, maxSim float64) *SimilarityTable {
	return netgen.SyntheticSimilarity(cfg, maxSim)
}

// CaseStudyNetwork builds the Stuxnet-inspired ICS network of the paper's
// case study (Fig. 3 / Table IV).
func CaseStudyNetwork() (*Network, error) { return casestudy.Build() }

// CaseStudyHostConstraints returns the host-constraint scenario C1.
func CaseStudyHostConstraints() *ConstraintSet { return casestudy.HostConstraints() }

// CaseStudyProductConstraints returns the product-constraint scenario C2.
func CaseStudyProductConstraints() *ConstraintSet { return casestudy.ProductConstraints() }

// CaseStudyAttackServices returns the services the case-study attacker holds
// zero-day exploits for.
func CaseStudyAttackServices() []ServiceID { return casestudy.AttackServices() }

// CaseStudyEntries returns the five malware entry points of Table VI.
func CaseStudyEntries() []HostID { return casestudy.Entries() }

// CaseStudyTarget returns the attack target (the WinCC server t5).
func CaseStudyTarget() HostID { return casestudy.TargetWinCC }

// Package workloads reproduces Table I of the paper: the 30 applications
// drawn from HiBench and spark-perf, run on Hadoop 2.7, Spark 1.5 and
// Spark 2.1 at three input sizes. After excluding the (application, system,
// size) combinations that run out of memory on the smallest VM types —
// exactly as the paper excludes failed tests — the catalog yields the 107
// workloads of the empirical study.
//
// Each application carries a resource-demand profile (CPU work, Amdahl
// serial fraction, working set, I/O volume) that the simulator in
// internal/sim turns into per-VM execution times and low-level metrics.
// The profiles are synthetic but chosen to span the paper's behaviours:
// CPU-bound kernels that favor compute-optimized VMs, memory-hungry
// learners that collapse on small instances (the 15-20x cliffs of
// Figures 3 and 8), and I/O-heavy Hadoop jobs bounded by EBS bandwidth.
package workloads

import (
	"fmt"
	"sort"
	"sync"
)

// Category groups applications as in Table I.
type Category int

// The Table I categories.
const (
	Micro Category = iota + 1
	OLAP
	Statistics
	MachineLearning
)

// String names the category as in Table I.
func (c Category) String() string {
	switch c {
	case Micro:
		return "Micro Benchmark"
	case OLAP:
		return "OLAP"
	case Statistics:
		return "Statistics Function"
	case MachineLearning:
		return "Machine Learning"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// System is the data-processing engine a workload runs on.
type System int

// The three engines of the study.
const (
	Hadoop27 System = iota + 1
	Spark15
	Spark21
)

// String names the system as in the paper's figures.
func (s System) String() string {
	switch s {
	case Hadoop27:
		return "hadoop2.7"
	case Spark15:
		return "spark1.5"
	case Spark21:
		return "spark2.1"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// systemProfile scales an application's base demands for engine
// characteristics: Hadoop materializes between stages (heavy I/O, modest
// memory footprint, per-record overhead), Spark 1.5 caches aggressively
// with a heavier JVM footprint, Spark 2.1 is the whole-stage-codegen
// baseline.
type systemProfile struct {
	cpu float64
	mem float64
	io  float64
}

func (s System) profile() systemProfile {
	switch s {
	case Hadoop27:
		return systemProfile{cpu: 1.3, mem: 0.7, io: 2.5}
	case Spark15:
		return systemProfile{cpu: 1.2, mem: 1.25, io: 1.0}
	case Spark21:
		return systemProfile{cpu: 1.0, mem: 1.0, io: 1.0}
	default:
		panic(fmt.Sprintf("workloads: invalid system %d", int(s)))
	}
}

// InputSize is the paper's small/medium/large input scaling.
type InputSize int

// The three input sizes.
const (
	Small InputSize = iota + 1
	Medium
	Large
)

// String names the size.
func (s InputSize) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("InputSize(%d)", int(s))
	}
}

// Sizes lists the input sizes in increasing order.
func Sizes() []InputSize { return []InputSize{Small, Medium, Large} }

// Demands is a workload's resource-demand profile, resolved for a specific
// engine and input size.
type Demands struct {
	// CPUCoreSeconds is the total user-mode CPU work measured in seconds
	// on one reference core (m4-generation speed 1.0).
	CPUCoreSeconds float64
	// SerialFraction is the Amdahl serial fraction limiting parallel
	// speedup across cores.
	SerialFraction float64
	// WorkingSetGiB is the peak resident working set; exceeding VM memory
	// triggers spilling and GC thrash in the simulator.
	WorkingSetGiB float64
	// IOGiB is the input + shuffle + output volume moved over EBS.
	IOGiB float64
}

// Application is one Table I entry with its base (medium-size, Spark 2.1)
// demand profile and per-size growth factors.
type Application struct {
	Name        string
	Category    Category
	Description string
	Systems     []System

	Base Demands
	// Growth factors per input-size step: small = base/growth,
	// large = base*growth.
	CPUGrowth float64
	MemGrowth float64
	IOGrowth  float64
}

// defaultGrowth fills zero growth factors.
const (
	defaultCPUGrowth = 2.0
	defaultMemGrowth = 1.7
	defaultIOGrowth  = 2.0
)

// Applications returns the 30 applications of Table I in catalog order.
// The returned slice is a fresh copy.
func Applications() []Application {
	return append([]Application(nil), applications...)
}

var applications = []Application{
	// --- Micro benchmarks (HiBench) -------------------------------------
	{
		Name: "sort", Category: Micro,
		Description: "Sorts text input data, generated by RandomTextWriter in Hadoop.",
		Systems:     []System{Hadoop27},
		Base:        Demands{CPUCoreSeconds: 800, SerialFraction: 0.05, WorkingSetGiB: 2.5, IOGiB: 30},
		IOGrowth:    2.2, MemGrowth: 1.8,
	},
	{
		Name: "terasort", Category: Micro,
		Description: "A standard Hadoop benchmark. Data is generated from TeraGen.",
		Systems:     []System{Hadoop27},
		Base:        Demands{CPUCoreSeconds: 1200, SerialFraction: 0.05, WorkingSetGiB: 3.5, IOGiB: 45},
		IOGrowth:    2.2, MemGrowth: 1.8,
	},
	{
		Name: "pagerank", Category: Micro,
		Description: "The PageRank algorithm. Hyperlinks follow the Zipfian distribution.",
		Systems:     []System{Hadoop27},
		Base:        Demands{CPUCoreSeconds: 2500, SerialFraction: 0.12, WorkingSetGiB: 5, IOGiB: 18},
		CPUGrowth:   1.9, MemGrowth: 1.9, IOGrowth: 1.9,
	},
	{
		Name: "wordcount", Category: Micro,
		Description: "Counts the frequency of words generated by RandomTextWriter. A typical MapReduce job.",
		Systems:     []System{Hadoop27, Spark21},
		Base:        Demands{CPUCoreSeconds: 1500, SerialFraction: 0.04, WorkingSetGiB: 2, IOGiB: 22},
		MemGrowth:   1.7, IOGrowth: 2.1,
	},

	// --- OLAP (Hive queries) --------------------------------------------
	{
		Name: "aggregation", Category: OLAP,
		Description: "Hive queries simulating OLAP-style aggregation.",
		Systems:     []System{Hadoop27},
		Base:        Demands{CPUCoreSeconds: 1000, SerialFraction: 0.08, WorkingSetGiB: 4, IOGiB: 20},
		CPUGrowth:   1.8, MemGrowth: 1.7,
	},
	{
		Name: "join", Category: OLAP,
		Description: "Implements the join operation in Hive.",
		Systems:     []System{Hadoop27},
		Base:        Demands{CPUCoreSeconds: 1400, SerialFraction: 0.15, WorkingSetGiB: 6.5, IOGiB: 24},
		CPUGrowth:   1.8, MemGrowth: 1.9,
	},
	{
		Name: "scan", Category: OLAP,
		Description: "Implements the scan operation in Hive.",
		Systems:     []System{Hadoop27},
		Base:        Demands{CPUCoreSeconds: 500, SerialFraction: 0.03, WorkingSetGiB: 1.5, IOGiB: 35},
		CPUGrowth:   1.9, MemGrowth: 1.5, IOGrowth: 2.2,
	},

	// --- Statistics functions (spark-perf) ------------------------------
	{
		Name: "chi-feature", Category: Statistics,
		Description: "Chi-square feature selection.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 900, SerialFraction: 0.10, WorkingSetGiB: 3, IOGiB: 4},
	},
	{
		Name: "chi-gof", Category: Statistics,
		Description: "Chi-square goodness-of-fit test.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 700, SerialFraction: 0.08, WorkingSetGiB: 2.5, IOGiB: 3},
	},
	{
		Name: "chi-mat", Category: Statistics,
		Description: "Chi-square tests for identity matrix.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 1100, SerialFraction: 0.10, WorkingSetGiB: 4, IOGiB: 4},
	},
	{
		Name: "spearman", Category: Statistics,
		Description: "Computes Spearman's correlation of two RDDs.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 1600, SerialFraction: 0.15, WorkingSetGiB: 7, IOGiB: 6},
	},
	{
		Name: "statistics", Category: Statistics,
		Description: "Generates column-wise summary statistics.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 600, SerialFraction: 0.06, WorkingSetGiB: 2, IOGiB: 5},
	},
	{
		Name: "pearson", Category: Statistics,
		Description: "Computes the Pearson correlation of two series of data.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 800, SerialFraction: 0.07, WorkingSetGiB: 3, IOGiB: 5},
	},
	{
		Name: "svd", Category: Statistics,
		Description: "Singular value decomposition, a fundamental matrix operation.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 3200, SerialFraction: 0.30, WorkingSetGiB: 9, IOGiB: 6},
	},
	{
		Name: "pca", Category: Statistics,
		Description: "Principal component analysis for dimension reduction.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 2800, SerialFraction: 0.25, WorkingSetGiB: 8, IOGiB: 6},
	},
	{
		Name: "word2vec", Category: Statistics,
		Description: "Generates distributed vector representations of words.",
		Systems:     []System{Spark21},
		Base:        Demands{CPUCoreSeconds: 3600, SerialFraction: 0.20, WorkingSetGiB: 6, IOGiB: 4},
	},

	// --- Machine learning (spark.mllib, run on Spark 1.5 and 2.1) -------
	{
		Name: "classification", Category: MachineLearning,
		Description: "Generalized linear classification model.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 2600, SerialFraction: 0.10, WorkingSetGiB: 9.5, IOGiB: 7},
		MemGrowth:   1.7,
	},
	{
		Name: "regression", Category: MachineLearning,
		Description: "Generalized linear regression model.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 2400, SerialFraction: 0.10, WorkingSetGiB: 8, IOGiB: 7},
	},
	{
		Name: "als", Category: MachineLearning,
		Description: "Alternating least squares collaborative filtering (spark.mllib).",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 3000, SerialFraction: 0.18, WorkingSetGiB: 7.5, IOGiB: 5},
	},
	{
		Name: "bayes", Category: MachineLearning,
		Description: "Naive Bayes multiclass classification over dictionary-generated documents.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 1800, SerialFraction: 0.08, WorkingSetGiB: 6.5, IOGiB: 9},
	},
	{
		Name: "lr", Category: MachineLearning,
		Description: "Logistic regression, a popular classification algorithm.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 2600, SerialFraction: 0.06, WorkingSetGiB: 6.5, IOGiB: 6},
	},
	{
		Name: "mm", Category: MachineLearning,
		Description: "Matrix multiplication with configurable row, column and block sizes.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 4000, SerialFraction: 0.35, WorkingSetGiB: 10, IOGiB: 8},
	},
	{
		Name: "d-tree", Category: MachineLearning,
		Description: "Greedy decision-tree algorithm for classification and regression.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 2200, SerialFraction: 0.12, WorkingSetGiB: 6, IOGiB: 7},
	},
	{
		Name: "gb-tree", Category: MachineLearning,
		Description: "Gradient-boosted trees, an ensemble learning method.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 3400, SerialFraction: 0.28, WorkingSetGiB: 7, IOGiB: 6},
	},
	{
		Name: "df", Category: MachineLearning,
		Description: "Random-forest algorithm for classification and regression.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 2800, SerialFraction: 0.15, WorkingSetGiB: 8, IOGiB: 7},
	},
	{
		Name: "fp-growth", Category: MachineLearning,
		Description: "FP-growth frequent-pattern mining on large-scale data.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 2600, SerialFraction: 0.20, WorkingSetGiB: 11, IOGiB: 8},
	},
	{
		Name: "gmm", Category: MachineLearning,
		Description: "Gaussian mixture model clustering with k Gaussians.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 2400, SerialFraction: 0.14, WorkingSetGiB: 6.5, IOGiB: 5},
	},
	{
		Name: "kmeans", Category: MachineLearning,
		Description: "K-means clustering finding k cluster centers.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 2000, SerialFraction: 0.10, WorkingSetGiB: 6, IOGiB: 6},
	},
	{
		Name: "lda", Category: MachineLearning,
		Description: "Latent Dirichlet allocation topic inference over text documents.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 3200, SerialFraction: 0.22, WorkingSetGiB: 9, IOGiB: 7},
	},
	{
		Name: "pic", Category: MachineLearning,
		Description: "Power iteration clustering, a scalable clustering algorithm.",
		Systems:     []System{Spark15, Spark21},
		Base:        Demands{CPUCoreSeconds: 1800, SerialFraction: 0.16, WorkingSetGiB: 5.5, IOGiB: 5},
	},
}

// Workload is one (application, system, input size) combination with its
// fully resolved demand profile.
type Workload struct {
	AppName     string
	Category    Category
	Description string
	System      System
	Size        InputSize
	Demands     Demands
}

// ID returns the canonical workload identifier, e.g. "als/spark2.1/medium".
func (w Workload) ID() string {
	return w.AppName + "/" + w.System.String() + "/" + w.Size.String()
}

// sizeMult returns the demand multiplier for a size given a growth factor.
func sizeMult(size InputSize, growth float64) float64 {
	switch size {
	case Small:
		return 1 / growth
	case Medium:
		return 1
	case Large:
		return growth
	default:
		panic(fmt.Sprintf("workloads: invalid size %d", int(size)))
	}
}

// Resolve computes the demand profile of app on the given system and size.
func Resolve(app Application, system System, size InputSize) Workload {
	cpuG := app.CPUGrowth
	if cpuG == 0 {
		cpuG = defaultCPUGrowth
	}
	memG := app.MemGrowth
	if memG == 0 {
		memG = defaultMemGrowth
	}
	ioG := app.IOGrowth
	if ioG == 0 {
		ioG = defaultIOGrowth
	}
	sp := system.profile()
	return Workload{
		AppName:     app.Name,
		Category:    app.Category,
		Description: app.Description,
		System:      system,
		Size:        size,
		Demands: Demands{
			CPUCoreSeconds: app.Base.CPUCoreSeconds * sizeMult(size, cpuG) * sp.cpu,
			SerialFraction: app.Base.SerialFraction,
			WorkingSetGiB:  app.Base.WorkingSetGiB * sizeMult(size, memG) * sp.mem,
			IOGiB:          app.Base.IOGiB * sizeMult(size, ioG) * sp.io,
		},
	}
}

// catalog is the candidate list in ID order, indexed by ID.
type catalog struct {
	all  []Workload
	byID map[string]int
}

// table builds the catalog once per process, on first use: the
// applications it resolves never change.
var table = sync.OnceValue(func() catalog {
	var c catalog
	for _, app := range applications {
		for _, system := range app.Systems {
			for _, size := range Sizes() {
				c.all = append(c.all, Resolve(app, system, size))
			}
		}
	}
	sort.Slice(c.all, func(i, j int) bool { return c.all[i].ID() < c.all[j].ID() })
	c.byID = make(map[string]int, len(c.all))
	for i, w := range c.all {
		c.byID[w.ID()] = i
	}
	return c
})

// All returns every (application, system, size) candidate combination —
// before the out-of-memory exclusions that internal/sim applies to derive
// the 107-workload study set — in ID order. The result is a fresh copy of
// a table built once per process.
func All() []Workload {
	return append([]Workload(nil), table().all...)
}

// ByID returns the workload with the given canonical ID.
func ByID(id string) (Workload, error) {
	t := table()
	i, ok := t.byID[id]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown workload %q", id)
	}
	return t.all[i], nil
}

// NumApplications is the Table I application count.
const NumApplications = 30

// Package cloud models the instance space of the paper's empirical study:
// the 18 AWS EC2 VM types spanning six families {c3, c4, m3, m4, r3, r4}
// and three sizes {large, xlarge, 2xlarge} (Section V-A).
//
// Each type carries its published late-2017 characteristics (vCPU count,
// memory, EBS throughput class, on-demand hourly price in us-east-1) plus
// the simulator-facing attributes (per-core speed, EBS MiB/s) that stand in
// for the physical hardware. The paper's 4-feature numeric encoding — CPU
// type 1–6, core count {2,4,8}, RAM per core {2,4,8}, EBS class {1,2,3} —
// is reproduced by Encode.
package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Family is an EC2 instance family.
type Family int

// The six families of the study. Enums start at one; the numeric value is
// also the paper's "CPU type encoded from one to six in order" feature,
// ordered by generation then family.
const (
	M3 Family = iota + 1
	C3
	R3
	M4
	C4
	R4
)

// String returns the family prefix, e.g. "c4".
func (f Family) String() string {
	switch f {
	case M3:
		return "m3"
	case C3:
		return "c3"
	case R3:
		return "r3"
	case M4:
		return "m4"
	case C4:
		return "c4"
	case R4:
		return "r4"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Size is an EC2 instance size within a family.
type Size int

// The three sizes of the study.
const (
	Large Size = iota + 1
	XLarge
	XXLarge
)

// String returns the size suffix, e.g. "2xlarge".
func (s Size) String() string {
	switch s {
	case Large:
		return "large"
	case XLarge:
		return "xlarge"
	case XXLarge:
		return "2xlarge"
	default:
		return fmt.Sprintf("Size(%d)", int(s))
	}
}

// Cores returns the vCPU count of the size: large=2, xlarge=4, 2xlarge=8.
func (s Size) Cores() int {
	switch s {
	case Large:
		return 2
	case XLarge:
		return 4
	case XXLarge:
		return 8
	default:
		return 0
	}
}

// VM describes one instance type.
type VM struct {
	Family Family
	Size   Size

	// Published characteristics.
	VCPUs       int     // vCPU count
	MemGiB      float64 // total memory
	PricePerHr  float64 // on-demand us-east-1 price, USD/hour, late 2017
	EBSClass    int     // coarse EBS bandwidth class 1..3 (paper's encoding)
	EBSMiBps    float64 // simulator-facing EBS throughput
	CoreSpeed   float64 // simulator-facing per-core speed, m4 == 1.0
	RAMPerCore  float64 // paper's encoded RAM-per-core bucket {2,4,8}
	Description string  // e.g. "compute optimized, 4th generation"
}

// Name returns the EC2 name, e.g. "c4.2xlarge".
func (vm VM) Name() string {
	return vm.Family.String() + "." + vm.Size.String()
}

// NumFeatures is the dimensionality of the paper's instance-space encoding.
const NumFeatures = 4

// FeatureNames labels the encoded dimensions.
func FeatureNames() []string {
	return []string{"cpu-type", "cores", "ram-per-core", "ebs-class"}
}

// Encode returns the paper's 4-feature numeric encoding of the VM:
// {CPU type 1–6, core count, RAM per core, EBS bandwidth class}.
func (vm VM) Encode() []float64 {
	return []float64{
		float64(vm.Family),
		float64(vm.VCPUs),
		vm.RAMPerCore,
		float64(vm.EBSClass),
	}
}

// familySpec carries per-family constants.
type familySpec struct {
	family     Family
	ramPerCore float64 // published bucket: c=2, m=4, r=8 GiB/core
	memPerCore float64 // actual GiB per vCPU used for MemGiB
	coreSpeed  float64 // relative per-core speed (m4 = 1.0)
	priceLarge float64 // USD/hour for .large; xlarge and 2xlarge scale 2x/4x
	desc       string
}

// The family table. Prices are the late-2017 us-east-1 on-demand rates;
// xlarge/2xlarge cost exactly (c3, m3, r3) or almost exactly (c4, m4, r4)
// twice/four times the large rate, so we scale from the large price and
// keep the published large rates exact.
var familySpecs = []familySpec{
	{M3, 4, 3.75, 0.95, 0.133, "general purpose, 3rd generation"},
	{C3, 2, 1.875, 1.15, 0.105, "compute optimized, 3rd generation"},
	{R3, 8, 7.625, 0.95, 0.166, "memory optimized, 3rd generation"},
	{M4, 4, 4.0, 1.00, 0.100, "general purpose, 4th generation"},
	{C4, 2, 1.875, 1.25, 0.100, "compute optimized, 4th generation"},
	// r4's E5-2686v4 clocks below m4's E5-2676v3: memory-optimized
	// instances win on capacity and EBS throughput, not per-core speed.
	{R4, 8, 7.625, 0.97, 0.133, "memory optimized, 4th generation"},
}

// ebsSpec maps (family, size) to the coarse class and a concrete
// throughput. The fourth generation is EBS-optimized by default (c4/m4
// dedicate 500/750/1000 Mbps by size; r4 rides a 10 Gbps network stack and
// sustains much more, especially at 2xlarge); the third generation shares
// the instance network.
func ebsSpec(f Family, s Size) (class int, mibps float64) {
	gen3 := map[Size]float64{Large: 40, XLarge: 60, XXLarge: 90}
	cm4 := map[Size]float64{Large: 62.5, XLarge: 93.75, XXLarge: 125}
	r4 := map[Size]float64{Large: 80, XLarge: 106, XXLarge: 212}
	class = int(s)
	switch f {
	case C4, M4:
		return class, cm4[s]
	case R4:
		return class, r4[s]
	default:
		return class, gen3[s]
	}
}

// Catalog is an immutable, ordered collection of VM types.
type Catalog struct {
	vms    []VM
	byName map[string]int
}

// ErrUnknownVM reports a lookup for a VM type not in the catalog.
var ErrUnknownVM = errors.New("cloud: unknown VM type")

// DefaultCatalog returns the paper's 18-type instance space. The catalog
// is built once per process and shared: every call returns the same
// *Catalog, which nothing can modify.
func DefaultCatalog() *Catalog { return defaultCatalog() }

var defaultCatalog = sync.OnceValue(func() *Catalog {
	var vms []VM
	for _, fs := range familySpecs {
		for _, size := range []Size{Large, XLarge, XXLarge} {
			cores := size.Cores()
			class, mibps := ebsSpec(fs.family, size)
			vms = append(vms, VM{
				Family:      fs.family,
				Size:        size,
				VCPUs:       cores,
				MemGiB:      fs.memPerCore * float64(cores),
				PricePerHr:  fs.priceLarge * float64(cores) / 2,
				EBSClass:    class,
				EBSMiBps:    mibps,
				CoreSpeed:   fs.coreSpeed,
				RAMPerCore:  fs.ramPerCore,
				Description: fs.desc,
			})
		}
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i].Name() < vms[j].Name() })
	byName := make(map[string]int, len(vms))
	for i, vm := range vms {
		byName[vm.Name()] = i
	}
	return &Catalog{vms: vms, byName: byName}
})

// Len returns the number of VM types.
func (c *Catalog) Len() int { return len(c.vms) }

// VM returns the i-th VM type (by catalog order).
func (c *Catalog) VM(i int) VM {
	return c.vms[i]
}

// VMs returns a copy of the full list.
func (c *Catalog) VMs() []VM {
	return append([]VM(nil), c.vms...)
}

// Index returns the catalog index of the named VM type.
func (c *Catalog) Index(name string) (int, error) {
	i, ok := c.byName[name]
	if !ok {
		return 0, fmt.Errorf("cloud: %q: %w", name, ErrUnknownVM)
	}
	return i, nil
}

// Features returns the encoded feature rows for every VM, in catalog order.
func (c *Catalog) Features() [][]float64 {
	out := make([][]float64, len(c.vms))
	for i, vm := range c.vms {
		out[i] = vm.Encode()
	}
	return out
}

// Names returns the VM names in catalog order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.vms))
	for i, vm := range c.vms {
		out[i] = vm.Name()
	}
	return out
}

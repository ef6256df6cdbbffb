// Package rif is the public API of the RiF (Retry-in-Flash)
// reproduction: a library for studying read-retry behaviour of modern
// SSDs, including the on-die early-retry (ODEAR) engine proposed in
// "RiF: Improving Read Performance of Modern SSDs Using an On-Die
// Early-Retry Engine" (HPCA 2024).
//
// The library bundles four layers, all usable on their own:
//
//   - a QC-LDPC codec with syndrome-weight machinery (internal/ldpc),
//   - a calibrated 3D TLC NAND reliability model (internal/nand),
//   - the ODEAR read-retry predictor and voltage selector
//     (internal/odear), and
//   - a discrete-event SSD simulator with seven retry schemes
//     (internal/ssd).
//
// This package re-exports the pieces an application needs to build
// SSD configurations and run workloads; Experiments and RunExperiment
// regenerate every figure of the paper through one experiment table,
// from the code-level Figs. 3–14 to the SSD-level Figs. 17–19. See
// examples/ for runnable entry points.
package rif

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// Scheme selects a read-retry design. See the constants below.
type Scheme = ssd.Scheme

// The seven SSD configurations of the paper's evaluation (§VI-A).
const (
	// SSDZero never retries: the hypothetical performance upper bound.
	SSDZero = ssd.Zero
	// SSDOne is an ideal off-chip retry (NRR = 1).
	SSDOne = ssd.One
	// SENC is the Sentinel baseline.
	SENC = ssd.Sentinel
	// SWR is the Swift-Read baseline.
	SWR = ssd.SWR
	// SWRPlus adds proactive VREF tracking to SWR.
	SWRPlus = ssd.SWRPlus
	// RPSSD places the retry predictor at the controller.
	RPSSD = ssd.RPOnly
	// RiFSSD is the full Retry-in-Flash design.
	RiFSSD = ssd.RiF
)

// AllSchemes lists every scheme in the paper's comparison order.
func AllSchemes() []Scheme { return ssd.AllSchemes() }

// Config assembles a simulated SSD; DefaultConfig returns the paper's
// Table I device.
type Config = ssd.Config

// Metrics is the result of one simulation run.
type Metrics = ssd.Metrics

// SSD is a single-use simulated device.
type SSD = ssd.SSD

// Workload feeds the closed-loop host.
type Workload = ssd.Workload

// DefaultConfig returns the Table I SSD with the given scheme and
// wear state (P/E cycles).
func DefaultConfig(scheme Scheme, peCycles int) Config {
	return ssd.DefaultConfig(scheme, peCycles)
}

// New builds a simulated SSD.
func New(cfg Config, w Workload) (*SSD, error) { return ssd.New(cfg, w) }

// WorkloadSpec statistically describes a block I/O workload.
type WorkloadSpec = trace.Spec

// Workloads returns the paper's eight Table II workload specs.
func Workloads() []WorkloadSpec { return trace.TableII() }

// WorkloadNames lists the Table II workload names.
func WorkloadNames() []string { return trace.Names() }

// WorkloadByName finds a Table II spec.
func WorkloadByName(name string) (WorkloadSpec, error) { return trace.ByName(name) }

// NewWorkload instantiates a deterministic request generator for a
// spec.
func NewWorkload(spec WorkloadSpec, seed uint64) (*trace.Generator, error) {
	return trace.NewGenerator(spec, seed)
}

// RunParams sizes experiment runs; see core.DefaultRunParams.
type RunParams = core.RunParams

// DefaultRunParams returns the sizing the cmd tools use.
func DefaultRunParams() RunParams { return core.DefaultRunParams() }

// Run simulates a single (scheme, workload, P/E) cell.
func Run(p RunParams, scheme Scheme, workload string, peCycles int) (*Metrics, error) {
	return core.RunOne(p, scheme, workload, peCycles)
}

// BandwidthTable is a Fig. 6 / Fig. 17 style result grid.
type BandwidthTable = core.BandwidthTable

// CompareSchemes runs a scheme-by-workload-by-wear bandwidth grid.
func CompareSchemes(p RunParams, schemes []Scheme, workloads []string, peCycles []int) (*BandwidthTable, error) {
	return core.CompareSchemes(p, schemes, workloads, peCycles)
}

// Registry is the observability metrics registry: atomic counters,
// gauges and sketch-backed latency histograms. Attach one to a device
// via Config.Obs (a nil registry disables collection at zero hot-path
// cost); RunParams.Collect gives each collected run its own.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Tracer records sim-time resource occupancies into a bounded ring
// buffer and exports them as Chrome trace_event JSON.
type Tracer = obs.Tracer

// NewTracer returns a tracer with the given span capacity (values < 1
// select the default).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// RunManifest is the machine-readable record of one simulation run.
type RunManifest = obs.Manifest

// RunCollection gathers the manifests of a multi-run experiment; set
// it as RunParams.Collect to record every simulated cell.
type RunCollection = obs.Collection

// NewRunCollection returns an empty manifest collection.
func NewRunCollection() *RunCollection { return obs.NewCollection() }

// MetricsSnapshot is a point-in-time copy of a registry's instruments.
type MetricsSnapshot = obs.Snapshot

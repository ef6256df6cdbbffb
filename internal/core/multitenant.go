package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/ssd"
)

// TenantResult is one tenant's outcome in the multi-queue study.
type TenantResult struct {
	Workload string
	MBps     float64
	P99US    float64
	P9999US  float64
}

// MultiTenantResult compares how a scheme isolates a read-heavy
// tenant from a write-heavy neighbour on a shared device.
type MultiTenantResult struct {
	Scheme  ssd.Scheme
	Tenants []TenantResult
}

// MultiTenantStudy runs two tenants — the most read-intensive trace
// and the most write-intensive trace — on shared hardware through two
// NVMe-style host queues, for each scheme. Read-retry waste hurts the
// read tenant's tail the most, so the study shows RiF's isolation
// benefit (the FlashShare-style concern the paper's intro cites).
func MultiTenantStudy(p RunParams, schemes []ssd.Scheme, pe int) ([]MultiTenantResult, error) {
	names := []string{"Ali124", "Ali2"}
	return gridMap(p, len(schemes), func(p RunParams, i int) (MultiTenantResult, error) {
		cfg := p.BuildConfig(schemes[i], pe)
		var queues []ssd.HostQueue
		for _, name := range names {
			w, err := p.workload(name)
			if err != nil {
				return MultiTenantResult{}, err
			}
			queues = append(queues, ssd.HostQueue{Workload: w, Depth: cfg.QueueDepth / 2})
		}
		var perQueue []ssd.QueueMetrics
		m, err := p.record(cfg, obs.Manifest{Workload: strings.Join(names, "+")}, func(cfg ssd.Config) (*ssd.Metrics, error) {
			// The primary workload drives cold-age lookups for its own
			// requests; each queue's generator carries its own profile.
			dev, err := ssd.New(cfg, queues[0].Workload)
			if err != nil {
				return nil, err
			}
			m, pq, err := dev.RunQueues(queues, p.Requests/2)
			perQueue = pq
			return m, err
		})
		if err != nil {
			return MultiTenantResult{}, err
		}
		res := MultiTenantResult{Scheme: schemes[i]}
		for qi, name := range names {
			q := &perQueue[qi]
			res.Tenants = append(res.Tenants, TenantResult{
				Workload: name,
				MBps:     q.Bandwidth(m.Makespan.Seconds()),
				P99US:    q.ReadLatencies.Percentile(99),
				P9999US:  q.ReadLatencies.Percentile(99.99),
			})
		}
		return res, nil
	})
}

// FormatMultiTenant renders the study.
func FormatMultiTenant(results []MultiTenantResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %9s %9s %10s\n", "scheme", "tenant", "MB/s", "p99us", "p99.99us")
	for _, r := range results {
		for _, t := range r.Tenants {
			fmt.Fprintf(&b, "%-8s %-8s %9.0f %9.0f %10.0f\n",
				r.Scheme, t.Workload, t.MBps, t.P99US, t.P9999US)
		}
	}
	return b.String()
}

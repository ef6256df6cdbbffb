package ssd

import (
	"fmt"
	"math"
)

// foldObs publishes the run's final accounting into the configured
// observability registry. The simulation engine is single-threaded, so
// per-run scalars live as plain fields during the run and are folded
// here once, at drain time, as are the read-latency and ECC-decode
// sketches (merging is exact). A nil registry makes every call below
// a no-op.
func (s *SSD) foldObs() {
	reg := s.cfg.Obs
	if reg == nil {
		return
	}

	// Simulation kernel.
	reg.Counter("sim_events_processed_total").Add(int64(s.eng.Processed()))
	reg.Gauge("sim_event_heap_highwater").SetMax(int64(s.eng.MaxPending()))
	reg.Gauge("sim_time_ns").SetMax(int64(s.m.Makespan))

	// Host-visible I/O.
	reg.Counter("ssd_requests_completed_total").Add(int64(s.m.RequestsCompleted))
	reg.Counter("ssd_bytes_read_total").Add(s.m.BytesRead)
	reg.Counter("ssd_bytes_written_total").Add(s.m.BytesWritten)
	reg.Histogram("ssd_read_latency_us").Merge(&s.m.ReadLatencies)
	reg.Histogram("ecc_decode_latency_us").Merge(s.dec.Latencies)

	// Retry behaviour.
	reg.Counter("ssd_page_reads_total").Add(s.m.PageReads)
	reg.Counter("ssd_pages_retried_total").Add(s.m.PagesRetried)
	reg.Counter("ssd_retry_rounds_total").Add(s.m.RetryRounds)
	reg.Counter("ssd_sentinel_extra_reads_total").Add(s.m.SentinelExtraReads)
	reg.Counter("ssd_unrecovered_pages_total").Add(s.m.UnrecoveredPages)
	reg.Counter("ssd_media_error_requests_total").Add(s.m.MediaErrorRequests)

	// Fault injection: published only when the injector is live, so a
	// fault-free run's registry (and manifest) is byte-identical to
	// one from a build without the subsystem.
	if s.inj != nil {
		f := s.m.Faults
		reg.Counter("faults_transient_sense_total").Add(f.TransientSenseFaults)
		reg.Counter("faults_stuck_page_reads_total").Add(f.StuckPageReads)
		reg.Counter("faults_grown_bad_blocks_total").Add(f.GrownBadBlocks)
		reg.Counter("faults_die_dropout_reads_total").Add(f.DieDropoutReads)
		reg.Counter("faults_die_failovers_total").Add(f.DieFailovers)
		reg.Counter("faults_channel_corruptions_total").Add(f.ChannelCorruptions)
		reg.Counter("faults_forced_mispredictions_total").Add(f.ForcedMispredictions)
		reg.Counter("faults_decode_timeouts_total").Add(f.DecodeTimeouts)
		reg.Counter("faults_dropped_writes_total").Add(f.DroppedWrites)
		reg.Counter("faults_injected_total").Add(f.Total())
	}

	// RP/RVS behaviour (the Fig. 14 confusion matrix; positive = RP
	// predicts the decode will fail).
	reg.Counter("odear_rp_predictions_total").Add(s.m.Predictions)
	reg.Counter("odear_rp_mispredictions_total").Add(s.m.Mispredictions)
	reg.Counter("odear_rp_tp_total").Add(s.m.Confusion.TP)
	reg.Counter("odear_rp_fp_total").Add(s.m.Confusion.FP)
	reg.Counter("odear_rp_fn_total").Add(s.m.Confusion.FN)
	reg.Counter("odear_rp_tn_total").Add(s.m.Confusion.TN)
	reg.Counter("odear_rvs_rereads_total").Add(s.m.RVSRereads)
	reg.Counter("odear_avoided_transfers_total").Add(s.m.AvoidedTransfers)
	reg.Gauge("odear_energy_delta_nj").Add(int64(math.Round(s.m.EnergyDeltaNJ())))

	// Per-channel usage (the Fig. 18 breakdown, in nanoseconds) plus
	// occupancy high-waters.
	for i := range s.channels {
		ch := &s.channels[i]
		u := ch.usage()
		n := channelObsNames(i)
		reg.Counter(n.idle).Add(int64(u.Idle()))
		reg.Counter(n.cor).Add(int64(u.Cor))
		reg.Counter(n.uncor).Add(int64(u.Uncor))
		reg.Counter(n.write).Add(int64(u.Write))
		reg.Counter(n.eccWait).Add(int64(u.ECCWait))
		reg.Counter(n.total).Add(int64(u.Total))
		reg.Gauge(n.eccBuf).SetMax(int64(ch.bufHigh))
		reg.Gauge(n.backlog).SetMax(int64(ch.pendHigh))
	}

	// Die queue pressure (aggregated over dies: with 32+ dies a
	// per-die series would dominate the snapshot).
	dieHigh := 0
	for i := range s.dies {
		dieHigh = max(dieHigh, s.dies[i].qHigh)
	}
	reg.Gauge("ssd_die_queue_depth_highwater").SetMax(int64(dieHigh))
	reg.Counter("ssd_die_suspensions_total").Add(s.m.Suspensions)

	// Background machinery.
	reg.Counter("ssd_gc_runs_total").Add(s.m.GCRuns)
	reg.Counter("ssd_gc_pages_relocated_total").Add(s.m.PagesRelocated)
	reg.Counter("ssd_read_reclaims_total").Add(s.m.ReadReclaims)
	reg.Counter("ssd_reclaim_pages_migrated_total").Add(s.m.ReclaimPagesMigrated)
	reg.Counter("ssd_write_cache_hits_total").Add(s.cache.hits)
	reg.Counter("ssd_write_cache_stalls_total").Add(s.cache.stalls)
	reg.Gauge("ssd_write_cache_pages_highwater").SetMax(int64(s.cache.inUseHigh))
}

// chanObsNames are one channel's instrument names in the registry.
type chanObsNames struct {
	idle, cor, uncor, write, eccWait, total, eccBuf, backlog string
}

// namedChannels is how many channels' names are built at package init,
// twice the default geometry's 8, so a fold formats no name; a wider
// device formats the rest at each fold.
const namedChannels = 16

var chanNames = func() [namedChannels]chanObsNames {
	var t [namedChannels]chanObsNames
	for i := range t {
		t[i] = makeChanObsNames(i)
	}
	return t
}()

// channelObsNames returns channel i's instrument names, from the table
// when it holds them.
func channelObsNames(i int) chanObsNames {
	if i < namedChannels {
		return chanNames[i]
	}
	return makeChanObsNames(i)
}

func makeChanObsNames(i int) chanObsNames {
	p := fmt.Sprintf("ssd_ch%d_", i)
	return chanObsNames{
		idle: p + "idle_ns", cor: p + "cor_ns", uncor: p + "uncor_ns", write: p + "write_ns",
		eccWait: p + "eccwait_ns", total: p + "total_ns",
		eccBuf: p + "ecc_buf_highwater", backlog: p + "backlog_highwater",
	}
}

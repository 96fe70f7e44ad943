package main

// accountedLayers turns the accounted pass's counter deltas into the
// per-layer count metrics: <counter delta> / ops, by layer.
func (m metrics) accountedLayers(w *workload, a *accountedResult, liveBytes int64, freeSuperblocks int) {
	ops := float64(a.ops)
	perOp := func(metric, counter string) { m.set(metric, a.tel[counter]/ops, int(a.ops)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	m.set("host.cpu_us_per_op", a.cpuUsPerOp, a.cpuSamples)
	m.set("resp.bytes_in_per_op", float64(a.bytesIn)/ops, int(a.ops))
	m.set("resp.bytes_out_per_op", float64(a.bytesOut)/ops, int(a.ops))
	perOp("kvserve.errors_per_op", "kvserve_errors_total")

	// Only the sharded store leases a thread per op; an unsharded session
	// leases once per connection, outside any measured window.
	perOp("shard.leases_per_op", "mtm_thread_leases_total")
	perOp("shard.xmsets_per_op", "shard_xmsets_total")
	perOp("shard.xmset_aborts_per_op", "shard_xmset_aborts_total")
	imbalance := 0.0
	if w.shards > 1 {
		var sum, most float64
		for _, c := range a.shardCommits {
			sum += float64(c)
			most = max(most, float64(c))
		}
		imbalance = ratio(most, sum/float64(len(a.shardCommits)))
	}
	m.set("shard.commit_imbalance", imbalance, len(a.shardCommits))

	perOp("mtm.commits_per_op", "mtm_commits_total")
	perOp("mtm.aborts_per_op", "mtm_aborts_total")
	perOp("mtm.readtx_per_op", "mtm_readtx_started_total")
	perOp("mtm.readtx_retries_per_op", "mtm_readtx_retries_total")
	perOp("mtm.lease_waits_per_op", "mtm_lease_waits_total")
	perOp("mtm.gc_epochs_per_op", "mtm_group_commit_epochs_total")
	m.set("mtm.gc_members_per_epoch",
		ratio(a.tel["mtm_group_commit_members_total"], a.tel["mtm_group_commit_epochs_total"]),
		int(a.tel["mtm_group_commit_epochs_total"]))

	perOp("pheap.allocs_per_op", "pheap_allocs_total")
	perOp("pheap.frees_per_op", "pheap_frees_total")
	perOp("pheap.alloc_bytes_per_op", "pheap_alloc_bytes_total")
	m.set("pheap.live_bytes", float64(liveBytes), 1)
	m.set("pheap.free_superblocks", float64(freeSuperblocks), 1)

	perOp("rawl.appends_per_op", "rawl_appends_total")
	perOp("rawl.payload_bytes_per_op", "rawl_append_payload_bytes_total")
	perOp("rawl.truncations_per_op", "rawl_truncations_total")
	perOp("rawl.log_full_per_op", "rawl_log_full_total")

	perOp("region.page_faults_per_op", "region_page_faults_total")
	hits, misses := a.tel["region_readcache_hits_total"], a.tel["region_readcache_misses_total"]
	m.set("region.readcache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))

	m.set("scm.stores_per_op", float64(a.dev.Stores)/ops, int(a.ops))
	m.set("scm.wt_stores_per_op", float64(a.dev.WTStores)/ops, int(a.ops))
}

// crashLayers reports what each layer said about its own recovery, as the
// median over the crash→attach cycles.
func (m metrics) crashLayers(c *crashResult) {
	cycles := len(c.attachMs)
	m.set("core.attach_ms", median(c.attachMs), cycles)
	m.set("pheap.scavenge_ms", median(c.scavengeMs), cycles)
	m.set("mtm.recovery_ms", median(c.mtmRecoveryMs), cycles)
	m.set("mtm.recovery_replayed", float64(c.replayed), cycles)
	m.set("region.boot_ms", median(c.bootMs), cycles)
	m.set("region.remap_ms", median(c.remapMs), cycles)
	m.set("shard.recovery_ms_max", median(c.shardMaxMs), cycles)
	m.set("shard.recovered_intents", float64(c.recoveredIntents), cycles)
}
